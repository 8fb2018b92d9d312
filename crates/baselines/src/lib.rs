//! Related-work baselines from the paper's §II.B critique of
//! pattern-based predictors.
//!
//! The paper contrasts the Hybrid Prediction Model with cell-based
//! approaches — Markov transition models over spatial cells (refs
//! \[8\], \[14\]) and spatio-temporal association rules (refs \[7\],
//! \[15\], \[16\]) —
//! and names their shared deficiencies: no sensible answer when a cell
//! has no statistics (one approach "picks one neighbor cell randomly"),
//! and accuracy that hinges on the cell size. [`MarkovPredictor`]
//! implements that family faithfully, deficiencies included, so the
//! critique is measurable (the `cellsize` experiment).

//! # Example
//!
//! ```
//! use hpm_baselines::{CellGrid, MarkovPredictor};
//! use hpm_geo::Point;
//! use hpm_trajectory::Trajectory;
//!
//! // Ten laps around a square circuit.
//! let corners = [
//!     Point::new(5.0, 5.0), Point::new(45.0, 5.0),
//!     Point::new(45.0, 45.0), Point::new(5.0, 45.0),
//! ];
//! let laps: Vec<Point> = std::iter::repeat(corners).take(10).flatten().collect();
//! let model = MarkovPredictor::train(
//!     &Trajectory::from_points(laps),
//!     CellGrid::new(50.0, 10.0),
//! );
//! assert_eq!(model.predict(&Point::new(5.0, 5.0), 1), Point::new(45.0, 5.0));
//! ```

#![forbid(unsafe_code)]

mod grid;
mod markov;
mod slotted;

pub use grid::CellGrid;
pub use markov::MarkovPredictor;
pub use slotted::SlottedMarkov;
