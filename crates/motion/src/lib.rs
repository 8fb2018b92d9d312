//! Motion functions (§II.A): vector-based predictors over an object's
//! recent movements.
//!
//! Two models are provided — the constant-velocity [`LinearMotion`]
//! and the [`Rmf`] (Recursive Motion Function, Tao et al. SIGMOD 2004),
//! the most accurate motion function in the paper's literature review,
//! used both as the comparison baseline of §VII and as the Hybrid
//! Prediction Model's fallback when no trajectory pattern matches a
//! query. Both implement [`MotionModel`].

//! # Example
//!
//! ```
//! use hpm_motion::{LinearMotion, MotionModel, Rmf};
//! use hpm_geo::Point;
//!
//! // A window of samples moving east at 3 units per timestamp.
//! let window: Vec<Point> = (0..10).map(|i| Point::new(3.0 * i as f64, 5.0)).collect();
//!
//! let rmf = Rmf::fit(&window, 2).expect("enough samples");
//! assert!(rmf.predict(4).distance(&Point::new(39.0, 5.0)) < 1e-6);
//!
//! let lin = LinearMotion::fit(&window).expect("enough samples");
//! assert!(lin.predict(4).distance(&Point::new(39.0, 5.0)) < 1e-6);
//! ```

#![forbid(unsafe_code)]

mod linear;
mod rmf;

pub use linear::LinearMotion;
pub use rmf::Rmf;

use hpm_geo::Point;

/// A fitted motion function: positions extrapolated from recent
/// movements.
pub trait MotionModel {
    /// The predicted location `steps` timestamps after the last fitted
    /// sample (`steps = tq − tc`). Implementations always return a
    /// finite point.
    fn predict(&self, steps: u32) -> Point;
}
