//! First-order cell-transition Markov predictor — the §II.B
//! related-work baseline ([8], [14] style).
//!
//! Training counts transitions between the cells of consecutive
//! samples; prediction chains the most probable transition `steps`
//! times. The two deficiencies the paper calls out are deliberately
//! reproduced:
//!
//! * when the current cell has **no outgoing statistics**, the
//!   predictor "picks one neighbor cell randomly" ([7]) — here a
//!   deterministic pseudo-random neighbour so experiments stay
//!   reproducible;
//! * accuracy is **sensitive to the cell size**, which the
//!   `cellsize` experiment sweeps.

use crate::CellGrid;
use hpm_geo::Point;
use hpm_trajectory::Trajectory;
use std::collections::HashMap;

/// A trained cell-transition model.
#[derive(Debug, Clone)]
pub struct MarkovPredictor {
    grid: CellGrid,
    /// `transitions[from]` = (to, count) pairs, sorted by descending
    /// count then ascending cell id (deterministic argmax).
    transitions: HashMap<u32, Vec<(u32, u32)>>,
}

impl MarkovPredictor {
    /// Counts cell transitions over every consecutive sample pair of
    /// the history.
    pub fn train(history: &Trajectory, grid: CellGrid) -> Self {
        let mut counts: HashMap<(u32, u32), u32> = HashMap::new();
        for w in history.points().windows(2) {
            let from = grid.cell_of(&w[0]);
            let to = grid.cell_of(&w[1]);
            *counts.entry((from, to)).or_insert(0) += 1;
        }
        let mut transitions: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
        for ((from, to), n) in counts {
            transitions.entry(from).or_default().push((to, n));
        }
        for outs in transitions.values_mut() {
            outs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        MarkovPredictor { grid, transitions }
    }

    /// One greedy step: the most frequent successor cell, or a
    /// deterministic pseudo-random neighbour when the cell was never
    /// seen (the [7] fallback; `tick` varies the choice per step).
    fn step(&self, cell: u32, tick: u32) -> u32 {
        if let Some(outs) = self.transitions.get(&cell) {
            return outs[0].0;
        }
        let neighbors = self.grid.neighbors(cell);
        // Splitmix-style scramble of (cell, tick) — deterministic, but
        // spreads the arbitrary choice around like the random pick the
        // paper criticises.
        let mut x = (u64::from(cell) << 32 | u64::from(tick)).wrapping_mul(0x9E3779B97F4A7C15);
        x ^= x >> 31;
        neighbors[(x % neighbors.len() as u64) as usize]
    }

    /// Predicts the location `steps` timestamps ahead of `current` by
    /// chaining greedy transitions; returns the final cell's centre.
    pub fn predict(&self, current: &Point, steps: u32) -> Point {
        let mut cell = self.grid.cell_of(current);
        for tick in 0..steps {
            cell = self.step(cell, tick);
        }
        self.grid.center(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20 laps over the cells of a small square circuit.
    fn circuit() -> Trajectory {
        let corners = [
            Point::new(5.0, 5.0),
            Point::new(45.0, 5.0),
            Point::new(45.0, 45.0),
            Point::new(5.0, 45.0),
        ];
        let mut pts = Vec::new();
        for _ in 0..20 {
            pts.extend_from_slice(&corners);
        }
        Trajectory::from_points(pts)
    }

    #[test]
    fn learns_deterministic_cycle() {
        let m = MarkovPredictor::train(&circuit(), CellGrid::new(50.0, 10.0));
        let start = Point::new(5.0, 5.0);
        // One step lands in the (45, 5) cell, four steps return home.
        assert_eq!(m.predict(&start, 1), Point::new(45.0, 5.0));
        assert_eq!(m.predict(&start, 4), Point::new(5.0, 5.0));
        assert_eq!(m.predict(&start, 401), Point::new(45.0, 5.0));
    }

    #[test]
    fn greedy_step_follows_the_majority() {
        // From home the object goes east 2/3 of the time, north 1/3.
        let mut pts = Vec::new();
        for i in 0..30 {
            pts.push(Point::new(5.0, 5.0));
            if i % 3 == 0 {
                pts.push(Point::new(5.0, 45.0));
            } else {
                pts.push(Point::new(45.0, 5.0));
            }
        }
        let m = MarkovPredictor::train(&Trajectory::from_points(pts), CellGrid::new(50.0, 10.0));
        assert_eq!(m.predict(&Point::new(5.0, 5.0), 1), Point::new(45.0, 5.0));
    }

    #[test]
    fn unseen_cell_falls_back_to_neighbor() {
        let m = MarkovPredictor::train(&circuit(), CellGrid::new(50.0, 10.0));
        // A cell the circuit never visits.
        let lost = Point::new(25.0, 25.0);
        let p = m.predict(&lost, 1);
        // Lands in one of the 4 neighbouring cell centres.
        let dist = p.distance(&Point::new(25.0, 25.0));
        assert!((dist - 10.0).abs() < 1e-9, "jumped {dist}");
        // Deterministic.
        assert_eq!(m.predict(&lost, 1), m.predict(&lost, 1));
    }

    #[test]
    fn zero_steps_returns_current_cell_center() {
        let m = MarkovPredictor::train(&circuit(), CellGrid::new(50.0, 10.0));
        assert_eq!(m.predict(&Point::new(7.0, 3.0), 0), Point::new(5.0, 5.0));
    }

    #[test]
    fn empty_history_still_predicts() {
        let m = MarkovPredictor::train(&Trajectory::from_points(vec![]), CellGrid::new(50.0, 10.0));
        assert!(m.predict(&Point::new(25.0, 25.0), 5).is_finite());
    }

    #[test]
    fn cell_size_changes_answers() {
        // The paper's critique: the same data, different grids,
        // different predictions.
        let coarse = MarkovPredictor::train(&circuit(), CellGrid::new(50.0, 25.0));
        let fine = MarkovPredictor::train(&circuit(), CellGrid::new(50.0, 5.0));
        let start = Point::new(5.0, 5.0);
        assert_ne!(coarse.predict(&start, 1), fine.predict(&start, 1));
    }
}
