//! Second-order cell-transition predictor — §II.B's "from one or
//! multiple cells to another" ([8]): the state is the *pair* of the
//! two most recent cells, capturing direction through a cell at the
//! cost of squaring the state space (statistics fragment even faster
//! than the slotted variant's).

use crate::CellGrid;
use hpm_geo::Point;
use hpm_trajectory::Trajectory;
use std::collections::HashMap;

/// A trained second-order cell-transition model.
#[derive(Debug, Clone)]
pub struct SecondOrderMarkov {
    grid: CellGrid,
    /// `transitions[(prev, cur)]` = successor (to, count) pairs sorted
    /// by descending count then cell id.
    transitions: HashMap<(u32, u32), Vec<(u32, u32)>>,
    /// First-order fallback for states with no pair statistics.
    fallback: crate::MarkovPredictor,
}

impl SecondOrderMarkov {
    /// Counts `(cellₜ₋₂, cellₜ₋₁) → cellₜ` transitions over the
    /// history, plus the first-order model as fallback.
    pub fn train(history: &Trajectory, grid: CellGrid) -> Self {
        let mut counts: HashMap<(u32, u32, u32), u32> = HashMap::new();
        for w in history.points().windows(3) {
            let a = grid.cell_of(&w[0]);
            let b = grid.cell_of(&w[1]);
            let c = grid.cell_of(&w[2]);
            *counts.entry((a, b, c)).or_insert(0) += 1;
        }
        let mut transitions: HashMap<(u32, u32), Vec<(u32, u32)>> = HashMap::new();
        for ((a, b, c), n) in counts {
            transitions.entry((a, b)).or_default().push((c, n));
        }
        for outs in transitions.values_mut() {
            outs.sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        }
        SecondOrderMarkov {
            grid,
            transitions,
            fallback: crate::MarkovPredictor::train(history, grid),
        }
    }

    /// Predicts the location `steps` timestamps ahead of the two most
    /// recent positions (`prev` then `current`), chaining greedy
    /// pair transitions and degrading to the first-order model where
    /// pair statistics are missing.
    pub fn predict(&self, prev: &Point, current: &Point, steps: u32) -> Point {
        let mut a = self.grid.cell_of(prev);
        let mut b = self.grid.cell_of(current);
        for _ in 0..steps {
            let next = match self.transitions.get(&(a, b)) {
                Some(outs) => outs[0].0,
                // Degrade to first-order (which itself degrades to a
                // pseudo-random neighbour on unseen cells).
                None => self
                    .grid
                    .cell_of(&self.fallback.predict(&self.grid.center(b), 1)),
            };
            a = b;
            b = next;
        }
        self.grid.center(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A figure-eight through the centre cell: direction through the
    /// middle determines the exit — first-order cannot represent this.
    fn figure_eight() -> Trajectory {
        let mid = Point::new(25.0, 25.0);
        let e = Point::new(45.0, 25.0);
        let n = Point::new(25.0, 45.0);
        let w = Point::new(5.0, 25.0);
        let s = Point::new(25.0, 5.0);
        // Loop: W -> mid -> E -> mid -> N... craft so that the
        // predecessor of `mid` decides the successor deterministically:
        //   from W through mid go E; from E through mid go N;
        //   from N through mid go W... that revisits (mid) with 4 pair
        //   states. Sequence: w, mid, e, mid, n, mid, w, mid, e, ...
        //   Wait: e->mid->n and n->mid->w both pass (e,mid) etc.
        // Simpler deterministic cycle of pairs:
        let cycle = [w, mid, e, mid, n, mid, s, mid];
        let mut pts = Vec::new();
        for _ in 0..30 {
            pts.extend_from_slice(&cycle);
        }
        Trajectory::from_points(pts)
    }

    #[test]
    fn direction_through_a_cell_matters() {
        let traj = figure_eight();
        let grid = CellGrid::new(50.0, 10.0);
        let m2 = SecondOrderMarkov::train(&traj, grid);
        let mid = Point::new(25.0, 25.0);
        // Arriving at mid FROM the west exits east; FROM the east
        // exits north (next in the cycle).
        let from_w = m2.predict(&Point::new(5.0, 25.0), &mid, 1);
        let from_e = m2.predict(&Point::new(45.0, 25.0), &mid, 1);
        assert_eq!(from_w, Point::new(45.0, 25.0));
        assert_eq!(from_e, Point::new(25.0, 45.0));
        assert_ne!(from_w, from_e);
        // The first-order model collapses both to one answer.
        let m1 = crate::MarkovPredictor::train(&traj, grid);
        assert_eq!(m1.predict(&mid, 1), m1.predict(&mid, 1));
    }

    #[test]
    fn multi_step_follows_the_cycle() {
        let traj = figure_eight();
        let m2 = SecondOrderMarkov::train(&traj, CellGrid::new(50.0, 10.0));
        let w = Point::new(5.0, 25.0);
        let mid = Point::new(25.0, 25.0);
        // w, mid -> e -> mid -> n -> mid -> s -> mid -> w ...
        assert_eq!(m2.predict(&w, &mid, 2), Point::new(25.0, 25.0));
        assert_eq!(m2.predict(&w, &mid, 3), Point::new(25.0, 45.0));
        assert_eq!(m2.predict(&w, &mid, 7), Point::new(5.0, 25.0));
    }

    #[test]
    fn unseen_pair_degrades_to_first_order() {
        let traj = figure_eight();
        let m2 = SecondOrderMarkov::train(&traj, CellGrid::new(50.0, 10.0));
        // An impossible predecessor (corner cell never precedes mid).
        let corner = Point::new(45.0, 45.0);
        let mid = Point::new(25.0, 25.0);
        let p = m2.predict(&corner, &mid, 1);
        assert!(p.is_finite());
        // Deterministic.
        assert_eq!(p, m2.predict(&corner, &mid, 1));
    }

    #[test]
    fn short_history_still_works() {
        let m2 = SecondOrderMarkov::train(
            &Trajectory::from_points(vec![Point::ORIGIN; 2]),
            CellGrid::new(50.0, 10.0),
        );
        assert!(m2.predict(&Point::ORIGIN, &Point::ORIGIN, 3).is_finite());
    }
}
