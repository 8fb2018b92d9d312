//! Time-slotted cell-transition predictor — the spatio-temporal
//! association-rule family of §II.B ([15], [16], [7]): rules
//! `(rᵢ, t₁) → (rⱼ, t₂)` with per-time statistics rather than one
//! global transition matrix.
//!
//! Transitions are counted *per time offset* of the period, so "where
//! next after the rail station" can differ between the morning and
//! evening slots. The same two deficiencies as the unslotted model
//! remain (random-neighbour fallback, cell-size sensitivity), plus a
//! third the slotting introduces: statistics fragment across `T`
//! slots, so the model needs far more history per cell.

use crate::CellGrid;
use hpm_geo::Point;
use hpm_trajectory::{TimeOffset, Trajectory};
use std::collections::HashMap;

/// A trained per-time-offset cell-transition model.
#[derive(Debug, Clone)]
pub struct SlottedMarkov {
    grid: CellGrid,
    period: u32,
    /// `transitions[(offset, from)]` = (to, count) sorted by
    /// descending count then cell id.
    transitions: HashMap<(TimeOffset, u32), Vec<(u32, u32)>>,
}

impl SlottedMarkov {
    /// Counts per-offset cell transitions over the history.
    ///
    /// # Panics
    /// Panics when `period == 0`.
    pub fn train(history: &Trajectory, grid: CellGrid, period: u32) -> Self {
        assert!(period > 0, "period must be positive");
        let mut counts: HashMap<(TimeOffset, u32, u32), u32> = HashMap::new();
        for (i, w) in history.points().windows(2).enumerate() {
            let ts = history.start() + i as u64;
            let offset = (ts % u64::from(period)) as TimeOffset;
            let from = grid.cell_of(&w[0]);
            let to = grid.cell_of(&w[1]);
            *counts.entry((offset, from, to)).or_insert(0) += 1;
        }
        let mut transitions: HashMap<(TimeOffset, u32), Vec<(u32, u32)>> = HashMap::new();
        for ((offset, from, to), n) in counts {
            transitions.entry((offset, from)).or_default().push((to, n));
        }
        for outs in transitions.values_mut() {
            outs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        SlottedMarkov {
            grid,
            period,
            transitions,
        }
    }

    /// One greedy step at a given time offset; unseen states fall back
    /// to a deterministic pseudo-random neighbour, like the unslotted
    /// model.
    fn step(&self, offset: TimeOffset, cell: u32, tick: u32) -> u32 {
        if let Some(outs) = self.transitions.get(&(offset, cell)) {
            return outs[0].0;
        }
        let neighbors = self.grid.neighbors(cell);
        let mut x = (u64::from(cell) << 40 ^ u64::from(offset) << 16 ^ u64::from(tick))
            .wrapping_mul(0x9E3779B97F4A7C15);
        x ^= x >> 31;
        neighbors[(x % neighbors.len() as u64) as usize]
    }

    /// Predicts the location `steps` timestamps after `current_time`,
    /// starting from `current`, chaining greedy per-offset transitions.
    pub fn predict(&self, current: &Point, current_time: u64, steps: u32) -> Point {
        let mut cell = self.grid.cell_of(current);
        for tick in 0..steps {
            let offset = ((current_time + u64::from(tick)) % u64::from(self.period)) as TimeOffset;
            cell = self.step(offset, cell, tick);
        }
        self.grid.center(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Period 4: the object leaves the "hub" eastwards at offset 0 but
    /// northwards at offset 2 — a distinction a single global
    /// transition matrix cannot represent.
    fn alternating() -> Trajectory {
        let hub = Point::new(5.0, 5.0);
        let east = Point::new(45.0, 5.0);
        let north = Point::new(5.0, 45.0);
        let mut pts = Vec::new();
        for _ in 0..20 {
            pts.push(hub); // offset 0: hub -> east
            pts.push(east); // offset 1: east -> hub
            pts.push(hub); // offset 2: hub -> north
            pts.push(north); // offset 3: north -> hub
        }
        Trajectory::from_points(pts)
    }

    #[test]
    fn per_slot_transitions_distinguish_destinations() {
        let traj = alternating();
        let grid = CellGrid::new(50.0, 10.0);
        let slotted = SlottedMarkov::train(&traj, grid, 4);
        let hub = Point::new(5.0, 5.0);
        // At offset 0 the hub leads east; at offset 2 it leads north.
        assert_eq!(slotted.predict(&hub, 80, 1), Point::new(45.0, 5.0));
        assert_eq!(slotted.predict(&hub, 82, 1), Point::new(5.0, 45.0));
        // The unslotted model cannot make that distinction: it answers
        // the same cell for both.
        let flat = crate::MarkovPredictor::train(&traj, grid);
        assert_eq!(flat.predict(&hub, 1), flat.predict(&hub, 1));
    }

    #[test]
    fn multi_step_follows_the_cycle() {
        let traj = alternating();
        let slotted = SlottedMarkov::train(&traj, CellGrid::new(50.0, 10.0), 4);
        let hub = Point::new(5.0, 5.0);
        // offset 0: east(1), hub(2), north(3), hub(0) ...
        assert_eq!(slotted.predict(&hub, 80, 2), Point::new(5.0, 5.0));
        assert_eq!(slotted.predict(&hub, 80, 3), Point::new(5.0, 45.0));
        assert_eq!(slotted.predict(&hub, 80, 4), Point::new(5.0, 5.0));
    }

    #[test]
    fn unseen_state_neighbor_fallback_is_deterministic() {
        let traj = alternating();
        let slotted = SlottedMarkov::train(&traj, CellGrid::new(50.0, 10.0), 4);
        let lost = Point::new(25.0, 25.0);
        let a = slotted.predict(&lost, 80, 3);
        let b = slotted.predict(&lost, 80, 3);
        assert_eq!(a, b);
        assert!(a.is_finite());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        SlottedMarkov::train(&alternating(), CellGrid::new(50.0, 10.0), 0);
    }
}
