//! Seeded fleets: where every object is at every timestamp.
//!
//! Two kinds of object share a constant-density grid (the plane grows
//! with the fleet, as in `BENCH_range.json`): **commuters** follow
//! `hpm-datagen` periodic routes local to their grid slot and are the
//! only objects that ever hold patterns; **drifters** move in a
//! straight line and only ever answer through the motion function.
//! Every position is a pure function of `(seed, id, step)`, so a
//! workload's op list, its oracle and its hold-out truth all come from
//! the same source without storing a second copy.

use hpm_datagen::{Archetype, GeneratorConfig, PeriodicGenerator};
use hpm_geo::Point;
use hpm_rand::splitmix64;

/// Grid spacing between neighbouring slots, in map units.
pub const SPACING: f64 = 50.0;
/// Side of the box a commuter's routes (and its patternless wander
/// periods) stay inside, anchored at its slot.
const LOCAL_EXTENT: f64 = 40.0;
/// Largest drifter speed per axis, map units per timestamp.
const MAX_DRIFT: f64 = 2.4;

/// Shape of a fleet; positions follow from it and the seed.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// Workload seed.
    pub seed: u64,
    /// Number of objects; ids are `0..objects`.
    pub objects: u64,
    /// `(n, d)`: of every `d` consecutive ids the first `n` are
    /// commuters (`id % d < n`), the rest drifters.
    pub commuter_share: (u64, u64),
    /// Positions per period of a commuter's routine.
    pub period: u32,
    /// Probability that a commuter period follows one of its routes
    /// rather than wandering (the paper's pattern strength `f`).
    pub similarity: f64,
}

impl Fleet {
    /// Slots per grid row.
    pub fn cols(&self) -> u64 {
        (self.objects as f64).sqrt().ceil() as u64
    }

    /// Side of the square plane the grid covers.
    pub fn side(&self) -> f64 {
        self.cols() as f64 * SPACING
    }

    /// Whether `id` is a commuter.
    pub fn is_commuter(&self, id: u64) -> bool {
        id % self.commuter_share.1 < self.commuter_share.0
    }

    /// Ids of the fleet's commuters, ascending.
    pub fn commuter_ids(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.objects).filter(|&id| self.is_commuter(id))
    }

    /// Position of commuter `id` in [`commuter_ids`](Self::commuter_ids).
    pub fn commuter_index(&self, id: u64) -> usize {
        let (n, d) = self.commuter_share;
        (id / d * n + id % d) as usize
    }

    /// The grid slot `id` is anchored at.
    pub fn slot(&self, id: u64) -> Point {
        let cols = self.cols();
        Point::new((id % cols) as f64 * SPACING, (id / cols) as f64 * SPACING)
    }

    /// A per-object stream of 64-bit values derived from the seed.
    fn object_hash(&self, id: u64, salt: u64) -> u64 {
        let mut state = self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        splitmix64(&mut state)
    }

    /// A uniform value in `[-1, 1)` for `(id, salt)`.
    fn unit(&self, id: u64, salt: u64) -> f64 {
        (self.object_hash(id, salt) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// `periods` full periods of commuter `id`, one position per
    /// timestamp, index 0 at a period boundary. Two routes share their
    /// first leg and then fork (the paper's Fig. 3 branching), with
    /// per-object geometry so no two commuters mine the same patterns.
    pub fn commuter_path(&self, id: u64, periods: usize) -> Vec<Point> {
        let origin = self.slot(id);
        let reach = LOCAL_EXTENT * (0.55 + 0.2 * self.unit(id, 1).abs());
        let home = Point::new(4.0, 4.0 + 6.0 * self.unit(id, 2).abs());
        let hub = Point::new(home.x + reach * 0.5, home.y);
        let work = Point::new(hub.x + reach * 0.4, hub.y + reach * 0.5);
        let mall = Point::new(hub.x + reach * 0.3, (hub.y - reach * 0.2).max(1.0));
        let beach = Point::new(mall.x + reach * 0.15, mall.y + reach * 0.3);
        let generator = PeriodicGenerator::new(
            GeneratorConfig {
                period: self.period,
                num_subs: periods,
                similarity_prob: self.similarity,
                point_noise: 0.25,
                route_noise: 0.4,
                extent: LOCAL_EXTENT,
                seed: self.object_hash(id, 3),
            },
            vec![
                Archetype::new(vec![home, hub, work], 0.65),
                Archetype::new(vec![home, hub, mall, beach], 0.35),
            ],
        );
        generator
            .generate()
            .points()
            .iter()
            .map(|p| Point::new(origin.x + p.x, origin.y + p.y))
            .collect()
    }

    /// Where drifter `id` is `step` timestamps after its first report:
    /// a straight line from its slot at a per-object velocity, with a
    /// small deterministic jitter so consecutive deltas are not
    /// bit-identical (histories compress like sensor data, not like a
    /// ruler).
    pub fn drifter_at(&self, id: u64, step: u64) -> Point {
        let origin = self.slot(id);
        let vx = MAX_DRIFT * self.unit(id, 4);
        let vy = MAX_DRIFT * self.unit(id, 5);
        let s = step as f64;
        Point::new(
            origin.x + vx * s + 0.05 * self.unit(id, 6 + 2 * step),
            origin.y + vy * s + 0.05 * self.unit(id, 7 + 2 * step),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commuter_index_is_the_position_among_commuter_ids() {
        for commuter_share in [(1, 10), (4, 5), (1, 1)] {
            let fleet = Fleet {
                seed: 1,
                objects: 103,
                commuter_share,
                period: 8,
                similarity: 1.0,
            };
            for (j, id) in fleet.commuter_ids().enumerate() {
                assert!(fleet.is_commuter(id));
                assert_eq!(fleet.commuter_index(id), j);
            }
        }
    }
}
