//! Trajectory analytics: the supporting toolbox around the predictor —
//! stay-point detection, RDP compaction, and RMF stability analysis —
//! run over one synthetic commuter.
//!
//! ```text
//! cargo run --release --example trajectory_analytics
//! ```

use hybrid_prediction_model::datagen::{paper_dataset, PaperDataset, PERIOD};
use hybrid_prediction_model::geo::simplify_rdp_indices;
use hybrid_prediction_model::motion::Rmf;
use hybrid_prediction_model::trajectory::stay_points;

fn main() {
    let traj = paper_dataset(PaperDataset::Cow, 11).generate_subs(40);
    println!(
        "analysing {} samples ({} days of period {PERIOD})\n",
        traj.len(),
        traj.len() / PERIOD as usize
    );

    // 1. Stay points: where does the animal dwell?
    let stays = stay_points(&traj, 120.0, 8);
    println!(
        "stay points (within 120 units for >= 8 timestamps): {}",
        stays.len()
    );
    for sp in stays.iter().take(5) {
        println!(
            "  t {:>6}..{:<6} ({} steps) around {}",
            sp.start,
            sp.end,
            sp.duration(),
            sp.center
        );
    }
    if stays.len() > 5 {
        println!("  … and {} more", stays.len() - 5);
    }

    // 2. RDP compaction: how few vertices carry the day's shape?
    let day = &traj.points()[..PERIOD as usize];
    for eps in [10.0, 30.0, 100.0] {
        let kept = simplify_rdp_indices(day, eps);
        println!(
            "rdp(eps {eps:>5}): day 0 compacts {} -> {} vertices ({:.0}%)",
            day.len(),
            kept.len(),
            100.0 * kept.len() as f64 / day.len() as f64
        );
    }

    // 3. RMF stability: why motion functions drift at long horizons.
    println!("\nRMF stability along the day (retrospect 3, window 20):");
    for start in [20usize, 100, 200] {
        let window = &traj.points()[start..start + 20];
        if let Some(rmf) = Rmf::fit(window, 3) {
            let radius = rmf.spectral_radius();
            println!(
                "  window at t={start:<4}: spectral radius {radius:.4} -> {}",
                if rmf.is_stable() {
                    "stable (bounded rollout)"
                } else {
                    "UNSTABLE (diverges on long horizons)"
                }
            );
        }
    }
}
