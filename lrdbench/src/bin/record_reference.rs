//! Re-records the solver workloads' references from the program itself:
//!
//! ```text
//! cargo run --release --manifest-path lrdbench/Cargo.toml --bin record_reference
//! ```
//!
//! Writes `reference/lattice.txt` (every fig04/fig05 full-profile point
//! value) and `reference/corners.txt` (every footnote-1 corner bracket)
//! next to this package's manifest. Re-record only when a change to the
//! program is meant to change these outputs, and say so in its notes.

use std::fmt::Write as _;
use std::path::Path;

use lrd_experiments::figures::{fig04_05, Profile};
use lrd_experiments::sweep::{run_points, ShardSpec};
use lrd_experiments::Corpus;
use lrd_fluidq::{SolveSession, SolverOptions};

fn main() -> Result<(), String> {
    lrd_pool::set_global_threads(lrdbench::SOLVER_THREADS);
    let corpus = Corpus::full();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");

    let mut lattice = String::from("# figure point-index value-bits (fig04/fig05 full profile)\n");
    for sweep in [
        fig04_05::fig04_sweep(&corpus, Profile::Full),
        fig04_05::fig05_sweep(&corpus, Profile::Full),
    ] {
        let mut points = run_points(&sweep, &ShardSpec::FULL, None).map_err(|e| e.to_string())?;
        points.sort_by_key(|p| p.index);
        for p in points {
            writeln!(
                lattice,
                "{} {} {:016x}",
                sweep.plan.figure,
                p.index,
                p.value.to_bits()
            )
            .expect("writing to a String");
        }
    }

    let mut corners =
        String::from("# utilization buffer_s cutoff_s lower-bits upper-bits (footnote-1 survey)\n");
    let opts = SolverOptions::sweep_profile();
    for u in [0.5, 0.8, 0.95] {
        for b in [0.05, 0.5, 5.0] {
            for tc in [0.1, 10.0, f64::INFINITY] {
                let s = SolveSession::builder(&corpus.mtv.model(u, b, tc))
                    .options(&opts)
                    .solve();
                writeln!(
                    corners,
                    "{u} {b} {tc} {:016x} {:016x}",
                    s.lower.to_bits(),
                    s.upper.to_bits()
                )
                .expect("writing to a String");
            }
        }
    }
    for (name, text) in [("lattice.txt", lattice), ("corners.txt", corners)] {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
