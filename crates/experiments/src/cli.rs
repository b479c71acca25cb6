//! Command-line handling for the figure binaries, layered over the
//! workspace-shared parser in [`lrd_cli`].
//!
//! Every figure binary accepts exactly the shared flag set (`--quick`,
//! `--telemetry`, `--telemetry-summary`, `--threads`, `--shard`,
//! `--checkpoint`, `--steal` and `--help`), so the
//! only figure-specific pieces left here are the `--help` text and the
//! steal-mode worker-identity stamping. Invalid invocations produce a
//! typed [`CliError`] — the binaries print it to stderr and exit with
//! status 1 instead of silently ignoring unknown flags (the
//! degradation contract in DESIGN.md: bad configuration is an error,
//! not a guess).

pub use lrd_cli::{CliError, CommonArgs, ShardSpec};

/// How a figure binary should run — the workspace-shared flag set.
pub type RunConfig = lrd_cli::CommonArgs;

/// Parses an argument list (without the program name).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<RunConfig, CliError> {
    CommonArgs::parse_with(args, |arg, _args| match arg {
        "--help" | "-h" => {
            println!("{FIGURE_USAGE}");
            std::process::exit(0);
        }
        _ => Ok(false),
    })
}

const FIGURE_USAGE: &str = "usage: <figure binary> [--quick] [--threads <n>] \
     [--shard <i/n> --checkpoint <path>] \
     [--steal <endpoint> --checkpoint <path>] \
     [--telemetry <path.jsonl>] [--telemetry-summary[=<path>]]\n\
     \n\
     --quick              reduced grids (seconds instead of minutes)\n\
     --threads <n>        size the worker pool (default: LRD_THREADS\n\
     \u{20}                    env var, else detected parallelism;\n\
     \u{20}                    1 = serial, bit-for-bit reproducible)\n\
     --shard <i/n>        solve only shard i of an n-way round-robin\n\
     \u{20}                    split of the sweep lattice (sweep\n\
     \u{20}                    figures only; requires --checkpoint)\n\
     --checkpoint <path>  stream completed points to <path> (JSONL)\n\
     \u{20}                    and resume from it if it exists; merge\n\
     \u{20}                    shards with the sweep_merge binary\n\
     --steal <endpoint>   run as a work-stealing worker against the\n\
     \u{20}                    sweep_coord coordinator at host:port or\n\
     \u{20}                    unix:<path> (sweep figures only; requires\n\
     \u{20}                    --checkpoint, excludes --shard)\n\
     --telemetry <path>   write structured JSONL telemetry (solver\n\
     \u{20}                    spans, per-iteration gaps, refinements,\n\
     \u{20}                    metrics) to <path>\n\
     --telemetry-summary[=<path>]\n\
     \u{20}                    print an aggregated timing/metrics table\n\
     \u{20}                    to stderr (or write it to <path>) on exit\n\
     --help               this message\n\
     \n\
     Output: CSV on stdout, progress on stderr, results\n\
     file under results/.";

/// Parses `std::env::args()`, printing a typed error and exiting with
/// status 1 on an invalid command line — the shared entry point of all
/// figure binaries. A `--threads` request is applied to the global
/// worker pool here, before any solver work can touch it; in steal
/// mode the worker identity the coordinator will see (adopted from the
/// checkpoint) is stamped on the configuration so the JSONL telemetry
/// sink records under the same name — `sweep_trace` joins the two
/// ledgers by it.
pub fn run_config() -> RunConfig {
    match parse(std::env::args().skip(1)) {
        Ok(mut config) => {
            config.apply_threads();
            if config.steal.is_some() {
                if let Some(checkpoint) = &config.checkpoint {
                    config.identity = Some(crate::sweep::coord::worker_identity(checkpoint));
                }
            }
            config
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn figure_parse_is_the_shared_surface() {
        let config = parse(strings(&[
            "--quick",
            "--threads",
            "2",
            "--shard",
            "0/2",
            "--checkpoint",
            "ck.jsonl",
        ]))
        .unwrap();
        assert!(config.quick);
        assert_eq!(config.threads, Some(2));
        assert_eq!(config.shard, ShardSpec::new(0, 2));
        assert_eq!(
            config.checkpoint,
            Some(std::path::PathBuf::from("ck.jsonl"))
        );
        assert_eq!(
            parse(strings(&["--bogus"])),
            Err(CliError::UnknownArgument("--bogus".to_string()))
        );
    }
}
