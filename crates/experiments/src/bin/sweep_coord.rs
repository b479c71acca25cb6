//! The work-stealing sweep coordinator.
//!
//! ```text
//! sweep_coord --figure fig04_mtv_model [--quick] \
//!     [--listen 127.0.0.1:7077 | --listen unix:/tmp/coord.sock] \
//!     [--lease-log coord.jsonl] [--batch-points <n>] \
//!     [--heartbeat-ms <n>] [--lease-ttl-ms <n>] \
//!     [--telemetry <path>] [--telemetry-summary[=<path>]]
//! ```
//!
//! Rebuilds the named figure's sweep plan from the registry, slices it
//! into uniform contiguous point batches, and serves them to `--steal`
//! workers under the lease/heartbeat protocol (DESIGN.md §12). The resolved
//! endpoint is printed to stdout as `listening <endpoint>` so
//! orchestrators can pass `--listen 127.0.0.1:0` and read the port.
//!
//! With `--lease-log`, every grant/reclaim/completion is journaled:
//! kill this process at any instant and rerun the same command line —
//! it resumes the log, completed batches stay completed, and live
//! workers keep their leases across the restart.
//!
//! The shared flags (`--quick`, `--telemetry`,
//! `--telemetry-summary[=<path>]`) come from [`lrd_cli::CommonArgs`];
//! only the coordinator-specific flags are parsed here.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use lrd_cli::{require_value, CommonArgs};
use lrd_experiments::figures::Profile;
use lrd_experiments::run::FigureKind;
use lrd_experiments::sweep::coord::{CoordOptions, CoordServer, Endpoint, LeaseConfig};
use lrd_experiments::Corpus;

struct Args {
    figure: String,
    listen: Endpoint,
    lease_log: Option<PathBuf>,
    batch_points: Option<usize>,
    config: LeaseConfig,
    common: CommonArgs,
}

fn parse_args() -> Result<Args, String> {
    let mut figure = None;
    let mut listen = Endpoint::Tcp("127.0.0.1:0".to_string());
    let mut lease_log = None;
    let mut batch_points = None;
    let mut config = LeaseConfig::default();

    let positive = |flag: &str, v: &str| -> Result<u64, String> {
        v.parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{flag} requires a positive integer, got `{v}`"))
    };
    let common = CommonArgs::parse_with(std::env::args().skip(1), |arg, args| {
        match arg {
            "--help" | "-h" => {
                println!(
                    "usage: sweep_coord --figure <name> [--quick] [--listen <endpoint>]\n\
                     \u{20}        [--lease-log <path>] [--batch-points <n>]\n\
                     \u{20}        [--heartbeat-ms <n>] [--lease-ttl-ms <n>]\n\
                     \u{20}        [--telemetry <path>] [--telemetry-summary[=<path>]]\n\
                     \n\
                     Serves the figure's sweep lattice to --steal workers as leased\n\
                     point batches. Prints `listening <endpoint>` on stdout, then\n\
                     runs until the sweep drains. With --lease-log the lease table\n\
                     survives a kill: rerun the same command to resume."
                );
                std::process::exit(0);
            }
            "--figure" => figure = Some(require_value("--figure", args)?),
            "--listen" => {
                let v = require_value("--listen", args)?;
                listen = Endpoint::parse(&lrd_cli::parse_endpoint(&v)?)
                    .expect("parse_endpoint validated the grammar");
            }
            "--lease-log" => {
                lease_log = Some(PathBuf::from(require_value("--lease-log", args)?));
            }
            "--batch-points" => {
                let v = require_value("--batch-points", args)?;
                batch_points = Some(positive("--batch-points", &v).map_err(invalid)? as usize);
            }
            "--heartbeat-ms" => {
                let v = require_value("--heartbeat-ms", args)?;
                config.heartbeat_ms = positive("--heartbeat-ms", &v).map_err(invalid)?;
            }
            "--lease-ttl-ms" => {
                let v = require_value("--lease-ttl-ms", args)?;
                config.lease_ttl_ms = positive("--lease-ttl-ms", &v).map_err(invalid)?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(|e| e.to_string())?;

    // Worker-side flags are part of the shared surface but make no
    // sense on the coordinator: reject instead of silently ignoring.
    for (set, flag) in [
        (common.shard.is_some(), "--shard"),
        (common.checkpoint.is_some(), "--checkpoint"),
        (common.steal.is_some(), "--steal"),
    ] {
        if set {
            return Err(format!("{flag} is a worker flag; sweep_coord does not accept it"));
        }
    }

    Ok(Args {
        figure: figure.ok_or("--figure <name> is required")?,
        listen,
        lease_log,
        batch_points,
        config,
        common,
    })
}

/// Adapts a free-form validation message to the extension hook's
/// [`lrd_cli::CliError`] by reusing the unknown-argument shape (the
/// message already names the flag and value).
fn invalid(message: String) -> lrd_cli::CliError {
    lrd_cli::CliError::UnknownArgument(message)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let _telemetry = args.common.install_telemetry().map_err(|e| e.to_string())?;

    let spec = lrd_experiments::find_figure(&args.figure)
        .ok_or_else(|| format!("unknown figure `{}`", args.figure))?;
    let FigureKind::Sweep { build, .. } = &spec.kind else {
        return Err(format!("{} is not a sweep figure", spec.name));
    };
    let quick = args.common.quick;
    let profile = if quick { Profile::Quick } else { Profile::Full };
    let corpus = if quick { Corpus::quick() } else { Corpus::full() };
    let plan = build(&corpus, profile).plan;

    let options = CoordOptions {
        endpoint: args.listen,
        lease_log: args.lease_log,
        config: args.config,
        batch_points: args
            .batch_points
            .unwrap_or(lrd_experiments::sweep::coord::DEFAULT_BATCH_POINTS),
    };
    let server = CoordServer::start(&plan, options).map_err(|e| e.to_string())?;

    // The one stdout line: orchestrators read the resolved endpoint
    // (e.g. after --listen 127.0.0.1:0) to hand to workers.
    println!("listening {}", server.endpoint());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    eprintln!(
        "sweep_coord: serving {} ({}) — {} points, heartbeat {} ms, lease ttl {} ms",
        spec.name,
        profile.tag(),
        plan.len(),
        args.config.heartbeat_ms,
        args.config.lease_ttl_ms,
    );

    let summary = server.run().map_err(|e| e.to_string())?;
    eprintln!(
        "sweep_coord: {} — {} batch(es), {} point(s), {} grant(s), {} reclaim(s)",
        if summary.drained { "sweep drained" } else { "stopped early" },
        summary.batches,
        summary.points,
        summary.grants,
        summary.reclaims,
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
