//! The benchmark command:
//!
//! ```text
//! lrdbench --workload <lattice_sweep|hard_corner|trace_ingest|serve_mix>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, checks its outputs, prints a table of its metrics
//! and, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when an
//! output check fails and 2 on bad arguments or a run that could not
//! measure.

use std::process::ExitCode;
use std::time::Duration;

use lrdbench::report::{self, Verdict};
use lrdbench::{corner, ingest, lattice, serve, Ctx, Outcome, SOLVER_THREADS};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["lattice_sweep", "hard_corner", "trace_ingest", "serve_mix"];

/// A run that has not finished by now is abandoned (the contract allows
/// 180 s).
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        daemon: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--daemon" => args.daemon = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.daemon.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.daemon.is_none() && args.seconds == 0.0 {
        return Err("--seconds is required".to_string());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(Outcome, Ctx), String> {
    // Pin the pool before anything builds it: the solver workloads get
    // the host's two cores, the serving workload's replay engine the
    // daemon's one thread; ingestion does not use the pool.
    let threads = match args.workload.as_str() {
        "lattice_sweep" | "hard_corner" => SOLVER_THREADS,
        _ => serve::DAEMON_THREADS,
    };
    lrdbench::pinned_pool(threads);
    let ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "lattice_sweep" => lattice::run(&ctx),
        "hard_corner" => corner::run(&ctx),
        "trace_ingest" => ingest::run(&ctx),
        _ => serve::run(&ctx),
    }?;
    Ok((outcome, ctx))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lrdbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(socket) = &args.daemon {
        return match serve::daemon_main(socket, args.trace) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: daemon: {e}");
                ExitCode::from(2)
            }
        };
    }
    // Detached on purpose: it must outlive a hung workload, and the
    // process exits (taking it along) when the run ends.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "error: the run did not finish within {} s",
            WATCHDOG.as_secs()
        );
        std::process::exit(2);
    });

    let (outcome, ctx) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let (table, values) = if args.trace {
        (report::PER_LAYER, outcome.per_layer())
    } else {
        (report::END_TO_END, outcome.end_to_end())
    };
    let values = match values {
        Ok(values) => values,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    let verdict = Verdict {
        correct: outcome.errors.is_empty(),
        attempted: outcome.attempted,
        failed: outcome.failed,
    };

    println!(
        "{} seed {} — {} passes, {} operations ({} failed), checks {}",
        args.workload,
        args.seed,
        outcome.pass_s.len() + outcome.traced_pass_s.len(),
        verdict.attempted,
        verdict.failed,
        if verdict.correct { "passed" } else { "FAILED" }
    );
    let passes: Vec<String> = outcome.pass_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("untraced passes (s): {}", passes.join(" "));
    print!("{}", report::human_table(table, &values));
    if ctx.spans.enabled() {
        println!("benchmark span self time (s):");
        for (name, s) in ctx.spans.self_times() {
            println!("  {name:<28} {s:>16.6}");
        }
        let path = std::path::Path::new(lrdbench::OUT_DIR)
            .join(format!("{}-{}.spans.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.spans.write_jsonl(&path) {
            eprintln!("error: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("spans written to {}", path.display());
    }
    match report::result_line(table, &values, verdict) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if verdict.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
