//! Validates a `--telemetry` JSONL capture: every line must parse with
//! the in-tree JSON parser, and a capture that covers a full solve must
//! contain the solver's span / gap / refine / mass-drift records.
//!
//! With `--figure <name>` (and optionally `--profile quick|full`,
//! default `quick`) the check also enforces that figure's **telemetry
//! budget** from the registry: the capture must contain *exactly* the
//! number of `solver.solve` spans the figure is specified to produce —
//! a regression gate against both silently duplicated solves (a sweep
//! accidentally re-solving points) and silently skipped ones (a
//! checkpoint resume eating work it should have redone). The budgets
//! are warm-aware: spans carrying `warm: true` (lattice warm starts)
//! are counted against the plan's donor-bearing point ceiling for the
//! requested profile, and a violation is reported through the
//! registry's typed [`lrd_experiments::run::BudgetError`], which names
//! the offending figure.
//!
//! Every capture is also rendered as a Chrome trace
//! ([`lrd::obs::chrome_trace`]) and parsed back: the timeline must be
//! valid JSON holding exactly one complete slice per `span` record.
//!
//! Used by `scripts/ci.sh` as the telemetry smoke check:
//!
//! ```sh
//! cargo run --release -p lrd-experiments --bin fig02_bounds -- --quick --telemetry /tmp/t.jsonl
//! cargo run --release --example telemetry_check -- /tmp/t.jsonl --figure fig02_bounds
//! ```
//!
//! Exits non-zero (with one line per violated requirement) when the
//! capture is malformed or incomplete.

use lrd::obs::{chrome_trace, parse_json, Json};
use lrd_experiments::figures::Profile;
use std::process::ExitCode;

struct Args {
    path: String,
    figure: Option<String>,
    profile: Profile,
}

fn parse_args() -> Option<Args> {
    let mut path = None;
    let mut figure = None;
    let mut profile = Profile::Quick;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--figure" => figure = Some(args.next()?),
            "--profile" => profile = Profile::from_tag(&args.next()?)?,
            other if other.starts_with('-') || path.is_some() => return None,
            other => path = Some(other.to_string()),
        }
    }
    Some(Args {
        path: path?,
        figure,
        profile,
    })
}

/// Renders the capture as a Chrome trace, parses it back and counts its
/// complete slices: one per `span` record, or an error naming the gap.
fn check_trace(records: &[Json], spans: usize) -> Result<usize, String> {
    let trace = parse_json(&chrome_trace(records))
        .map_err(|e| format!("the rendered Chrome trace is not valid JSON: {e}"))?;
    let slices = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("the rendered Chrome trace has no traceEvents array")?
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .count();
    if slices != spans {
        return Err(format!(
            "the rendered Chrome trace has {slices} complete slice(s) for {spans} span record(s)"
        ));
    }
    Ok(slices)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        eprintln!("usage: telemetry_check <capture.jsonl> [--figure <name>] [--profile quick|full]");
        return ExitCode::FAILURE;
    };
    let path = &args.path;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("telemetry_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_json(line) {
            Ok(json) => records.push(json),
            Err(e) => {
                eprintln!("telemetry_check: line {} is not valid JSON: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        }
    }

    let count = |kind: &str, name: &str| {
        records
            .iter()
            .filter(|j| {
                j.get("kind").and_then(Json::as_str) == Some(kind)
                    && j.get("name").and_then(Json::as_str) == Some(name)
            })
            .count()
    };

    // Without --figure the capture must cover at least one full solve;
    // with --figure, the registry decides whether solves are expected
    // at all (some figures are pure statistics and must record none).
    let spec = match &args.figure {
        None => None,
        Some(name) => match lrd_experiments::find_figure(name) {
            Some(spec) => Some(spec),
            None => {
                eprintln!("telemetry_check: unknown figure `{name}`");
                return ExitCode::FAILURE;
            }
        },
    };
    let budget = spec.map(|s| s.expected_solves(args.profile));
    let expects_solves = budget.is_none_or(|n| n > 0);

    let requirements = [
        ("span", "solver.solve", "the solve's root span"),
        ("event", "solver.gap", "per-iteration bound samples"),
        ("gauge", "solver.mass_drift", "the final conservation check"),
        ("counter", "solver.iterations", "the flushed iteration total"),
    ];
    let mut ok = true;
    if expects_solves {
        for (kind, name, why) in requirements {
            if count(kind, name) == 0 {
                eprintln!("telemetry_check: no {kind} named {name:?} ({why})");
                ok = false;
            }
        }
    }
    // Whether a solve refines depends on its parameters, so a
    // refinement record is only demanded in legacy mode, where the
    // capture is by convention one that covers the full protocol.
    if args.figure.is_none() && count("event", "solver.refine") == 0 {
        eprintln!("telemetry_check: no event named \"solver.refine\" (a grid-refinement record)");
        ok = false;
    }
    // Budget check via the registry's typed error: the solve-span
    // total must match exactly, and no more spans may carry
    // `warm: true` than the figure's plan has donor-bearing points —
    // warm-started solves are profile-aware (quick and full lattices
    // have different donor counts), and a cold capture (shard, resume,
    // forced-cold run) is always within budget.
    let warm_solves = records
        .iter()
        .filter(|j| {
            j.get("kind").and_then(Json::as_str) == Some("span")
                && j.get("name").and_then(Json::as_str) == Some("solver.solve")
                && j.get("fields")
                    .and_then(|f| f.get("warm"))
                    .and_then(Json::as_bool)
                    == Some(true)
        })
        .count() as u64;
    if let Some(spec) = spec {
        let found = count("span", "solver.solve") as u64;
        if let Err(e) = spec.check_solve_budget(args.profile, found, warm_solves) {
            eprintln!("telemetry_check: {e}");
            ok = false;
        }
    }
    let spans = records
        .iter()
        .filter(|j| j.get("kind").and_then(Json::as_str) == Some("span"))
        .count();
    let slices = check_trace(&records, spans).unwrap_or_else(|e| {
        eprintln!("telemetry_check: {e}");
        ok = false;
        0
    });
    if !ok {
        return ExitCode::FAILURE;
    }
    println!(
        "telemetry_check: {} lines ok ({} solve span(s), {} gap event(s), \
         {} refine event(s); Chrome trace has {slices} slice(s)){}",
        records.len(),
        count("span", "solver.solve"),
        count("event", "solver.gap"),
        count("event", "solver.refine"),
        match (&args.figure, budget) {
            (Some(name), Some(expected)) => format!(
                "; {name} {} budget {expected} met ({warm_solves} warm)",
                args.profile.tag()
            ),
            _ => String::new(),
        },
    );
    ExitCode::SUCCESS
}
