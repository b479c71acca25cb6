//! Live fleet monitor for a work-stealing sweep.
//!
//! ```text
//! sweep_top --coord 127.0.0.1:7077 [--interval-ms 1000] [--once]
//!     [--json] [--straggler-k 4]
//! ```
//!
//! Polls the coordinator's read-only `status` query and renders a
//! refreshing per-worker table: points solved, throughput, last
//! contact, the outstanding lease and its predicted remaining cost
//! (from the live `solve_us` stream the workers report), plus a
//! fleet ETA and a straggler
//! flag for any worker whose throughput falls below the fleet median
//! divided by `--straggler-k`.
//!
//! `--once` prints a single table and exits (CI smoke); `--json`
//! prints the raw status response line instead of the table, for
//! scripting. Status queries are invisible to drain bookkeeping: the
//! coordinator never waits for `sweep_top` before exiting, so the
//! monitor simply reports "coordinator gone" and exits 0 once the
//! sweep drains.

use std::process::ExitCode;
use std::time::Duration;

use lrd_cli::require_value;
use lrd_experiments::sweep::coord::proto::{connect, recv_line, send_line};
use lrd_experiments::sweep::coord::{Endpoint, Request, Response, StatusReport};

struct Args {
    coord: Endpoint,
    interval: Duration,
    once: bool,
    json: bool,
    straggler_k: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut coord = None;
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    let mut json = false;
    let mut straggler_k = 4.0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: sweep_top --coord <endpoint> [--interval-ms <n>] [--once]\n\
                     \u{20}        [--json] [--straggler-k <k>]\n\
                     \n\
                     Polls a sweep_coord status endpoint and renders a per-worker\n\
                     fleet table with throughput, lease predictions and an ETA.\n\
                     --once prints one table and exits; --json prints the raw\n\
                     status response instead."
                );
                std::process::exit(0);
            }
            "--coord" => {
                let v = require_value("--coord", &mut args).map_err(|e| e.to_string())?;
                let v = lrd_cli::parse_endpoint(&v).map_err(|e| e.to_string())?;
                coord = Some(Endpoint::parse(&v).expect("parse_endpoint validated the grammar"));
            }
            "--interval-ms" => {
                let v = require_value("--interval-ms", &mut args).map_err(|e| e.to_string())?;
                let ms = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--interval-ms requires a positive integer, got `{v}`"))?;
                interval = Duration::from_millis(ms);
            }
            "--once" => once = true,
            "--json" => json = true,
            "--straggler-k" => {
                let v = require_value("--straggler-k", &mut args).map_err(|e| e.to_string())?;
                straggler_k = v
                    .parse::<f64>()
                    .ok()
                    .filter(|&k| k.is_finite() && k >= 1.0)
                    .ok_or_else(|| format!("--straggler-k requires a number >= 1, got `{v}`"))?;
            }
            other => return Err(format!("unknown argument `{other}` (see sweep_top --help)")),
        }
    }
    Ok(Args {
        coord: coord.ok_or("--coord <endpoint> is required")?,
        interval,
        once,
        json,
        straggler_k,
    })
}

/// One status round trip. `Ok(None)` means the coordinator is gone
/// (connection refused / reset) — normal once the sweep drains.
fn poll(endpoint: &Endpoint) -> Result<Option<StatusReport>, String> {
    let line = match connect(endpoint).and_then(|mut conn| {
        send_line(conn.as_mut(), &Request::Status.to_line())?;
        recv_line(conn.as_mut())
    }) {
        Ok(line) => line,
        Err(_) => return Ok(None),
    };
    match Response::parse(&line).map_err(|e| e.to_string())? {
        Response::Status(status) => Ok(Some(status)),
        other => Err(format!("unexpected status response {other:?}")),
    }
}

/// The fleet median of the positive per-worker throughputs.
fn median_throughput(status: &StatusReport) -> f64 {
    let mut rates: Vec<f64> = status
        .workers
        .iter()
        .map(|w| w.points_per_sec)
        .filter(|r| *r > 0.0)
        .collect();
    if rates.is_empty() {
        return 0.0;
    }
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite throughputs"));
    rates[rates.len() / 2]
}

fn render(status: &StatusReport, straggler_k: f64) -> String {
    let mut out = String::new();
    let total = status.total_points.max(1);
    let remaining = status.total_points.saturating_sub(status.done_points);
    // Fleet ETA from observed throughput; fall back to the fleet mean
    // solve duration when no worker has reported a rate yet.
    let fleet_rate: f64 = status.workers.iter().map(|w| w.points_per_sec).sum();
    let eta = if remaining == 0 {
        Some(0.0)
    } else if fleet_rate > 0.0 {
        Some(remaining as f64 / fleet_rate * 1e6)
    } else {
        status
            .fleet
            .histogram("sweep.solve_us")
            .map(|h| h.mean())
            .filter(|m| m.is_finite())
            .map(|mean_us| remaining as f64 * mean_us)
    };
    out.push_str(&format!(
        "points {}/{} ({:.1}%)   batches {}/{} done, {} leased   reclaims {}   ETA {}\n",
        status.done_points,
        status.total_points,
        status.done_points as f64 / total as f64 * 100.0,
        status.done,
        status.batches,
        status.leased,
        status.reclaims,
        eta.map_or_else(|| "?".to_string(), lrd_obs::fmt_us),
    ));
    if status.workers.is_empty() {
        out.push_str("(no workers have contacted the coordinator yet)\n");
        return out;
    }
    let median = median_throughput(status);
    let floor = median / straggler_k;
    out.push_str(&format!(
        "{:<22} {:>8} {:>9} {:>11} {:>7} {:>11} {:>8}\n",
        "worker", "points", "pts/s", "last seen", "lease", "remaining", "reports"
    ));
    for w in &status.workers {
        let straggler = median > 0.0 && w.points_per_sec < floor;
        out.push_str(&format!(
            "{:<22} {:>8} {:>9.2} {:>11} {:>7} {:>11} {:>8}{}\n",
            w.worker,
            w.points,
            w.points_per_sec,
            lrd_obs::fmt_us(w.last_seen_us as f64),
            w.lease.map_or_else(|| "-".to_string(), |b| format!("#{b}")),
            if w.lease.is_some() {
                lrd_obs::fmt_us(w.lease_remaining_us)
            } else {
                "-".to_string()
            },
            w.reports,
            if straggler { "   !! straggler" } else { "" },
        ));
    }
    out
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut ever_connected = false;
    loop {
        match poll(&args.coord)? {
            Some(status) => {
                ever_connected = true;
                if args.json {
                    // The raw protocol line, for scripting.
                    println!("{}", Response::Status(status).to_line());
                } else {
                    if !args.once {
                        // Home the cursor and clear: a refreshing view.
                        print!("\x1b[2J\x1b[H");
                    }
                    println!("sweep_top — {}", args.coord);
                    print!("{}", render(&status, args.straggler_k));
                }
                if args.once {
                    return Ok(());
                }
            }
            None if args.once => {
                return Err(format!("coordinator at {} is not answering", args.coord));
            }
            None => {
                if ever_connected {
                    // The sweep drained (or the coordinator was killed)
                    // — either way there is nothing left to watch.
                    println!("sweep_top: coordinator at {} gone; exiting", args.coord);
                    return Ok(());
                }
                // Not up yet: keep probing quietly.
            }
        }
        std::thread::sleep(args.interval);
    }
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
