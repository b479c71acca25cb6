//! The online loss-bound daemon (and its one-shot query client).
//!
//! Daemon mode:
//!
//! ```text
//! lrd-serve --flow mtv,family=pareto --flow bc,family=markov \
//!     [--listen 127.0.0.1:7080 | --listen unix:/tmp/lrd.sock] \
//!     [--tick-ms 10] [--warmup-ticks 0] [--seed 1] \
//!     [--window 1024] [--refresh-every 64] [--max-staleness 512] \
//!     [--query-budget 2048] [--telemetry <path>] \
//!     [--telemetry-summary[=<path>]]
//! ```
//!
//! Drives the declared flows open-loop (one arrival tick per
//! `--tick-ms`; `0` freezes the clock so state is a pure function of
//! `--warmup-ticks` and `--seed`), prints `listening <endpoint>` once
//! bound, and answers JSON-line queries until a `shutdown` request or
//! `SIGTERM`/`SIGINT` — either way flushing telemetry on exit.
//!
//! Client mode sends one request line and prints the response line:
//!
//! ```text
//! lrd-serve --ask 127.0.0.1:7080 --request '{"kind":"status"}'
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use lrd_cli::{require_value, CommonArgs};
use lrd_net::{connect, recv_line, send_line, Endpoint, Listener};
use lrd_serve::engine::{Engine, EngineOptions};
use lrd_serve::flow::FlowSpec;
use lrd_serve::proto::Request;
use lrd_serve::{serve, signal};

struct Args {
    listen: Endpoint,
    flows: Vec<FlowSpec>,
    tick: Option<Duration>,
    warmup_ticks: u64,
    seed: u64,
    opts: EngineOptions,
    ask: Option<(Endpoint, String)>,
    common: CommonArgs,
}

fn parse_args() -> Result<Args, String> {
    let mut listen = Endpoint::Tcp("127.0.0.1:0".to_string());
    let mut flows = Vec::new();
    let mut tick_ms = 10u64;
    let mut warmup_ticks = 0u64;
    let mut seed = 1u64;
    let mut opts = EngineOptions::default();
    let mut ask = None;
    let mut request = None;

    let integer = |flag: &str, v: &str| -> Result<u64, String> {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} requires a non-negative integer, got `{v}`"))
    };
    let positive = |flag: &str, v: &str| -> Result<u64, String> {
        integer(flag, v)?
            .checked_sub(1)
            .map(|n| n + 1)
            .ok_or_else(|| format!("{flag} must be positive"))
    };
    let endpoint = |v: &str| -> Result<Endpoint, lrd_cli::CliError> {
        Ok(Endpoint::parse(&lrd_cli::parse_endpoint(v)?)
            .expect("parse_endpoint validated the grammar"))
    };
    let common = CommonArgs::parse_with(std::env::args().skip(1), |arg, args| {
        match arg {
            "--help" | "-h" => {
                println!(
                    "usage: lrd-serve --flow <name>,family=<pareto|markov|onoff>[,k=v...]...\n\
                     \u{20}        [--listen <endpoint>] [--tick-ms <n>] [--warmup-ticks <n>]\n\
                     \u{20}        [--seed <n>] [--window <n>] [--refresh-every <n>]\n\
                     \u{20}        [--max-staleness <n>] [--query-budget <n>]\n\
                     \u{20}        [--telemetry <path>] [--telemetry-summary[=<path>]]\n\
                     \u{20}  or:  lrd-serve --ask <endpoint> --request <json-line>\n\
                     \n\
                     Serves loss-bound queries over live synthetic flows. Prints\n\
                     `listening <endpoint>` on stdout once bound; answers JSON-line\n\
                     requests (status, loss_bound, solve, provision, shutdown) one\n\
                     per connection. --tick-ms 0 freezes the arrival clock so the\n\
                     daemon's state is exactly --warmup-ticks deterministic ticks."
                );
                std::process::exit(0);
            }
            "--listen" => listen = endpoint(&require_value("--listen", args)?)?,
            "--flow" => {
                let spec = require_value("--flow", args)?;
                flows.push(FlowSpec::parse(&spec).map_err(invalid)?);
            }
            "--tick-ms" => {
                tick_ms = integer("--tick-ms", &require_value("--tick-ms", args)?).map_err(invalid)?
            }
            "--warmup-ticks" => {
                let v = require_value("--warmup-ticks", args)?;
                warmup_ticks = integer("--warmup-ticks", &v).map_err(invalid)?;
            }
            "--seed" => seed = integer("--seed", &require_value("--seed", args)?).map_err(invalid)?,
            "--window" => {
                let v = require_value("--window", args)?;
                opts.window = positive("--window", &v).map_err(invalid)? as usize;
            }
            "--refresh-every" => {
                let v = require_value("--refresh-every", args)?;
                opts.refresh_every = positive("--refresh-every", &v).map_err(invalid)? as usize;
            }
            "--max-staleness" => {
                let v = require_value("--max-staleness", args)?;
                opts.max_staleness = integer("--max-staleness", &v).map_err(invalid)?;
            }
            "--query-budget" => {
                let v = require_value("--query-budget", args)?;
                opts.query_budget = positive("--query-budget", &v).map_err(invalid)? as usize;
            }
            "--ask" => ask = Some(endpoint(&require_value("--ask", args)?)?),
            "--request" => request = Some(require_value("--request", args)?),
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(|e| e.to_string())?;

    // The shared worker/sweep flags make no sense on a daemon: reject
    // instead of silently ignoring.
    for (set, flag) in [
        (common.quick, "--quick"),
        (common.shard.is_some(), "--shard"),
        (common.checkpoint.is_some(), "--checkpoint"),
        (common.steal.is_some(), "--steal"),
    ] {
        if set {
            return Err(format!("{flag} is a sweep flag; lrd-serve does not accept it"));
        }
    }

    let ask = match (ask, request) {
        (Some(endpoint), Some(request)) => Some((endpoint, request)),
        (None, None) => None,
        _ => return Err("--ask and --request go together".to_string()),
    };
    if ask.is_none() && flows.is_empty() {
        return Err("at least one --flow is required (or use --ask)".to_string());
    }
    Ok(Args {
        listen,
        flows,
        tick: (tick_ms > 0).then(|| Duration::from_millis(tick_ms)),
        warmup_ticks,
        seed,
        opts,
        ask,
        common,
    })
}

/// Adapts a free-form validation message to the extension hook's
/// [`lrd_cli::CliError`] by reusing the unknown-argument shape (the
/// message already names the flag and value).
fn invalid(message: String) -> lrd_cli::CliError {
    lrd_cli::CliError::UnknownArgument(message)
}

/// Client mode: one request line out, one response line printed.
fn ask(endpoint: &Endpoint, request: &str) -> Result<(), String> {
    // Parse locally first so typos fail with a useful message instead
    // of a round trip.
    Request::parse(request)?;
    let mut conn = connect(endpoint).map_err(|e| format!("connect {endpoint}: {e}"))?;
    send_line(conn.as_mut(), request).map_err(|e| e.to_string())?;
    let response = recv_line(conn.as_mut()).map_err(|e| e.to_string())?;
    println!("{response}");
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some((endpoint, request)) = &args.ask {
        return ask(endpoint, request);
    }
    let _telemetry = args.common.install_telemetry().map_err(|e| e.to_string())?;
    signal::install();

    let flow_count = args.flows.len();
    let mut engine = Engine::new(args.opts, args.flows, args.seed);
    for _ in 0..args.warmup_ticks {
        engine.tick();
    }

    let listener = Listener::bind(&args.listen).map_err(|e| format!("bind {}: {e}", args.listen))?;
    // The one stdout line: orchestrators read the resolved endpoint
    // (e.g. after --listen 127.0.0.1:0) to hand to clients.
    println!("listening {}", listener.local_endpoint());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    eprintln!(
        "lrd-serve: {} flow(s), tick {}, warmed up {} tick(s)",
        flow_count,
        match args.tick {
            Some(t) => format!("{} ms", t.as_millis()),
            None => "frozen".to_string(),
        },
        args.warmup_ticks,
    );

    let stats = serve(&listener, &mut engine, args.tick).map_err(|e| e.to_string())?;
    eprintln!(
        "lrd-serve: done — {} tick(s), {} query(ies)",
        stats.ticks, stats.queries
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
