//! `lrd-cli` — command-line front end for the loss solver, the trace
//! toolkit and the Hurst estimators.
//!
//! ```text
//! lrd-cli solve    --rates 2,14 --probs 0.5,0.5 --hurst 0.8 --theta 0.05 \
//!                  --cutoff 1.0 --utilization 0.8 --buffer-seconds 0.2
//! lrd-cli horizon  --buffer-mb 10 --mean-interval 0.08 --sigma-interval 0.1 \
//!                  --sigma-rate 2.0 --p 0.99
//! lrd-cli synth    --kind mtv --len 16384 --seed 7 --out trace.txt
//! lrd-cli hurst    --trace trace.txt
//! lrd-cli simulate --trace trace.txt --utilization 0.8 --buffer-seconds 0.2 --dt 0.033
//! ```
//!
//! Traces on disk are plain text, one rate per line. Argument parsing
//! is deliberately hand-rolled (`--key value` pairs only) to keep the
//! workspace dependency-free.

use lrd::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Telemetry flags are shared by every subcommand and include a
    // boolean (--telemetry-summary) the `--key value` parser below
    // cannot express, so they are extracted before flag parsing.
    let _telemetry = match extract_telemetry(&mut args) {
        Ok(guard) => guard,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "solve" => cmd_solve(&opts),
        "horizon" => cmd_horizon(&opts),
        "synth" => cmd_synth(&opts),
        "hurst" => cmd_hurst(&opts),
        "simulate" => cmd_simulate(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
lrd-cli — finite-buffer loss bounds for long-range-dependent traffic

USAGE:
  lrd-cli solve    --rates R1,R2,.. --probs P1,P2,.. (--hurst H | --alpha A)
                   --theta S [--cutoff S|inf] (--utilization R | --service MBPS)
                   (--buffer-seconds S | --buffer-mb MB)
  lrd-cli horizon  --buffer-mb MB --mean-interval S --sigma-interval S
                   --sigma-rate MBPS [--p P]
  lrd-cli synth    --kind mtv|bellcore --len N [--seed N] [--out FILE]
  lrd-cli hurst    --trace FILE
  lrd-cli simulate --trace FILE --dt S (--utilization R | --service MBPS)
                   (--buffer-seconds S | --buffer-mb MB)

Every command also accepts --telemetry FILE (structured JSONL
telemetry) and --telemetry-summary (aggregated table on stderr).

Traces are text files with one rate (Mb/s) per line.";

/// Pulls `--telemetry <path>` / `--telemetry=path` /
/// `--telemetry-summary` out of `args` and installs the corresponding
/// sinks, returning the guard that keeps them alive for the run.
fn extract_telemetry(args: &mut Vec<String>) -> Result<lrd::obs::InstallGuard, String> {
    let mut sinks: Vec<std::sync::Arc<dyn lrd::obs::Subscriber>> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--telemetry" => {
                if i + 1 >= args.len() {
                    return Err("flag --telemetry needs a value".into());
                }
                let path = args.remove(i + 1);
                args.remove(i);
                let sub = lrd::obs::JsonlSubscriber::create(path.as_ref())
                    .map_err(|e| format!("cannot open telemetry file {path}: {e}"))?;
                sinks.push(std::sync::Arc::new(sub));
            }
            "--telemetry-summary" => {
                args.remove(i);
                sinks.push(std::sync::Arc::new(lrd::obs::SummarySubscriber::stderr()));
            }
            other if other.starts_with("--telemetry=") => {
                let path = other["--telemetry=".len()..].to_string();
                args.remove(i);
                if path.is_empty() {
                    return Err("flag --telemetry needs a value".into());
                }
                let sub = lrd::obs::JsonlSubscriber::create(path.as_ref())
                    .map_err(|e| format!("cannot open telemetry file {path}: {e}"))?;
                sinks.push(std::sync::Arc::new(sub));
            }
            _ => i += 1,
        }
    }
    Ok(lrd::obs::install_fanout(sinks))
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{key}'"));
        };
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} needs a value"));
        };
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn req<'a>(opts: &'a Flags, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parse_f64(s: &str, what: &str) -> Result<f64, String> {
    if s == "inf" || s == "infinity" {
        return Ok(f64::INFINITY);
    }
    s.parse::<f64>()
        .map_err(|_| format!("could not parse {what} '{s}' as a number"))
}

fn parse_list(s: &str, what: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|x| parse_f64(x.trim(), what))
        .collect()
}

fn build_marginal(opts: &Flags) -> Result<Marginal, String> {
    let rates = parse_list(req(opts, "rates")?, "rate")?;
    let probs = parse_list(req(opts, "probs")?, "probability")?;
    if rates.len() != probs.len() {
        return Err("--rates and --probs must have the same length".into());
    }
    Marginal::try_new(&rates, &probs).map_err(|e| e.to_string())
}

fn build_intervals(opts: &Flags) -> Result<TruncatedPareto, String> {
    let theta = parse_f64(req(opts, "theta")?, "theta")?;
    let cutoff = match opts.get("cutoff") {
        Some(s) => parse_f64(s, "cutoff")?,
        None => f64::INFINITY,
    };
    match (opts.get("hurst"), opts.get("alpha")) {
        (Some(h), None) => {
            TruncatedPareto::try_from_hurst(parse_f64(h, "hurst")?, theta, cutoff)
                .map_err(|e| e.to_string())
        }
        (None, Some(a)) => TruncatedPareto::try_new(theta, parse_f64(a, "alpha")?, cutoff)
            .map_err(|e| e.to_string()),
        _ => Err("provide exactly one of --hurst or --alpha".into()),
    }
}

fn service_rate(opts: &Flags, marginal: &Marginal) -> Result<f64, String> {
    match (opts.get("utilization"), opts.get("service")) {
        (Some(u), None) => {
            let u = parse_f64(u, "utilization")?;
            if !(u > 0.0 && u <= 1.0) {
                return Err(format!("utilization must be in (0, 1], got {u}"));
            }
            if marginal.mean() <= 0.0 {
                return Err("mean rate must be positive to set a utilization".into());
            }
            Ok(marginal.service_rate_for_utilization(u))
        }
        (None, Some(c)) => parse_f64(c, "service rate"),
        _ => Err("provide exactly one of --utilization or --service".into()),
    }
}

fn buffer_mb(opts: &Flags, service: f64) -> Result<f64, String> {
    match (opts.get("buffer-seconds"), opts.get("buffer-mb")) {
        (Some(s), None) => Ok(service * parse_f64(s, "buffer seconds")?),
        (None, Some(mb)) => parse_f64(mb, "buffer Mb"),
        _ => Err("provide exactly one of --buffer-seconds or --buffer-mb".into()),
    }
}

fn cmd_solve(opts: &Flags) -> Result<(), String> {
    let marginal = build_marginal(opts)?;
    let intervals = build_intervals(opts)?;
    let c = service_rate(opts, &marginal)?;
    let b = buffer_mb(opts, c)?;
    let model = QueueModel::try_new(marginal, intervals, c, b).map_err(|e| e.to_string())?;
    let sol = SolveSession::builder(&model)
        .options(&SolverOptions::default())
        .solve();
    println!("service rate : {c:.4} Mb/s");
    println!("buffer       : {b:.4} Mb ({:.4} s)", model.normalized_buffer());
    println!("utilization  : {:.4}", model.utilization());
    println!("loss lower   : {:.6e}", sol.lower);
    println!("loss upper   : {:.6e}", sol.upper);
    println!("loss midpoint: {:.6e}", sol.loss());
    println!("iterations   : {} (grid M = {})", sol.iterations, sol.bins);
    println!("converged    : {}", sol.converged);
    Ok(())
}

fn cmd_horizon(opts: &Flags) -> Result<(), String> {
    let b = parse_f64(req(opts, "buffer-mb")?, "buffer")?;
    let mu = parse_f64(req(opts, "mean-interval")?, "mean interval")?;
    let st = parse_f64(req(opts, "sigma-interval")?, "interval sigma")?;
    let sl = parse_f64(req(opts, "sigma-rate")?, "rate sigma")?;
    let p = match opts.get("p") {
        Some(s) => parse_f64(s, "p")?,
        None => 0.99,
    };
    let t = correlation_horizon(b, mu, st, sl, p);
    println!("T_CH = {t:.6} s  (Eq. 26 with p = {p})");
    Ok(())
}

fn cmd_synth(opts: &Flags) -> Result<(), String> {
    let len: usize = req(opts, "len")?
        .parse()
        .map_err(|_| "could not parse --len".to_string())?;
    let seed: u64 = match opts.get("seed") {
        Some(s) => s.parse().map_err(|_| "could not parse --seed".to_string())?,
        None => synth::DEFAULT_SEED,
    };
    let trace = match req(opts, "kind")? {
        "mtv" => synth::mtv_like_with_len(seed, len),
        "bellcore" => synth::bellcore_like_with_len(seed, len),
        other => return Err(format!("unknown trace kind '{other}' (mtv|bellcore)")),
    };
    let mut body = String::with_capacity(len * 10);
    for &r in trace.rates() {
        body.push_str(&format!("{r:.6}\n"));
    }
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {len} samples (dt = {} s, mean {:.3} Mb/s) to {path}",
                trace.dt(),
                trace.mean_rate()
            );
        }
        None => print!("{body}"),
    }
    Ok(())
}

fn read_trace(opts: &Flags) -> Result<Vec<f64>, String> {
    let path = req(opts, "trace")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut rates = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        rates.push(parse_f64(line, &format!("line {}", i + 1))?);
    }
    if rates.is_empty() {
        return Err("trace file contains no samples".into());
    }
    Ok(rates)
}

fn cmd_hurst(opts: &Flags) -> Result<(), String> {
    use lrd::stats::{
        try_gph_estimate, try_rs_estimate, try_variance_time_estimate, try_wavelet_estimate,
        try_whittle_estimate, EstimatorError, HurstEstimate,
    };
    let rates = read_trace(opts)?;
    let h = |estimate: Result<HurstEstimate, EstimatorError>| {
        estimate.map(|e| e.h).map_err(|e| e.to_string())
    };
    // Every estimator runs before anything is printed, so a trace one
    // of them rejects (too short, constant) yields only the error.
    let estimates = [
        ("R/S          ", h(try_rs_estimate(&rates))?),
        ("variance-time", h(try_variance_time_estimate(&rates))?),
        ("GPH          ", h(try_gph_estimate(&rates))?),
        ("wavelet      ", h(try_wavelet_estimate(&rates))?),
        ("Whittle      ", h(try_whittle_estimate(&rates))?),
    ];
    println!("samples      : {}", rates.len());
    println!("mean         : {:.4}", lrd::stats::mean(&rates));
    println!("sigma        : {:.4}", lrd::stats::std_dev(&rates));
    for (label, h) in estimates {
        println!("{label}: H = {h:.3}");
    }
    Ok(())
}

fn cmd_simulate(opts: &Flags) -> Result<(), String> {
    let rates = read_trace(opts)?;
    let dt = parse_f64(req(opts, "dt")?, "dt")?;
    let trace = Trace::try_new(dt, rates).map_err(|e| e.to_string())?;
    let marginal = trace.marginal(50);
    let c = service_rate(opts, &marginal)?;
    let b = buffer_mb(opts, c)?;
    let rep = try_simulate_trace(&trace, c, b).map_err(|e| e.to_string())?;
    println!("duration     : {:.2} s ({} samples)", trace.duration(), trace.len());
    println!("service rate : {c:.4} Mb/s (utilization {:.3})", trace.mean_rate() / c);
    println!("buffer       : {b:.4} Mb ({:.4} s)", b / c);
    println!("loss rate    : {:.6e}", rep.loss_rate);
    println!("mean queue   : {:.4} Mb", rep.mean_occupancy);
    println!(
        "resets       : {} empty, {} full",
        rep.empty_resets, rep.full_resets
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--a", "1", "--b", "x"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f["a"], "1");
        assert_eq!(f["b"], "x");
        assert!(parse_flags(&["--a".to_string()]).is_err());
        assert!(parse_flags(&["a".to_string(), "1".to_string()]).is_err());
    }

    #[test]
    fn numeric_parsing() {
        assert_eq!(parse_f64("inf", "x").unwrap(), f64::INFINITY);
        assert_eq!(parse_f64("2.5", "x").unwrap(), 2.5);
        assert!(parse_f64("abc", "x").is_err());
        assert_eq!(parse_list("1, 2,3", "x").unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn model_construction_from_flags() {
        let f = flags(&[
            ("rates", "2,14"),
            ("probs", "0.5,0.5"),
            ("hurst", "0.8"),
            ("theta", "0.05"),
            ("cutoff", "1.0"),
            ("utilization", "0.8"),
            ("buffer-seconds", "0.2"),
        ]);
        let m = build_marginal(&f).unwrap();
        assert_eq!(m.mean(), 8.0);
        let iv = build_intervals(&f).unwrap();
        assert!((iv.hurst() - 0.8).abs() < 1e-12);
        let c = service_rate(&f, &m).unwrap();
        assert!((c - 10.0).abs() < 1e-12);
        assert!((buffer_mb(&f, c).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_model_parameters_become_errors_not_panics() {
        let f = flags(&[("theta", "-1"), ("alpha", "1.4")]);
        assert!(build_intervals(&f).unwrap_err().contains("theta"));
        let f = flags(&[("theta", "0.05"), ("alpha", "2.5")]);
        assert!(build_intervals(&f).unwrap_err().contains("alpha"));
        let f = flags(&[("rates", "2,14"), ("probs", "-0.5,0.5")]);
        assert!(build_marginal(&f).is_err());
        let m = Marginal::new(&[2.0, 14.0], &[0.5, 0.5]);
        let f = flags(&[("utilization", "1.5")]);
        assert!(service_rate(&f, &m).unwrap_err().contains("utilization"));
    }

    #[test]
    fn conflicting_flags_rejected() {
        let f = flags(&[("hurst", "0.8"), ("alpha", "1.4"), ("theta", "0.05")]);
        assert!(build_intervals(&f).is_err());
        let f2 = flags(&[("theta", "0.05")]);
        assert!(build_intervals(&f2).is_err());
    }
}
