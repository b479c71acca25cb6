//! End-to-end tests of the `lrd-cli` binary via its public interface
//! (spawned as a subprocess, as a user would run it).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lrd-cli"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn lrd-cli");
    assert!(
        out.status.success(),
        "lrd-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn solve_prints_bounds() {
    let out = run_ok(&[
        "solve",
        "--rates", "2,14",
        "--probs", "0.5,0.5",
        "--hurst", "0.8",
        "--theta", "0.05",
        "--cutoff", "1.0",
        "--utilization", "0.8",
        "--buffer-seconds", "0.2",
    ]);
    assert!(out.contains("loss lower"), "{out}");
    assert!(out.contains("loss upper"), "{out}");
    assert!(out.contains("converged    : true"), "{out}");
    // The known result for this configuration is ~8e-2.
    assert!(out.contains("loss midpoint: 7.9"), "{out}");
}

#[test]
fn solve_accepts_infinite_cutoff() {
    let out = run_ok(&[
        "solve",
        "--rates", "2,14",
        "--probs", "0.5,0.5",
        "--alpha", "1.4",
        "--theta", "0.05",
        "--cutoff", "inf",
        "--service", "10",
        "--buffer-mb", "2",
    ]);
    assert!(out.contains("utilization  : 0.8"), "{out}");
}

#[test]
fn horizon_matches_library() {
    let out = run_ok(&[
        "horizon",
        "--buffer-mb", "10",
        "--mean-interval", "0.08",
        "--sigma-interval", "0.1",
        "--sigma-rate", "2.0",
        "--p", "0.99",
    ]);
    let want = lrd::fluidq::correlation_horizon(10.0, 0.08, 0.1, 2.0, 0.99);
    assert!(
        out.contains(&format!("{want:.6}")),
        "CLI output {out} vs library {want}"
    );
}

#[test]
fn synth_then_hurst_roundtrip() {
    let dir = std::env::temp_dir().join("lrd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mtv.txt");
    let path_str = path.to_str().unwrap();

    run_ok(&["synth", "--kind", "mtv", "--len", "8192", "--seed", "3", "--out", path_str]);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 8192);

    let out = run_ok(&["hurst", "--trace", path_str]);
    assert!(out.contains("samples      : 8192"), "{out}");
    // All five estimators report.
    for name in ["R/S", "variance-time", "GPH", "wavelet", "Whittle"] {
        assert!(out.contains(name), "missing {name} in {out}");
    }

    let sim = run_ok(&[
        "simulate",
        "--trace", path_str,
        "--dt", "0.033",
        "--utilization", "0.8",
        "--buffer-seconds", "0.1",
    ]);
    assert!(sim.contains("loss rate"), "{sim}");
}

#[test]
fn errors_are_reported_not_panicked() {
    let out = cli().args(["solve", "--rates", "2,14"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing required flag"), "{err}");

    let out = cli().args(["nonsense"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Traces the Hurst estimators reject: constant, shorter than every
    // estimator's floor, and long enough for R/S and variance-time (64)
    // but not for GPH, Whittle and wavelet (128).
    let dir = std::env::temp_dir().join(format!("lrd_cli_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, samples, expect) in [
        ("constant", vec![0.1; 4096], "R/S analysis"),
        ("short40", (0..40).map(|i| i as f64).collect::<Vec<_>>(), "at least"),
        ("short100", (0..100).map(|i| (i % 7) as f64).collect(), "at least 128 samples"),
    ] {
        let path = dir.join(format!("{name}.txt"));
        let text: String = samples.iter().map(|v| format!("{v}\n")).collect();
        std::fs::write(&path, text).unwrap();
        let out = cli()
            .args(["hurst", "--trace", path.to_str().unwrap()])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains("error:") && err.contains(expect), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
        assert!(out.stdout.is_empty(), "{name}: nothing is printed before the error");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
