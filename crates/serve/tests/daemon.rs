//! End-to-end tests of the `lrd-serve` binary: spawn the real daemon,
//! talk the real protocol, kill it with real signals.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use lrd_net::{connect, recv_line, send_line, Endpoint};
use lrd_obs::parse_json;
use lrd_serve::proto::{Request, Response};

/// Spawns the daemon with `extra` flags on a fresh Unix socket and
/// waits for its `listening <endpoint>` line.
fn spawn_daemon(tag: &str, extra: &[&str]) -> (Child, Endpoint, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("lrd-serve-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_lrd-serve"))
        .arg("--listen")
        .arg(format!("unix:{}", socket.display()))
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let line = lines.next().expect("daemon exited early").unwrap();
    let endpoint = line
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected stdout line: {line:?}"))
        .trim();
    (child, Endpoint::parse(endpoint).unwrap(), dir)
}

fn ask(endpoint: &Endpoint, request: &Request) -> Response {
    let mut conn = connect(endpoint).unwrap();
    send_line(conn.as_mut(), &request.to_line()).unwrap();
    Response::parse(&recv_line(conn.as_mut()).unwrap()).unwrap()
}

#[test]
fn protocol_flow_and_session_batch_equivalence_over_the_wire() {
    // Frozen clock + deterministic warmup: the daemon's state is a
    // pure function of the flags, so the assertions are exact.
    let (mut child, endpoint, dir) = spawn_daemon(
        "proto",
        &[
            "--flow",
            "m,family=markov,mean=0.05,low=2.0,high=14.0,service=10.0",
            "--tick-ms",
            "0",
            "--warmup-ticks",
            "256",
            "--window",
            "64",
            "--refresh-every",
            "16",
            "--seed",
            "11",
        ],
    );

    match ask(&endpoint, &Request::Status) {
        Response::Status { tick, flows } => {
            assert_eq!(tick, 256);
            assert_eq!(flows.len(), 1);
            assert_eq!(flows[0].name, "m");
            assert_eq!(flows[0].family, "markov");
            assert_eq!(flows[0].samples, 64);
            assert!(flows[0].warmed, "256 warmup ticks must fill a 64-window");
            assert!(flows[0].hurst.is_some());
        }
        other => panic!("expected status, got {other:?}"),
    }

    // Query the incremental session until it converges, then a batch
    // solve must agree bit for bit — the SolveSession equivalence
    // contract, verified across the wire.
    let query = Request::LossBound {
        flow: "m".to_string(),
        buffer: 1.0,
    };
    let mut bound = None;
    for _ in 0..10_000 {
        match ask(&endpoint, &query) {
            Response::Bound {
                lower,
                upper,
                converged,
                staleness,
                ..
            } => {
                assert_eq!(staleness, 0, "frozen clock must never age the fit");
                if converged {
                    bound = Some((lower, upper));
                    break;
                }
            }
            other => panic!("expected bound, got {other:?}"),
        }
    }
    let (lower, upper) = bound.expect("session never converged");
    match ask(
        &endpoint,
        &Request::Solve {
            flow: "m".to_string(),
            buffer: 1.0,
        },
    ) {
        Response::Bound {
            lower: batch_lower,
            upper: batch_upper,
            converged,
            ..
        } => {
            assert!(converged);
            assert_eq!(lower.to_bits(), batch_lower.to_bits());
            assert_eq!(upper.to_bits(), batch_upper.to_bits());
        }
        other => panic!("expected bound, got {other:?}"),
    }

    match ask(
        &endpoint,
        &Request::Provision {
            flow: "m".to_string(),
            target_loss: 1e-2,
        },
    ) {
        Response::Provision { buffer, upper, .. } => {
            assert!(buffer > 0.0);
            assert!(upper <= 1e-2);
        }
        other => panic!("expected provision, got {other:?}"),
    }

    match ask(
        &endpoint,
        &Request::LossBound {
            flow: "ghost".to_string(),
            buffer: 1.0,
        },
    ) {
        Response::Error { message } => assert!(message.contains("ghost")),
        other => panic!("expected error, got {other:?}"),
    }

    assert!(matches!(ask(&endpoint, &Request::Shutdown), Response::Bye));
    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exited with {status:?}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn sigterm_flushes_telemetry_before_exit() {
    // Regression for the buffered-sink flush bug: a daemon killed by
    // SIGTERM must leave a telemetry file of complete, parseable JSON
    // lines including the drained tick counter — no truncated tail,
    // no silently dropped buffer.
    let dir = std::env::temp_dir().join(format!("lrd-serve-test-{}-sig", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let telemetry = dir.join("telemetry.jsonl");
    let (mut child, endpoint, dir) = spawn_daemon(
        "sigterm",
        &[
            "--flow",
            "m,family=markov,mean=0.05,service=10.0",
            "--tick-ms",
            "1",
            "--window",
            "64",
            "--telemetry",
            telemetry.to_str().unwrap(),
        ],
    );

    // Let it tick, and push at least one query through so both event
    // kinds are in flight when the signal lands.
    std::thread::sleep(Duration::from_millis(300));
    ask(&endpoint, &Request::Status);

    let term = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .unwrap();
    assert!(term.success());
    let status = child.wait().unwrap();
    assert!(status.success(), "SIGTERM must exit cleanly, got {status:?}");
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(
        stderr.contains("lrd-serve: done"),
        "shutdown summary missing from stderr: {stderr:?}"
    );

    let contents = std::fs::read_to_string(&telemetry).unwrap();
    assert!(!contents.is_empty(), "telemetry file is empty");
    let mut saw_ticks = false;
    for line in contents.lines() {
        let doc = parse_json(line)
            .unwrap_or_else(|e| panic!("unparseable telemetry line {line:?}: {e}"));
        if doc.get("name").and_then(lrd_obs::Json::as_str) == Some("serve.ticks") {
            saw_ticks = true;
        }
    }
    assert!(
        saw_ticks,
        "flushed telemetry must include the serve.ticks counter"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn oversized_window_is_a_typed_cli_error_before_binding() {
    // Every flow allocates its window at startup, so an unbounded
    // --window would abort on allocation; the CLI must refuse it with a
    // message and a non-zero exit before the listener binds.
    let dir = std::env::temp_dir().join(format!("lrd-serve-test-{}-window", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let cap = lrd_serve::engine::MAX_WINDOW;
    let output = Command::new(env!("CARGO_BIN_EXE_lrd-serve"))
        .arg("--listen")
        .arg(format!("unix:{}", socket.display()))
        .args(["--flow", "m,family=markov,service=10.0"])
        .args(["--tick-ms", "0", "--window", &(cap + 1).to_string()])
        .output()
        .unwrap();
    assert!(!output.status.success(), "oversized window was accepted");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("--window must be at most {cap}")),
        "missing cap message: {stderr:?}"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.is_empty(), "daemon printed {stdout:?}");
    assert!(!socket.exists(), "daemon bound its socket");
    std::fs::remove_dir_all(dir).ok();
}
