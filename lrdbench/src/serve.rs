//! `serve_mix`: the `lrd-serve` daemon loop over a Unix socket, in its
//! own process with one pool thread and a frozen arrival clock.
//!
//! * **Set-up** starts the daemon (fixed flows, a fixed warm-up of
//!   arrival ticks, then the clock frozen) and converges every read
//!   key, so the engine state — and every answer — is a function of
//!   the fixed engine seed alone.
//! * **Closed loop** (untraced runs): one client sends a seeded block
//!   of the mix back to back; `wall_s` is the time per block. Most
//!   requests are cached `loss_bound` reads over the fixed keys; every
//!   32nd is a live `solve`, which puts solver work on the query path.
//! * **Open loop** (traced runs): one generator thread sends the mix at
//!   Poisson arrival times, one connection per request, without waiting
//!   for replies, so head-of-line blocking behind solves shows in the
//!   read tail. Latency is measured from each request's due time; the
//!   generator's own lateness is reported. These latencies are
//!   per-layer metrics: on a small shared host their run-to-run spread
//!   is too wide for a regression bound (see `NOTES.md`).
//!
//! Every reply must be free of errors and bit-equal (as its protocol
//! line) to the answer an in-process [`Engine`] in the same state
//! gives to the same request sequence.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lrd_net::{connect, recv_line, send_line, Endpoint, Listener, IO_TIMEOUT};
use lrd_obs::CollectingSubscriber;
use lrd_rng::dist::exponential;
use lrd_rng::rngs::SmallRng;
use lrd_rng::seq::SliceRandom;
use lrd_rng::{gen_index, SeedableRng};
use lrd_serve::{serve, Engine, EngineOptions, FlowSpec, Request, Response};

use crate::report::{layer_percentile, mean};
use crate::spans::Spans;
use crate::tally::Tally;
use crate::{pin_to_cpu, secs, solver_layers, Ctx, Outcome, SETUP_REPEATS};

/// The daemon's flows (the service smoke's pair).
pub const FLOWS: [&str; 2] = [
    "mtv,family=pareto,service=10.0",
    "bc,family=markov,mean=0.05,service=10.0",
];

/// Buffers queried on every flow.
pub const BUFFERS: [f64; 6] = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0];

/// Seed of the daemon's synthetic flows (fixed: the workload seed
/// drives the request sequence, not the engine state).
pub const ENGINE_SEED: u64 = 7;

/// Arrival ticks absorbed before the clock freezes.
pub const WARMUP_TICKS: u64 = 2048;

/// Open-loop offered rate (requests/s, Poisson arrivals).
pub const RATE: f64 = 2000.0;

/// One request in this many is a live solve (~3 %).
pub const SOLVE_EVERY: usize = 32;

/// Requests per closed-loop block.
pub const BLOCK: usize = 400;

/// Closed-loop blocks run at the least.
const MIN_BLOCKS: usize = 3;

/// Pool threads inside the daemon.
pub const DAEMON_THREADS: usize = 1;

/// The CPU the daemon process is pinned to; the request generator
/// takes the other one, so neither spinning loop ever waits for the
/// other to be descheduled.
const DAEMON_CPU: usize = 0;

/// The CPU the request generator is pinned to.
const GENERATOR_CPU: usize = 1;

/// The engine in its post-warm-up state, before any query.
pub fn engine() -> Engine {
    let specs = FLOWS
        .iter()
        .map(|s| FlowSpec::parse(s).expect("fixed flow spec"))
        .collect();
    let mut engine = Engine::new(EngineOptions::default(), specs, ENGINE_SEED);
    for _ in 0..WARMUP_TICKS {
        engine.tick();
    }
    engine
}

/// The read keys, one `loss_bound` request each.
pub fn keys() -> Vec<Request> {
    let mut keys = Vec::new();
    for spec in FLOWS {
        let flow = spec.split(',').next().expect("named flow").to_string();
        for buffer in BUFFERS {
            keys.push(Request::LossBound {
                flow: flow.clone(),
                buffer,
            });
        }
    }
    keys
}

/// Brings `ask`'s engine to the benchmark's serving state: every read
/// key converged.
pub fn converge(mut ask: impl FnMut(&Request) -> Result<String, String>) -> Result<(), String> {
    for key in keys() {
        for attempt in 1.. {
            match Response::parse(&ask(&key)?)? {
                Response::Bound {
                    converged: true, ..
                } => break,
                Response::Bound { .. } if attempt < 10_000 => {}
                other => return Err(format!("converging {key:?}: {other:?}")),
            }
        }
    }
    Ok(())
}

/// `n` requests of the mix, drawn from `seed`. The mix itself does not
/// depend on the seed: every [`SOLVE_EVERY`]-th request (from a seeded
/// phase) is a solve, so solves never bunch up, and reads and solves
/// each cycle evenly, in seeded order, over the keys.
pub fn requests(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let keys = keys();
    let phase = gen_index(&mut rng, SOLVE_EVERY);
    let is_solve = |i: usize| i % SOLVE_EVERY == phase;
    let solves = (0..n).filter(|&i| is_solve(i)).count();
    let mut balanced = |count: usize| {
        let mut order: Vec<usize> = (0..count).map(|i| i % keys.len()).collect();
        order.shuffle(&mut rng);
        order.into_iter()
    };
    let (mut reads, mut solve_keys) = (balanced(n - solves), balanced(solves));
    (0..n)
        .map(|i| {
            let pick = if is_solve(i) {
                solve_keys.next()
            } else {
                reads.next()
            };
            match (is_solve(i), &keys[pick.expect("counted")]) {
                (true, Request::LossBound { flow, buffer }) => Request::Solve {
                    flow: flow.clone(),
                    buffer: *buffer,
                },
                (_, key) => key.clone(),
            }
        })
        .collect()
}

/// Due times (µs from the start) of `n` Poisson arrivals at [`RATE`],
/// drawn from `seed`. Independent users arrive this way; unlike a fixed
/// period, it cannot lock onto a periodic disturbance of the host and
/// so samples every phase of it.
pub fn arrivals(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA221_7A15);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let due = t;
            t += exponential(&mut rng, 1e6 / RATE);
            due
        })
        .collect()
}

/// The daemon side: binds `socket`, serves until a `shutdown` request
/// (or until stdin closes), and talks to the benchmark over stdio. Each
/// stdin line resets the peak-RSS mark and prints the telemetry tally
/// collected since the previous line; on exit it prints `rss <KiB>`
/// and the final tally.
pub fn daemon_main(socket: &str, traced: bool) -> Result<(), String> {
    pin_to_cpu(DAEMON_CPU);
    lrd_pool::set_global_threads(DAEMON_THREADS);
    let collector = Arc::new(CollectingSubscriber::new());
    let _telemetry = traced.then(|| lrd_obs::install(collector.clone()));
    let mut engine = engine();
    let endpoint = Endpoint::parse(&format!("unix:{socket}")).ok_or("bad socket path")?;
    std::fs::remove_file(socket).ok();
    let listener = Listener::bind(&endpoint).map_err(|e| format!("bind {socket}: {e}"))?;
    say(&format!("listening {}", listener.local_endpoint()))?;

    // Detached on purpose: it blocks reading stdin, and the process
    // exits once the serve loop returns.
    let marks = collector.clone();
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            if line.is_err() {
                break;
            }
            lrd_trace::reset_peak_rss();
            if say(&Tally::drain(&marks).to_line()).is_err() {
                break;
            }
        }
        // The benchmark is gone: stop serving.
        lrd_serve::signal::request_shutdown();
    });

    let served = serve(&listener, &mut engine, None).map_err(|e| format!("serve: {e}"));
    std::fs::remove_file(socket).ok();
    served?;
    say(&format!("rss {}", crate::peak_rss_kib()))?;
    say(&Tally::drain(&collector).to_line())
}

fn say(line: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}")
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// The daemon process, seen from the benchmark. Dropping it kills and
/// reaps a daemon that did not shut down.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(socket: &Path, traced: bool) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .arg(socket)
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
        };
        let line = daemon.line()?;
        if !line.starts_with("listening ") {
            return Err(format!("daemon said {line:?}"));
        }
        Ok(daemon)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("daemon exited early".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read daemon stdout: {e}")),
        }
    }

    /// Resets the daemon's peak-RSS mark and returns the tally since
    /// the previous mark.
    fn mark(&mut self) -> Result<Tally, String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        writeln!(stdin, "mark")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("mark: {e}"))?;
        Tally::parse(&self.line()?)
    }

    /// Shuts the daemon down and returns its peak RSS (KiB) and final
    /// tally.
    fn shutdown(mut self, endpoint: &Endpoint) -> Result<(u64, Tally), String> {
        let bye = ask(endpoint, &Request::Shutdown)?;
        if !matches!(Response::parse(&bye)?, Response::Bye) {
            return Err(format!("shutdown answered {bye:?}"));
        }
        let rss = self.line()?;
        let rss = rss
            .strip_prefix("rss ")
            .and_then(|kib| kib.parse().ok())
            .ok_or_else(|| format!("daemon said {rss:?}"))?;
        let tally = Tally::parse(&self.line()?)?;
        self.stdin.take();
        let deadline = Instant::now() + IO_TIMEOUT * 5;
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("daemon did not exit after shutdown".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((rss, tally))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stdin.take();
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}

/// One request over one connection through `lrd-net`.
fn ask(endpoint: &Endpoint, request: &Request) -> Result<String, String> {
    let mut conn = connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    send_line(conn.as_mut(), &request.to_line()).map_err(|e| format!("send: {e}"))?;
    recv_line(conn.as_mut()).map_err(|e| format!("receive: {e}"))
}

/// One open-loop request as the generator saw it (µs since the
/// schedule's origin).
#[derive(Debug, Clone, Default)]
struct Sent {
    due_us: f64,
    sent_us: Option<f64>,
    done_us: Option<f64>,
    reply: Option<String>,
}

struct InFlight {
    index: usize,
    stream: UnixStream,
    buf: Vec<u8>,
}

/// Drives `requests` from this thread, one connection per request,
/// polling replies in order (the daemon answers connections in accept
/// order) and spinning rather than sleeping in between, so the
/// generator's own wake-ups stay out of the latencies. With
/// `arrivals` (µs from the start) the loop is open: request `i` is due
/// at `arrivals[i]` whatever the replies do. Without them it is
/// closed: each request is due the moment the previous reply arrives. Returns each request's record,
/// the largest number of requests in flight at once, and the time
/// origin of the records.
fn drive(
    socket: &Path,
    requests: &[Request],
    arrivals: Option<&[f64]>,
) -> (Vec<Sent>, usize, Instant) {
    let lines: Vec<String> = requests.iter().map(|r| r.to_line() + "\n").collect();
    // An open loop starts a little ahead so the first request is not
    // already late.
    let origin = Instant::now() + arrivals.map_or(Duration::ZERO, |_| Duration::from_millis(2));
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    let due = |i: usize| arrivals.map_or(0.0, |a| a[i]);
    let mut sent: Vec<Sent> = (0..lines.len())
        .map(|i| Sent {
            due_us: due(i),
            ..Sent::default()
        })
        .collect();
    let timeout_us = IO_TIMEOUT.as_secs_f64() * 1e6;
    let deadline_us = arrivals.map_or(f64::INFINITY, |a| {
        a.last().copied().unwrap_or(0.0) + timeout_us
    });
    let mut flight: VecDeque<InFlight> = VecDeque::new();
    let mut backlog = 0;
    let mut next = 0;
    let mut chunk = [0u8; 4096];
    loop {
        let now = us(Instant::now());
        if now > deadline_us {
            break;
        }
        let ready = match arrivals {
            Some(_) => now >= sent[next.min(lines.len() - 1)].due_us,
            None => flight.is_empty(),
        };
        if next < lines.len() && ready {
            if arrivals.is_none() {
                sent[next].due_us = now;
            }
            let connected = UnixStream::connect(socket).and_then(|mut stream| {
                stream.write_all(lines[next].as_bytes())?;
                stream.set_nonblocking(true)?;
                Ok(stream)
            });
            sent[next].sent_us = Some(us(Instant::now()));
            if let Ok(stream) = connected {
                flight.push_back(InFlight {
                    index: next,
                    stream,
                    buf: Vec::new(),
                });
                backlog = backlog.max(flight.len());
            }
            next += 1;
            continue;
        }
        let Some(front) = flight.front_mut() else {
            if next >= lines.len() {
                break;
            }
            std::hint::spin_loop();
            continue;
        };
        let started = sent[front.index].sent_us.unwrap_or(now);
        match front.stream.read(&mut chunk) {
            Ok(0) => {
                flight.pop_front();
            }
            Ok(k) => {
                front.buf.extend_from_slice(&chunk[..k]);
                if front.buf.last() == Some(&b'\n') {
                    let done = us(Instant::now());
                    let f = flight.pop_front().expect("front exists");
                    let slot = &mut sent[f.index];
                    slot.done_us = Some(done);
                    slot.reply = String::from_utf8(f.buf)
                        .ok()
                        .map(|s| s.trim_end().to_string());
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if now - started > timeout_us {
                    flight.pop_front();
                }
                std::hint::spin_loop();
            }
            Err(_) => {
                flight.pop_front();
            }
        }
    }
    (sent, backlog, origin)
}

/// Replays `requests` into `engine`, returning each reply line and the
/// time `Engine::handle` took (µs); request `i` is recorded as a
/// `serve.handle` span of operation `i`.
fn replay(engine: &mut Engine, requests: &[Request], spans: &Spans) -> Vec<(String, f64)> {
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let id = spans.open();
            let t = Instant::now();
            let response = engine.handle(r);
            let end = Instant::now();
            spans.close(id, i as u64, 0, "serve.handle", t, end);
            (response.to_line(), (end - t).as_secs_f64() * 1e6)
        })
        .collect()
}

/// A replay engine in the daemon's serving state.
fn serving_engine() -> Result<Engine, String> {
    let mut engine = engine();
    converge(|r| Ok(engine.handle(r).to_line()))?;
    Ok(engine)
}

/// Counts a reply that is missing or an error as failed; checks the
/// rest against the replayed answer.
fn judge(out: &mut Outcome, what: &str, got: Option<&str>, want: &str) {
    out.attempted += 1;
    let Some(got) = got else {
        out.failed += 1;
        return;
    };
    if !matches!(Response::parse(got), Ok(Response::Bound { .. })) {
        out.failed += 1;
        out.check(false, || format!("{what}: reply {got:?}"));
        return;
    }
    out.check(got == want, || {
        format!("{what}: daemon said {got}, in-process engine {want}")
    });
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let socket: PathBuf = ctx
        .out_dir()?
        .join(format!("serve-{}.sock", std::process::id()));
    let endpoint =
        Endpoint::parse(&format!("unix:{}", socket.display())).ok_or("bad socket path")?;

    let mut daemon = None;
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        let d = Daemon::start(&socket, ctx.trace)?;
        converge(|r| ask(&endpoint, r))?;
        out.setup_s.push(secs(t));
        if rep + 1 < SETUP_REPEATS {
            d.shutdown(&endpoint)?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one set-up");
    daemon.mark()?;
    pin_to_cpu(GENERATOR_CPU);
    if ctx.trace {
        open_loop(ctx, &socket, &endpoint, daemon, &mut out)?;
    } else {
        closed_loop(ctx, &socket, &endpoint, daemon, &mut out)?;
    }
    Ok(out)
}

/// The untraced run: one client sends the seeded block back to back,
/// again and again, for the whole timed phase; `wall_s` is the time per
/// block.
fn closed_loop(
    ctx: &Ctx,
    socket: &Path,
    endpoint: &Endpoint,
    daemon: Daemon,
    out: &mut Outcome,
) -> Result<(), String> {
    let block = requests(ctx.seed, BLOCK);
    let want = replay(&mut serving_engine()?, &block, &Spans::new(false));
    let started = Instant::now();
    while out.pass_s.len() < MIN_BLOCKS || secs(started) + mean(&out.pass_s) <= ctx.seconds {
        let t = Instant::now();
        let (sent, _, _) = drive(socket, &block, None);
        out.pass_s.push(secs(t));
        let k = out.pass_s.len();
        for (i, (s, (want, _))) in sent.iter().zip(&want).enumerate() {
            judge(
                out,
                &format!("block {k} request {i}"),
                s.reply.as_deref(),
                want,
            );
        }
    }
    out.peak_rss_kib = daemon.shutdown(endpoint)?.0;
    Ok(())
}

/// The traced run: the open loop, with the daemon's telemetry collected
/// and every request replayed in process.
fn open_loop(
    ctx: &Ctx,
    socket: &Path,
    endpoint: &Endpoint,
    daemon: Daemon,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = ((ctx.seconds * RATE) as usize).max(1);
    let sequence = requests(ctx.seed, n);
    let t = Instant::now();
    let (sent, backlog_max, origin) = drive(socket, &sequence, Some(&arrivals(ctx.seed, n)));
    out.traced_pass_s.push(secs(t));
    let (rss, tally) = daemon.shutdown(endpoint)?;
    out.peak_rss_kib = rss;

    let replayed = replay(&mut serving_engine()?, &sequence, &ctx.spans);
    for (i, (s, (want, _))) in sent.iter().zip(&replayed).enumerate() {
        judge(
            out,
            &format!("open-loop request {i}"),
            s.reply.as_deref(),
            want,
        );
    }

    solver_layers(out, &tally, DAEMON_THREADS);
    let is_read = |r: &Request| matches!(r, Request::LossBound { .. });
    let handle = |read: bool| -> Vec<f64> {
        sequence
            .iter()
            .zip(&replayed)
            .filter(|(r, _)| is_read(r) == read)
            .map(|(_, (_, us))| *us)
            .collect()
    };
    let latency = |read: bool| -> Vec<f64> {
        sent.iter()
            .zip(&sequence)
            .filter(|(_, r)| is_read(r) == read)
            .filter_map(|(s, _)| Some(s.done_us? - s.due_us))
            .collect()
    };
    let queries: Vec<&(String, f64)> = tally
        .queries
        .iter()
        .filter(|(kind, _)| kind != "shutdown")
        .collect();
    let spans: Vec<f64> = queries.iter().map(|(_, us)| *us).collect();
    let aligned = queries.len() == sequence.len()
        && queries
            .iter()
            .zip(&sequence)
            .all(|((kind, _), r)| kind == r.kind());
    let (mut wait, mut overhead) = (Vec::new(), Vec::new());
    if aligned {
        for ((s, r), span) in sent.iter().zip(&sequence).zip(&spans) {
            if let (true, Some(sent_us), Some(done_us)) = (is_read(r), s.sent_us, s.done_us) {
                wait.push(done_us - s.due_us - span);
                overhead.push(done_us - sent_us - span);
            }
        }
    } else {
        eprintln!(
            "lrdbench: daemon spans do not line up with the requests; wait and net metrics read 0"
        );
    }
    let late: Vec<f64> = sent
        .iter()
        .filter_map(|s| s.sent_us.map(|x| x - s.due_us))
        .collect();

    // Tracing overhead on the serving path: the same replay with and
    // without a collector installed.
    let mut quiet = serving_engine()?;
    let t = Instant::now();
    replay(&mut quiet, &sequence, &Spans::new(false));
    let untraced = secs(t);
    let mut loud = serving_engine()?;
    let guard = lrd_obs::install(ctx.collector.clone());
    let t = Instant::now();
    replay(&mut loud, &sequence, &Spans::new(false));
    let traced = secs(t);
    drop(guard);
    ctx.collector.clear();

    let p = |name: &'static str, xs: &[f64], q: f64| (name, layer_percentile(name, xs, q));
    out.layers.extend([
        p("serve.read_us_p50", &latency(true), 0.5),
        p("serve.read_us_p99", &latency(true), 0.99),
        p("serve.solve_us_p50", &latency(false), 0.5),
        p("serve.solve_us_p90", &latency(false), 0.9),
        p("serve.read_handle_us_p50", &handle(true), 0.5),
        p("serve.solve_handle_us_p50", &handle(false), 0.5),
        p("serve.query_span_us_p99", &spans, 0.99),
        p("serve.wait_us_p99", &wait, 0.99),
        p("net.read_overhead_us_p50", &overhead, 0.5),
        p("loadgen.late_us_p50", &late, 0.5),
        p("loadgen.late_us_p99", &late, 0.99),
        ("loadgen.backlog_max", backlog_max as f64),
        ("obs.overhead_share", traced / untraced - 1.0),
    ]);
    let at = |us: f64| origin + Duration::from_secs_f64(us.max(0.0) / 1e6);
    for (i, (s, r)) in sent.iter().zip(&sequence).enumerate() {
        if let (Some(sent_us), Some(done_us)) = (s.sent_us, s.done_us) {
            let name = if is_read(r) {
                "net.loss_bound"
            } else {
                "net.solve"
            };
            ctx.spans.close(
                ctx.spans.open(),
                i as u64,
                0,
                name,
                at(sent_us),
                at(done_us),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_serve_check_fails_on_a_corrupted_reference() {
        let mut engine = serving_engine().unwrap();
        let sequence = requests(3, 200);
        assert!(sequence.iter().any(|r| matches!(r, Request::Solve { .. })));
        let replayed = replay(&mut engine, &sequence, &Spans::new(false));
        // A second engine brought to the same state answers identically.
        let mut again = serving_engine().unwrap();
        let mut out = Outcome::default();
        for (r, (want, _)) in sequence.iter().zip(&replayed) {
            let got = again.handle(r).to_line();
            judge(&mut out, "replay", Some(&got), want);
        }
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!((out.attempted, out.failed), (200, 0));

        // One ulp on one bound is caught ...
        let (line, _) = &replayed[7];
        let Ok(Response::Bound {
            lower,
            upper,
            converged,
            staleness,
            bins,
            iterations,
        }) = Response::parse(line)
        else {
            panic!("expected a bound");
        };
        let corrupted = Response::Bound {
            lower: f64::from_bits(lower.to_bits() + 1),
            upper,
            converged,
            staleness,
            bins,
            iterations,
        }
        .to_line();
        judge(&mut out, "corrupted", Some(line), &corrupted);
        assert_eq!(out.errors.len(), 1);
        // ... and an error reply or a lost one counts as failed.
        let error = Response::Error {
            message: "boom".into(),
        }
        .to_line();
        judge(&mut out, "error", Some(&error), line);
        judge(&mut out, "lost", None, line);
        assert_eq!(out.failed, 2);
    }
}
