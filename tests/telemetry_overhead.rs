//! Overhead guard: with no subscriber (or the [`NullSubscriber`])
//! installed, instrumentation must be free — the disabled fast path may
//! not allocate at all compared to the same solve before the telemetry
//! layer existed.
//!
//! Allocation counts are exactly reproducible for the deterministic
//! solver, unlike wall-clock time, so this is the regression guard that
//! can run on shared CI hardware. The allocator is process-global, so
//! this file lives in its own integration-test binary; it counts per
//! thread and only while armed, so other test threads never leak into a
//! measurement. Solves run on the serial pool path (`with_threads(1)`)
//! so every allocation they make lands on the measuring thread.

use lrd::obs;
use lrd::pool::with_threads;
use lrd::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    // Const-initialised `Cell`s need no lazy setup and no destructor,
    // so touching them from inside the allocator cannot recurse.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counting touches only const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread may allocate while its locals are torn down.
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn solve_once() -> LossSolution {
    let model = QueueModel::new(
        Marginal::new(&[2.0, 14.0], &[0.5, 0.5]),
        TruncatedPareto::new(0.05, 1.4, 1.0),
        10.0,
        2.0,
    );
    let opts = SolverOptions {
        initial_bins: 8,
        max_bins: 32,
        max_iterations_per_level: 16,
        rel_gap: 1e-9,
        ..SolverOptions::default()
    };
    with_threads(1, || {
        SolveSession::builder(&model)
            .options(&opts)
            .run()
            .expect("valid options")
            .0
    })
}

/// Heap allocations the calling thread makes while running `f`.
fn allocations_while(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.with(Cell::get)
}

fn allocations_during(f: impl Fn() -> LossSolution) -> usize {
    allocations_while(|| {
        let sol = f();
        assert!(!sol.converged, "sanity: the probe solve must run its full budget");
    })
}

/// A representative streaming instrumentation loop: a span around a
/// batch of points, one counter increment and one histogram sample per
/// point (the sweep runner records `sweep.solve_us` this way for each
/// checkpointed solve), and a closing event. It drives every telemetry
/// entry point's disabled fast path, which must be free when nothing is
/// listening.
fn stream_probe() {
    let mut span = obs::span!("sweep.batch", batch = 3u64, epoch = 1u64, points = 64u64);
    for i in 0..64u64 {
        obs::counter("sweep.points", 1);
        obs::histogram("sweep.solve_us", 12.5 + i as f64);
    }
    obs::event!("sweep.lease_abandoned", batch = 3u64, epoch = 1u64);
    span.record("abandoned", false);
}

#[test]
fn disabled_telemetry_allocates_nothing_extra() {
    // Warm one-time state (the obs epoch, FFT plans' lazy tables, the
    // test harness's own buffers) so the measured runs are steady-state.
    let _ = solve_once();
    let _ = solve_once();

    let bare = allocations_during(solve_once);
    assert!(bare > 0, "sanity: the solver itself allocates");

    // The solver is deterministic, so repeated bare runs must agree —
    // otherwise the comparison below would be meaningless.
    assert_eq!(bare, allocations_during(solve_once), "solver allocations not reproducible");

    let with_null = {
        let _guard = obs::install(Arc::new(obs::NullSubscriber));
        assert!(!obs::enabled(), "NullSubscriber must keep the fast path off");
        allocations_during(solve_once)
    };
    assert_eq!(
        with_null, bare,
        "NullSubscriber added {} allocations per solve",
        with_null.abs_diff(bare)
    );

    // The streaming instrumentation must be exactly free when
    // disabled — zero allocations, not merely "no more than before".
    stream_probe(); // warm thread-local span-watch state
    assert_eq!(
        allocations_while(stream_probe),
        0,
        "disabled streaming instrumentation allocated"
    );
    let streaming_null = {
        let _guard = obs::install(Arc::new(obs::NullSubscriber));
        allocations_while(stream_probe)
    };
    assert_eq!(
        streaming_null, 0,
        "NullSubscriber made the streaming path allocate"
    );
}
