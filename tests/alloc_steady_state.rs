//! Steady-state allocation guard for the convolution pipeline.
//!
//! The solver's inner loop is `Convolver::conv` — once a convolver has
//! warmed up (plan fetched, scratch buffers grown to size), repeated
//! convolutions and solver steps must perform **zero** heap
//! allocations: every buffer is reused via `clear`/`resize`, the FFT
//! plan comes from the process-wide cache, and the serial pool path
//! shares one pre-allocated scope state. Allocation counts, unlike
//! wall-clock time, are exactly reproducible — so this is a hard
//! regression guard, not a benchmark. The allocator is process-global,
//! hence the dedicated integration-test binary; it counts per thread,
//! and only while armed inside [`allocations_during`], so the tests
//! libtest runs side by side never see each other's allocations.

use lrd::fft::Convolver;
use lrd::pool::with_threads;
use lrd::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Heap allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn counter_sees_allocations_on_the_measuring_thread() {
    // Negative control: the zero bounds below only mean something if
    // an allocating closure is actually counted.
    let allocs = allocations_during(|| {
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
        drop(v);
    });
    assert!(allocs >= 1, "an allocating closure was counted as {allocs}");
}

#[test]
fn warm_convolver_fft_path_never_allocates() {
    // Both shapes clear DIRECT_THRESHOLD, so the real-FFT path with
    // its persistent spectra runs. The second is the solver's shape at
    // M = 4096 (kernel 2M+1, signal M+1): its half-size complex
    // transform is 8192 points, past the cascade's L1 block, so the
    // blocked outer stages and the fused bit-reversed pack/re-tangle
    // run too.
    for (kernel_len, signal_len) in [(512usize, 256usize), (8193, 4097)] {
        let kernel: Vec<f64> = (0..kernel_len).map(|i| 1.0 / (i + 1) as f64).collect();
        let signal: Vec<f64> = (0..signal_len).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut cv = Convolver::new(&kernel, signal.len());
        let warm = cv.conv(&signal).to_vec();
        let allocs = allocations_during(|| {
            for _ in 0..100 {
                let out = cv.conv(&signal);
                assert_eq!(out.len(), kernel.len() + signal.len() - 1);
            }
        });
        assert_eq!(
            allocs, 0,
            "warm FFT-path conv ({kernel_len}x{signal_len}) allocated {allocs} times in 100 calls"
        );
        // Reuse must not change the answer.
        assert_eq!(cv.conv(&signal), &warm[..]);
    }
}

#[test]
fn warm_convolver_direct_path_never_allocates() {
    let kernel = [0.25, 0.5, 0.25];
    let signal: Vec<f64> = (0..64).map(|i| i as f64).collect();
    let mut cv = Convolver::new(&kernel, signal.len());
    let _ = cv.conv(&signal);
    let allocs = allocations_during(|| {
        for _ in 0..100 {
            let _ = cv.conv(&signal);
        }
    });
    assert_eq!(allocs, 0, "warm direct-path conv allocated {allocs} times in 100 calls");
}

#[test]
fn warm_solver_steps_never_allocate_on_the_serial_path() {
    // A full solver step is one batched two-chain convolution
    // (`Convolver::conv_pair`) plus each chain's clamp, renormalize
    // and swap. Once warmed the whole step must be allocation-free;
    // the solver keeps `--threads 1` as the reference configuration.
    // M = 4096 runs 16384-point batched transforms, past the cascade's
    // L1 block, through the fused bit-reversed scatter and product.
    let model = QueueModel::from_utilization(
        Marginal::new(&[2.0, 14.0], &[0.5, 0.5]),
        TruncatedPareto::from_hurst(0.8, 0.05, 1.0),
        0.8,
        0.2,
    );
    for (bins, steps) in [(512usize, 50usize), (4096, 10)] {
        with_threads(1, || {
            let mut solver = BoundSolver::new(model.clone(), bins);
            for _ in 0..4 {
                solver.step();
            }
            let allocs = allocations_during(|| {
                for _ in 0..steps {
                    solver.step();
                }
            });
            assert_eq!(
                allocs, 0,
                "warm M={bins} solver step allocated {allocs} times in {steps} steps"
            );
        });
    }
}
