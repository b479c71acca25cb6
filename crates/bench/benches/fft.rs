//! Convolution microbenches: the direct-vs-FFT crossover the solver's
//! auto-selection relies on, and the planned-Convolver amortization.
//!
//! This substantiates the paper's `O(M²) → O(M log M)` remark
//! (Sec. II) with measured numbers.

use lrd_bench::Harness;
use lrd_fft::{convolve_direct, convolve_fft, Convolver, Fft};
use std::hint::black_box;

fn probability_vector(n: usize, phase: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n)
        .map(|i| ((i as f64 * phase).sin() + 1.1).max(0.0))
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|v| v / total).collect()
}

fn bench_conv_crossover(c: &mut Harness) {
    let mut g = c.group("conv_crossover");
    for m in [64usize, 128, 256, 512, 1024, 4096] {
        // Solver-shaped problem: kernel 2M+1, signal M+1.
        let kernel = probability_vector(2 * m + 1, 0.37);
        let signal = probability_vector(m + 1, 0.73);
        g.bench_function(format!("direct/{m}"), |b| {
            b.iter(|| black_box(convolve_direct(&kernel, &signal)))
        });
        g.bench_function(format!("fft/{m}"), |b| {
            b.iter(|| black_box(convolve_fft(&kernel, &signal)))
        });
        g.bench_function(format!("planned/{m}"), |b| {
            let mut cv = Convolver::new(&kernel, signal.len());
            b.iter(|| black_box(cv.conv(&signal).last().copied()))
        });
    }
    g.finish();
}

/// The batched bounding-chain path: one `conv_pair` call versus the
/// two planned `conv` calls it replaces. Both chains share kernel and
/// signal lengths, exactly as in `BoundSolver::step`.
fn bench_conv_pair(c: &mut Harness) {
    let mut g = c.group("conv_pair");
    for m in [256usize, 1024, 4096, 8192] {
        let kernel_a = probability_vector(2 * m + 1, 0.37);
        let kernel_b = probability_vector(2 * m + 1, 0.41);
        let sig_a = probability_vector(m + 1, 0.73);
        let sig_b = probability_vector(m + 1, 0.79);
        g.bench_function(format!("sequential/{m}"), |b| {
            let mut ca = Convolver::new(&kernel_a, sig_a.len());
            let mut cb = Convolver::new(&kernel_b, sig_b.len());
            b.iter(|| {
                let a = ca.conv(&sig_a).last().copied();
                let b2 = cb.conv(&sig_b).last().copied();
                black_box((a, b2))
            })
        });
        g.bench_function(format!("paired/{m}"), |b| {
            let mut ca = Convolver::new(&kernel_a, sig_a.len());
            let mut cb = Convolver::new(&kernel_b, sig_b.len());
            b.iter(|| {
                let (a, b2) = Convolver::conv_pair(&mut ca, &mut cb, &sig_a, &sig_b);
                black_box((a.last().copied(), b2.last().copied()))
            })
        });
    }
    g.finish();
}

/// Plan-cache read contention: every `Convolver::new` on the FFT path
/// resolves its plan through the process-wide cache, whose hot read
/// path is a lock-free thread-local front. This hammers steady-state
/// lookups of an already-built plan from T threads at once. With the
/// thread-local front, total wall time scales with total work (T ×
/// LOOKUPS) and no worse — a regression back to a mutex on the read
/// path shows up as super-linear growth in T (lock convoying).
fn bench_plan_cache_contention(c: &mut Harness) {
    let mut g = c.group("plan_cache_contention");
    g.sample_size(6);
    let n = 4096usize;
    // Prime the global cache once so every measured lookup is a hit.
    black_box(lrd_fft::shared_real_plan(n));
    const LOOKUPS: usize = 200_000;
    for threads in [1usize, 4, 8] {
        g.bench_function(format!("threads/{threads}"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| {
                            for _ in 0..LOOKUPS {
                                black_box(lrd_fft::shared_real_plan(black_box(n)));
                            }
                        });
                    }
                });
            })
        });
    }
    g.finish();
}

fn bench_raw_fft(c: &mut Harness) {
    let mut g = c.group("fft_transform");
    for n in [1024usize, 8192, 32768, 65536] {
        g.bench_with_input(n, &n, |b, &n| {
            let plan = Fft::new(n);
            let data: Vec<lrd_fft::Complex> = (0..n)
                .map(|i| lrd_fft::Complex::new((i as f64).sin(), 0.0))
                .collect();
            b.iter(|| {
                let mut buf = data.clone();
                plan.forward(&mut buf);
                black_box(buf)
            });
        });
    }
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    bench_conv_crossover(&mut h);
    bench_conv_pair(&mut h);
    bench_plan_cache_contention(&mut h);
    bench_raw_fft(&mut h);
    h.finish();
}
