//! Linear convolution of real sequences.
//!
//! Three entry points:
//!
//! * [`convolve_direct`] — the `O(nm)` schoolbook algorithm,
//! * [`convolve_fft`] — zero-padded real-FFT convolution, `O(N log N)`,
//! * [`convolve`] — picks whichever is cheaper for the given sizes.
//!
//! The loss solver convolves the *same* work-increment kernel against
//! an evolving occupancy vector on every iteration; [`Convolver`]
//! caches the kernel's spectrum, shares the FFT plan through a
//! process-wide plan cache, and keeps every intermediate buffer alive
//! across calls. The solver's step runs both bounding chains through
//! [`Convolver::conv_pair`]: per iteration, one full-length complex
//! forward and one inverse cascade carry both chains, with the bit
//! reversal folded into the scatter and product passes, and **zero
//! heap allocations** (`tests/alloc_steady_state.rs` pins the count).

use crate::complex::Complex;
use crate::transform::{next_pow2, Fft, RealFft};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Size product above which the FFT path wins over the direct path.
/// Chosen empirically (see `lrd-bench`'s `conv_crossover` bench); the
/// exact value is not critical because both paths are exact.
///
/// Re-measured 2026-08 after the SIMD butterflies and the blocked
/// direct path landed (both sides got faster): at the solver's shapes
/// (kernel `2M+1`, signal `M+1`) the planned real-FFT path still
/// breaks even between `M = 128` (direct 5.4 µs vs planned 6.1 µs,
/// product ≈ 33k) and `M = 256` (direct 23.4 µs vs planned 11.4 µs,
/// product ≈ 132k), and is ~8× faster by `M = 1024`. The threshold is
/// kept at 64k — it sits inside the measured crossover window and
/// slightly favours the allocation-free direct path, whose small-size
/// cache behaviour is better than the midpoint suggests. Full table in
/// EXPERIMENTS.md ("Direct/FFT crossover").
const DIRECT_THRESHOLD: usize = 64 * 1024;

/// Two-level cache of FFT plans, keyed by transform length.
///
/// The solver builds two [`Convolver`]s per grid level (one per
/// bounding chain) with identical padded lengths, and doubles the
/// length on every refinement; sweeps repeat those lengths across
/// hundreds of `(model, buffer)` points. Sharing the plans means the
/// twiddle/bit-reversal tables are computed once per distinct size per
/// process. Lengths are powers of two, so the cache stays tiny (at
/// most ~60 entries on a 64-bit machine) and is never evicted.
///
/// The **read path is thread-local**: each worker keeps its own
/// `BTreeMap` of `Arc` clones, so steady-state lookups (every
/// `Convolver::new` during a `par_map` sweep) never touch a lock. The
/// `Mutex`-guarded global map remains the single source of truth, so
/// two threads asking for the same length still receive the *same*
/// plan allocation (`Arc::ptr_eq` holds across threads — pinned by
/// test) and memory stays bounded by the distinct-length count, not
/// the thread count. `lrd-bench`'s `plan_cache_contention` micro-bench
/// measures the difference against the old always-locking path.
macro_rules! two_level_plan_cache {
    ($fn_name:ident, $plan_ty:ty, $build:expr) => {
        fn $fn_name(n: usize) -> Arc<$plan_ty> {
            static GLOBAL: Mutex<BTreeMap<usize, Arc<$plan_ty>>> = Mutex::new(BTreeMap::new());
            thread_local! {
                static LOCAL: RefCell<BTreeMap<usize, Arc<$plan_ty>>> =
                    const { RefCell::new(BTreeMap::new()) };
            }
            LOCAL.with(|local| {
                let mut local = local.borrow_mut();
                if let Some(plan) = local.get(&n) {
                    return Arc::clone(plan);
                }
                let plan = {
                    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
                    #[allow(clippy::redundant_closure_call)]
                    Arc::clone(global.entry(n).or_insert_with(|| Arc::new($build(n))))
                };
                local.insert(n, Arc::clone(&plan));
                plan
            })
        }
    };
}

two_level_plan_cache!(cached_plan, RealFft, RealFft::new);
two_level_plan_cache!(cached_complex_plan, Fft, Fft::new);

/// The process-wide shared [`RealFft`] plan of length `n` (rounded up
/// to the next power of two by the caller if needed). Every
/// [`Convolver`] on the FFT path resolves its plan through this cache;
/// the accessor is public so callers (and the `plan_cache_contention`
/// micro-bench) can hit the exact read path the solver hits.
pub fn shared_real_plan(n: usize) -> Arc<RealFft> {
    cached_plan(n)
}

/// The process-wide shared complex [`Fft`] plan of length `n` — the
/// cache behind [`Convolver::conv_pair`]'s full-length transforms.
pub fn shared_complex_plan(n: usize) -> Arc<Fft> {
    cached_complex_plan(n)
}

/// Schoolbook linear convolution. Output length is `a.len() + b.len() - 1`
/// (empty if either input is empty).
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    convolve_direct_into(a, b, &mut out);
    out
}

/// Tile width (in doubles) of the blocked direct path: a 4 KiB slice
/// of the long operand stays L1-resident while every short-side
/// element streams its output window over it.
const DIRECT_TILE: usize = 512;

/// [`convolve_direct`] into a caller-owned output buffer of length
/// `a.len() + b.len() - 1` (allocation-free for warm buffers).
///
/// Cache-blocked: the long operand is walked in [`DIRECT_TILE`]-sized
/// tiles with the full short operand applied per tile, so the touched
/// output window stays in L1 instead of being re-fetched for every
/// short-side element. The inner kernel is [`crate::simd::axpy`],
/// whose lanes are elementwise independent — the scalar and SIMD
/// variants produce bit-identical output.
fn convolve_direct_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), a.len() + b.len() - 1);
    out.fill(0.0);
    // Iterate the shorter sequence per tile for better locality.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut tile_start = 0;
    while tile_start < long.len() {
        let tile = &long[tile_start..(tile_start + DIRECT_TILE).min(long.len())];
        for (i, &s) in short.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let base = i + tile_start;
            crate::simd::axpy(&mut out[base..base + tile.len()], s, tile);
        }
        tile_start += DIRECT_TILE;
    }
}

/// FFT-based linear convolution with zero padding to the next power of
/// two `>= a.len() + b.len() - 1`, computed with two half-size real
/// transforms through the shared plan cache.
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    if out_len == 1 {
        // Padded length 1 is below the real transform's minimum; the
        // product is a single multiply anyway.
        return vec![a[0] * b[0]];
    }
    let plan = cached_plan(next_pow2(out_len));
    let mut work = Vec::new();
    let mut fa = Vec::new();
    let mut fb = Vec::new();
    plan.forward(a, &mut work, &mut fa);
    plan.forward(b, &mut work, &mut fb);
    crate::simd::cmul_assign(&mut fa, &fb);
    let mut out = Vec::new();
    plan.inverse(&fa, &mut work, &mut out);
    out.truncate(out_len);
    out
}

/// Linear convolution choosing the direct or FFT path by size.
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.len().saturating_mul(b.len()) <= DIRECT_THRESHOLD {
        convolve_direct(a, b)
    } else {
        convolve_fft(a, b)
    }
}

/// A convolution plan for repeatedly convolving different signals of a
/// fixed length against a fixed kernel.
///
/// On the FFT path the kernel spectrum is computed once and every
/// scratch buffer (packed transform input, signal spectrum, real
/// output) lives in the struct, so steady-state calls to
/// [`Convolver::conv`] perform two half-size real transforms, one
/// pointwise product, and **no heap allocation**.
#[derive(Debug, Clone)]
pub struct Convolver {
    kernel_len: usize,
    signal_len: usize,
    /// `None` when the direct path is cheaper; then `kernel` holds the
    /// time-domain kernel instead.
    plan: Option<FftPath>,
    /// Batched two-signal path, built by the first [`Convolver::conv_pair`]
    /// call naming this convolver first.
    pair: Option<PairPath>,
    kernel: Vec<f64>,
    /// Real output buffer reused across calls (both paths).
    out: Vec<f64>,
}

#[derive(Debug, Clone)]
struct FftPath {
    plan: Arc<RealFft>,
    /// Kernel spectrum, `n/2 + 1` unpacked hermitian bins.
    kernel_spectrum: Vec<Complex>,
    /// Half-size packed transform scratch.
    work: Vec<Complex>,
    /// Signal spectrum, overwritten by the pointwise product.
    signal_spectrum: Vec<Complex>,
}

/// The batched two-signal path of [`Convolver::conv_pair`]: one
/// full-length *complex* transform carries both real signals at once
/// (`z = sig_a + i·sig_b`), and the combined kernel spectra fold both
/// pointwise products into a single pass. Built lazily on the first
/// `conv_pair` call and owned by the first convolver of the pair.
#[derive(Debug, Clone)]
struct PairPath {
    plan: Arc<Fft>,
    /// `(KA[k] + KB[k])/2` over all `n` bins.
    sum_spec: Vec<Complex>,
    /// `(KA[k] − KB[k])/2` over all `n` bins.
    diff_spec: Vec<Complex>,
    /// Packed signal transform `Z`, reused across calls.
    z: Vec<Complex>,
    /// Product spectrum / inverse-transform buffer.
    y: Vec<Complex>,
}

impl PairPath {
    fn build(kernel_a: &[f64], kernel_b: &[f64], n: usize) -> PairPath {
        let plan = cached_complex_plan(n);
        let spectrum = |kernel: &[f64]| {
            let mut buf = vec![Complex::ZERO; n];
            for (slot, &v) in buf.iter_mut().zip(kernel) {
                *slot = Complex::new(v, 0.0);
            }
            plan.forward(&mut buf);
            buf
        };
        let ka = spectrum(kernel_a);
        let kb = spectrum(kernel_b);
        let sum_spec = ka.iter().zip(&kb).map(|(&a, &b)| (a + b).scale(0.5)).collect();
        let diff_spec = ka.iter().zip(&kb).map(|(&a, &b)| (a - b).scale(0.5)).collect();
        lrd_obs::counter("fft.pair_plans", 1);
        PairPath {
            plan,
            sum_spec,
            diff_spec,
            z: Vec::new(),
            y: Vec::new(),
        }
    }
}

/// The batched pair's product pass, conjugated and stored bit-reversed
/// for the inverse butterflies:
/// `y[rev(k)] = conj(Z[k]·S[k] + conj(Z[(n−k) mod n])·D[k])`.
/// Bins `k` and `n − k` are computed together, so each `Z` bin is read
/// once; each output bin's expression is unchanged.
fn pair_product(plan: &Fft, z: &[Complex], sum: &[Complex], diff: &[Complex], y: &mut [Complex]) {
    let n = z.len();
    let h = n / 2;
    let mut put = |k: usize, zk: Complex, zr: Complex| {
        y[plan.bit_reversed(k)] = (zk * sum[k] + zr.conj() * diff[k]).conj();
    };
    // Bins 0 and n/2 are their own mirrors.
    put(0, z[0], z[0]);
    put(h, z[h], z[h]);
    for k in 1..h {
        let (zk, zm) = (z[k], z[n - k]);
        put(k, zk, zm);
        put(n - k, zm, zk);
    }
}

impl Convolver {
    /// Plans convolution of signals of length `signal_len` against
    /// `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty or `signal_len` is zero.
    pub fn new(kernel: &[f64], signal_len: usize) -> Self {
        assert!(!kernel.is_empty(), "Convolver kernel must be non-empty");
        assert!(signal_len > 0, "Convolver signal length must be positive");
        let out_len = kernel.len() + signal_len - 1;
        let use_fft = kernel.len().saturating_mul(signal_len) > DIRECT_THRESHOLD && out_len >= 2;
        let mut plan_span = lrd_obs::span!(
            "fft.plan",
            kernel_len = kernel.len(),
            signal_len = signal_len,
        );
        plan_span.record("fft", use_fft);
        let plan = use_fft.then(|| {
            let plan = cached_plan(next_pow2(out_len));
            let mut work = Vec::new();
            let mut kernel_spectrum = Vec::new();
            plan.forward(kernel, &mut work, &mut kernel_spectrum);
            FftPath {
                plan,
                kernel_spectrum,
                work,
                signal_spectrum: Vec::new(),
            }
        });
        Convolver {
            kernel_len: kernel.len(),
            signal_len,
            plan,
            pair: None,
            kernel: kernel.to_vec(),
            out: Vec::new(),
        }
    }

    /// Output length of each convolution.
    pub fn output_len(&self) -> usize {
        self.kernel_len + self.signal_len - 1
    }

    /// Convolves `signal` (which must have the planned length) against
    /// the kernel. The result slice, of length
    /// [`Convolver::output_len`], borrows an internal buffer that is
    /// overwritten by the next call.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` differs from the planned signal length.
    pub fn conv(&mut self, signal: &[f64]) -> &[f64] {
        assert_eq!(
            signal.len(),
            self.signal_len,
            "Convolver signal length mismatch"
        );
        // Per-call timing goes to a histogram rather than a span: the
        // solver calls this hundreds of thousands of times and a
        // span record per call would swamp any JSONL sink.
        let start = if lrd_obs::enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let out_len = self.output_len();
        match &mut self.plan {
            None => {
                self.out.resize(out_len, 0.0);
                convolve_direct_into(&self.kernel, signal, &mut self.out);
            }
            Some(path) => {
                path.plan
                    .forward(signal, &mut path.work, &mut path.signal_spectrum);
                crate::simd::cmul_assign(&mut path.signal_spectrum, &path.kernel_spectrum);
                path.plan
                    .inverse(&path.signal_spectrum, &mut path.work, &mut self.out);
            }
        }
        if let Some(start) = start {
            lrd_obs::histogram("fft.conv_us", start.elapsed().as_secs_f64() * 1e6);
            lrd_obs::counter("fft.convs", 1);
        }
        &self.out[..out_len]
    }

    /// Convolves two same-length signals against two convolvers'
    /// kernels in **one batched transform**: the signals are packed as
    /// the real and imaginary halves of a single complex vector
    /// (`z = sig_a + i·sig_b`), transformed with one full-length
    /// complex FFT, multiplied by the precomputed combined kernel
    /// spectra
    /// `Y[k] = Z[k]·(KA[k]+KB[k])/2 + conj(Z[(n−k) mod n])·(KA[k]−KB[k])/2`,
    /// and inverse-transformed once — the real output lands in `ca`'s
    /// buffer, the imaginary in `cb`'s. The loss solver advances both
    /// bounding chains this way every iteration, replacing four
    /// half-size real transforms plus two untangle passes with two
    /// full-length passes and a single product loop.
    ///
    /// Falls back to two sequential [`Convolver::conv`] calls when
    /// either convolver is on the direct path. The path choice depends
    /// only on the planned sizes, never on threads or environment, so
    /// results are deterministic; within the FFT path, scalar and SIMD
    /// butterflies are bit-identical (see [`crate::simd`]).
    ///
    /// One `fft.conv_us` histogram sample covers the whole batched
    /// call (two convolutions); `fft.convs` still counts 2.
    ///
    /// # Panics
    ///
    /// Panics if the convolvers' planned kernel/signal lengths differ
    /// from each other or the signals' lengths differ from the plan.
    pub fn conv_pair<'a, 'b>(
        ca: &'a mut Convolver,
        cb: &'b mut Convolver,
        sig_a: &[f64],
        sig_b: &[f64],
    ) -> (&'a [f64], &'b [f64]) {
        assert_eq!(ca.kernel_len, cb.kernel_len, "conv_pair kernel length mismatch");
        assert_eq!(ca.signal_len, cb.signal_len, "conv_pair signal length mismatch");
        assert_eq!(sig_a.len(), ca.signal_len, "conv_pair signal length mismatch");
        assert_eq!(sig_b.len(), cb.signal_len, "conv_pair signal length mismatch");
        if ca.plan.is_none() || cb.plan.is_none() {
            let out_len = ca.output_len();
            let _ = ca.conv(sig_a);
            let _ = cb.conv(sig_b);
            return (&ca.out[..out_len], &cb.out[..out_len]);
        }
        let start = if lrd_obs::enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let out_len = ca.output_len();
        let n = next_pow2(out_len);
        if ca.pair.as_ref().is_none_or(|p| p.plan.len() != n) {
            ca.pair = Some(PairPath::build(&ca.kernel, &cb.kernel, n));
        }
        let pair = ca.pair.as_mut().expect("pair path just built");
        let plan = &pair.plan;
        // Forward: the packed signals go straight into their
        // bit-reversed slots (only `signal_len` are nonzero), so
        // `plan.forward` reduces to its butterflies.
        pair.z.clear();
        pair.z.resize(n, Complex::ZERO);
        for (j, (&a, &b)) in sig_a.iter().zip(sig_b).enumerate() {
            pair.z[plan.bit_reversed(j)] = Complex::new(a, b);
        }
        plan.butterflies(&mut pair.z);
        // Product, then `plan.inverse` unrolled: its conjugate and
        // permute passes fold into this loop's bit-reversed stores,
        // its final `conj·(1/n)` into the output split. Every slot of
        // `y` is written, so a warm buffer needs no clearing.
        pair.y.resize(n, Complex::ZERO);
        pair_product(plan, &pair.z, &pair.sum_spec, &pair.diff_spec, &mut pair.y);
        plan.butterflies(&mut pair.y);
        let inv_n = plan.inverse_scale();
        let y = &pair.y[..out_len];
        ca.out.clear();
        ca.out.extend(y.iter().map(|y| y.conj().scale(inv_n).re));
        cb.out.clear();
        cb.out.extend(y.iter().map(|y| y.conj().scale(inv_n).im));
        if let Some(start) = start {
            lrd_obs::histogram("fft.conv_us", start.elapsed().as_secs_f64() * 1e6);
            lrd_obs::counter("fft.convs", 2);
        }
        (&ca.out[..out_len], &cb.out[..out_len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn direct_known_values() {
        // [1,2,3] * [4,5] = [4, 13, 22, 15]
        let c = convolve_direct(&[1.0, 2.0, 3.0], &[4.0, 5.0]);
        assert_close(&c, &[4.0, 13.0, 22.0, 15.0], 1e-12);
    }

    #[test]
    fn identity_kernel() {
        let x = [3.0, -1.0, 2.5, 0.0, 7.0];
        let c = convolve_direct(&x, &[1.0]);
        assert_close(&c, &x, 1e-12);
    }

    #[test]
    fn fft_matches_direct() {
        for (la, lb) in [(1, 1), (3, 7), (17, 5), (100, 201), (64, 64), (1000, 2001)] {
            let a: Vec<f64> = (0..la).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
            let b: Vec<f64> = (0..lb).map(|i| ((i * 5) % 11) as f64 * 0.25).collect();
            let want = convolve_direct(&a, &b);
            let got = convolve_fft(&a, &b);
            assert_close(&got, &want, 1e-8);
        }
    }

    #[test]
    fn auto_path_matches() {
        let a: Vec<f64> = (0..500).map(|i| (i as f64 * 0.01).sin()).collect();
        let b: Vec<f64> = (0..999).map(|i| (i as f64 * 0.02).cos()).collect();
        assert_close(&convolve(&a, &b), &convolve_direct(&a, &b), 1e-8);
    }

    #[test]
    fn convolver_matches_free_function() {
        for &(lk, ls) in &[(5usize, 9usize), (101, 257), (513, 1024)] {
            let k: Vec<f64> = (0..lk).map(|i| (i as f64).sqrt()).collect();
            let s: Vec<f64> = (0..ls).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let mut cv = Convolver::new(&k, ls);
            assert_close(cv.conv(&s), &convolve_direct(&k, &s), 1e-8);
            // Call again to verify the scratch buffers are reusable.
            assert_close(cv.conv(&s), &convolve_direct(&k, &s), 1e-8);
        }
    }

    #[test]
    fn convolver_forced_fft_path() {
        // Sizes above the threshold: product 512*512 = 262144 > 65536.
        let k: Vec<f64> = (0..512).map(|i| ((i % 7) as f64) - 3.0).collect();
        let s: Vec<f64> = (0..512).map(|i| ((i % 5) as f64) * 0.5).collect();
        let mut cv = Convolver::new(&k, s.len());
        assert!(cv.plan.is_some(), "expected FFT path");
        assert_close(cv.conv(&s), &convolve_direct(&k, &s), 1e-7);
    }

    #[test]
    fn convolver_fft_path_steady_state_does_not_grow_buffers() {
        let k: Vec<f64> = (0..700).map(|i| (i as f64 * 0.013).sin() + 1.1).collect();
        let s: Vec<f64> = (0..300).map(|i| (i as f64 * 0.07).cos() + 1.1).collect();
        let mut cv = Convolver::new(&k, s.len());
        assert!(cv.plan.is_some(), "expected FFT path");
        let _ = cv.conv(&s);
        let path = cv.plan.as_ref().unwrap();
        let caps = (
            cv.out.capacity(),
            path.work.capacity(),
            path.signal_spectrum.capacity(),
        );
        for _ in 0..20 {
            let _ = cv.conv(&s);
        }
        let path = cv.plan.as_ref().unwrap();
        assert_eq!(
            caps,
            (
                cv.out.capacity(),
                path.work.capacity(),
                path.signal_spectrum.capacity(),
            ),
            "steady-state conv must not grow any buffer"
        );
    }

    #[test]
    fn plan_cache_shares_plans_between_convolvers() {
        let k: Vec<f64> = vec![0.25; 600];
        let a = Convolver::new(&k, 600);
        let b = Convolver::new(&k, 600);
        let (pa, pb) = (a.plan.as_ref().unwrap(), b.plan.as_ref().unwrap());
        assert!(
            Arc::ptr_eq(&pa.plan, &pb.plan),
            "same padded length must reuse the cached plan"
        );
    }

    #[test]
    fn probability_mass_preserved() {
        // Convolving two probability vectors yields a probability vector.
        let p = [0.2, 0.5, 0.3];
        let q = [0.1, 0.4, 0.4, 0.1];
        for c in [convolve_direct(&p, &q), convolve_fft(&p, &q)] {
            let total: f64 = c.iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!(c.iter().all(|&x| x >= -1e-12));
        }
    }

    #[test]
    fn commutativity() {
        let a = [1.0, -2.0, 3.0, 0.5];
        let b = [0.25, 4.0];
        assert_close(&convolve_direct(&a, &b), &convolve_direct(&b, &a), 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert!(convolve_direct(&[], &[1.0]).is_empty());
        assert!(convolve_fft(&[1.0], &[]).is_empty());
    }

    #[test]
    fn single_sample_inputs() {
        assert_close(&convolve_fft(&[3.0], &[0.5]), &[1.5], 1e-12);
    }

    #[test]
    fn edge_sizes_match_direct() {
        // M=2-style tiny grids, odd kernel lengths, and sizes that
        // straddle the padded spectrum-length boundaries (pow2-1,
        // pow2, pow2+1 outputs).
        let cases: &[(usize, usize)] = &[
            (2, 2),
            (5, 2),
            (2, 5),
            (3, 3),
            (7, 9),
            (31, 34),   // out 64 = pow2
            (31, 33),   // out 63
            (31, 35),   // out 65
            (257, 129), // solver shape at M=128: kernel 2M+1, signal M+1
            (513, 256),
        ];
        for &(lk, ls) in cases {
            let k: Vec<f64> = (0..lk).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
            let s: Vec<f64> = (0..ls).map(|i| ((i * 11) % 5) as f64 * 0.3).collect();
            let want = {
                // Reference: plain schoolbook sum, independent of the
                // blocked traversal under test.
                let mut out = vec![0.0; lk + ls - 1];
                for (i, &kv) in k.iter().enumerate() {
                    for (j, &sv) in s.iter().enumerate() {
                        out[i + j] += kv * sv;
                    }
                }
                out
            };
            assert_close(&convolve_direct(&k, &s), &want, 1e-9);
            assert_close(&convolve_fft(&k, &s), &want, 1e-8);
            let mut cv = Convolver::new(&k, ls);
            assert_close(cv.conv(&s), &want, 1e-8);
        }
    }

    #[test]
    fn conv_pair_matches_direct_reference() {
        // FFT-path pair: the batched packed-complex transform must
        // agree with the schoolbook result for both chains.
        let lk = 701;
        let ls = 350;
        let ka: Vec<f64> = (0..lk).map(|i| (i as f64 * 0.013).sin() + 0.2).collect();
        let kb: Vec<f64> = (0..lk).map(|i| (i as f64 * 0.029).cos() - 0.1).collect();
        let sa: Vec<f64> = (0..ls).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let sb: Vec<f64> = (0..ls).map(|i| ((i % 9) as f64) * 0.125).collect();
        let mut ca = Convolver::new(&ka, ls);
        let mut cb = Convolver::new(&kb, ls);
        assert!(ca.plan.is_some() && cb.plan.is_some(), "expected FFT path");
        let (ua, ub) = Convolver::conv_pair(&mut ca, &mut cb, &sa, &sb);
        let (wa, wb) = (convolve_direct(&ka, &sa), convolve_direct(&kb, &sb));
        assert_close(ua, &wa, 1e-7);
        assert_close(ub, &wb, 1e-7);
        // Repeat to exercise the cached pair path.
        let (ua, ub) = Convolver::conv_pair(&mut ca, &mut cb, &sa, &sb);
        assert_close(ua, &wa, 1e-7);
        assert_close(ub, &wb, 1e-7);
    }

    #[test]
    fn conv_pair_direct_fallback_matches_conv() {
        // Below the FFT threshold conv_pair must degrade to the exact
        // sequential per-chain direct path.
        let ka = [0.5, 0.25, 0.25];
        let kb = [0.1, 0.8, 0.1];
        let sa = [0.9, 0.1];
        let sb = [0.4, 0.6];
        let mut ca = Convolver::new(&ka, 2);
        let mut cb = Convolver::new(&kb, 2);
        assert!(ca.plan.is_none(), "expected direct path");
        let (ua, ub) = Convolver::conv_pair(&mut ca, &mut cb, &sa, &sb);
        let (ua, ub) = (ua.to_vec(), ub.to_vec());
        let mut ca2 = Convolver::new(&ka, 2);
        let mut cb2 = Convolver::new(&kb, 2);
        for (got, want) in ua.iter().zip(ca2.conv(&sa)) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        for (got, want) in ub.iter().zip(cb2.conv(&sb)) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn conv_pair_steady_state_does_not_grow_buffers() {
        let lk = 700;
        let ls = 300;
        let ka: Vec<f64> = (0..lk).map(|i| (i as f64 * 0.017).sin() + 1.1).collect();
        let kb: Vec<f64> = (0..lk).map(|i| (i as f64 * 0.011).cos() + 1.1).collect();
        let sa: Vec<f64> = (0..ls).map(|i| (i as f64 * 0.07).cos() + 1.1).collect();
        let sb: Vec<f64> = (0..ls).map(|i| (i as f64 * 0.05).sin() + 1.1).collect();
        let mut ca = Convolver::new(&ka, ls);
        let mut cb = Convolver::new(&kb, ls);
        let _ = Convolver::conv_pair(&mut ca, &mut cb, &sa, &sb);
        let pair = ca.pair.as_ref().unwrap();
        let caps = (
            ca.out.capacity(),
            cb.out.capacity(),
            pair.z.capacity(),
            pair.y.capacity(),
        );
        for _ in 0..20 {
            let _ = Convolver::conv_pair(&mut ca, &mut cb, &sa, &sb);
        }
        let pair = ca.pair.as_ref().unwrap();
        assert_eq!(
            caps,
            (
                ca.out.capacity(),
                cb.out.capacity(),
                pair.z.capacity(),
                pair.y.capacity(),
            ),
            "steady-state conv_pair must not grow any buffer"
        );
    }

    #[test]
    fn plan_cache_shares_plans_across_threads() {
        // The thread-local front must still hand out the *same* global
        // plan allocation on every thread.
        let k: Vec<f64> = vec![0.25; 600];
        let main_plan = Arc::clone(&Convolver::new(&k, 600).plan.as_ref().unwrap().plan);
        let other = std::thread::spawn(move || {
            let k: Vec<f64> = vec![0.25; 600];
            let cv = Convolver::new(&k, 600);
            let plan = cv.plan.as_ref().unwrap();
            Arc::ptr_eq(&main_plan, &plan.plan)
        })
        .join()
        .unwrap();
        assert!(other, "plan identity must hold across threads");
    }
}
