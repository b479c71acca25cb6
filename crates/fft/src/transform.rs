//! Iterative radix-2 decimation-in-time FFT.
//!
//! [`Fft`] precomputes the bit-reversal permutation and twiddle factors
//! for a fixed power-of-two size so that repeated transforms (the loss
//! solver transforms the same-size vectors hundreds of times per solve)
//! pay the trigonometry cost once.

use crate::complex::Complex;

/// Returns the smallest power of two `>= n` (and `>= 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// A planned FFT of fixed power-of-two length.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// Twiddle factors `e^{-2πik/n}` for `k in 0..n/2`.
    twiddles: Vec<Complex>,
    /// Bit-reversal permutation of `0..n`.
    rev: Vec<u32>,
}

impl Fft {
    /// Plans a transform of length `n`, which must be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        assert!(n <= u32::MAX as usize, "FFT length too large");
        let twiddles = (0..n / 2)
            .map(|k| Complex::from_polar_unit(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        Fft { n, twiddles, rev }
    }

    /// The planned transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the planned length is zero (it never is; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward transform: `X[k] = Σ_j x[j] e^{-2πijk/n}`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn forward(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        self.permute(data);
        self.butterflies(data);
    }

    /// In-place inverse transform, including the `1/n` normalization:
    /// `x[j] = (1/n) Σ_k X[k] e^{+2πijk/n}`.
    pub fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        // ifft(x) = conj(fft(conj(x))) / n
        for z in data.iter_mut() {
            *z = z.conj();
        }
        self.permute(data);
        self.butterflies(data);
        let inv_n = self.inverse_scale();
        for z in data.iter_mut() {
            *z = z.conj().scale(inv_n);
        }
    }

    fn permute(&self, data: &mut [Complex]) {
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    /// The slot [`Fft::forward`]'s bit-reversal permutation moves
    /// natural index `i` to. Fused callers scatter straight into these
    /// slots and then run [`Fft::butterflies`], skipping the separate
    /// copy and permute passes without changing a bit.
    pub(crate) fn bit_reversed(&self, i: usize) -> usize {
        self.rev[i] as usize
    }

    /// The butterfly cascade alone, over data already in bit-reversed
    /// order; the result is in natural order.
    pub(crate) fn butterflies(&self, data: &mut [Complex]) {
        debug_assert_eq!(data.len(), self.n);
        crate::simd::butterflies(data, &self.twiddles);
    }

    /// The `1/n` of [`Fft::inverse`]'s final `conj(·)·(1/n)` pass.
    pub(crate) fn inverse_scale(&self) -> f64 {
        1.0 / self.n as f64
    }
}

/// A planned FFT of real input of fixed power-of-two length `n >= 2`,
/// computed with the classic N/2 trick: the even/odd samples are
/// packed into one complex vector of length `n/2`, transformed with a
/// half-size complex FFT, and the spectrum is untangled from the
/// hermitian symmetry. Compared to a full complex transform of the
/// zero-padded real input this halves the butterfly work — the
/// dominant per-iteration cost of the loss solver's convolutions.
///
/// The spectrum is produced **unpacked** as `n/2 + 1` complex bins
/// (`X[0]` and `X[n/2]` real), so that pointwise products of two
/// spectra — the convolution theorem — are plain complex multiplies
/// with no special-cased Nyquist bin.
///
/// Both directions take caller-owned scratch and output buffers and
/// perform no allocation once those have reached capacity; the
/// [`Convolver`](crate::Convolver) holds them persistently.
#[derive(Debug, Clone)]
pub struct RealFft {
    n: usize,
    half: Fft,
    /// Untangling twiddles `e^{-2πik/n}` for `k in 0..=n/2`.
    twiddles: Vec<Complex>,
}

impl RealFft {
    /// Plans a real transform of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "real FFT length must be at least 2, got {n}");
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        let half = Fft::new(n / 2);
        let twiddles = (0..=n / 2)
            .map(|k| Complex::from_polar_unit(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        RealFft { n, half, twiddles }
    }

    /// The planned real input length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the planned length is zero (it never is; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of spectrum bins produced: `n/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward transform of `input`, implicitly zero-padded to the
    /// planned length; the first `spectrum_len()` bins of the full
    /// hermitian spectrum land in `spectrum`. `work` is scratch; both
    /// output buffers are resized as needed (no allocation once warm).
    ///
    /// # Panics
    ///
    /// Panics if `input` is longer than the planned length.
    pub fn forward(&self, input: &[f64], work: &mut Vec<Complex>, spectrum: &mut Vec<Complex>) {
        assert!(
            input.len() <= self.n,
            "real FFT input length {} exceeds planned length {}",
            input.len(),
            self.n
        );
        let h = self.n / 2;
        // Pack z[j] = x[2j] + i·x[2j+1] (absent samples are zero)
        // straight into its bit-reversed slot, so only the butterflies
        // of `half.forward` remain.
        work.clear();
        work.resize(h, Complex::ZERO);
        for (j, pair) in input.chunks(2).enumerate() {
            let im = pair.get(1).copied().unwrap_or(0.0);
            work[self.half.bit_reversed(j)] = Complex::new(pair[0], im);
        }
        self.half.butterflies(work);
        // Untangle: with Z = fft(z) and Z[h] := Z[0],
        //   Xe[k] = (Z[k] + conj(Z[h−k]))/2        (spectrum of evens)
        //   Xo[k] = −i·(Z[k] − conj(Z[h−k]))/2     (spectrum of odds)
        //   X[k]  = Xe[k] + e^{−2πik/n}·Xo[k],  k = 0..=h.
        spectrum.clear();
        spectrum.resize(h + 1, Complex::ZERO);
        for k in 0..=h {
            let zk = work[k % h];
            let zr = work[(h - k) % h].conj();
            let even = (zk + zr).scale(0.5);
            let odd = Complex::new(0.0, -0.5) * (zk - zr);
            spectrum[k] = even + self.twiddles[k] * odd;
        }
    }

    /// Inverse transform: reconstructs the `n` real samples from the
    /// `spectrum_len()` hermitian spectrum bins into `output`. `work`
    /// is scratch; both output buffers are resized as needed.
    ///
    /// # Panics
    ///
    /// Panics if `spectrum.len()` differs from [`RealFft::spectrum_len`].
    pub fn inverse(&self, spectrum: &[Complex], work: &mut Vec<Complex>, output: &mut Vec<f64>) {
        assert_eq!(
            spectrum.len(),
            self.spectrum_len(),
            "real FFT spectrum length mismatch"
        );
        let h = self.n / 2;
        // Re-tangle: Z[k] = Xe[k] + i·Xo[k] with
        //   Xe[k] = (X[k] + conj(X[h−k]))/2
        //   Xo[k] = e^{+2πik/n}·(X[k] − conj(X[h−k]))/2,  k = 0..h−1.
        // `half.inverse` is conj → permute → butterflies → conj·(1/h):
        // the first two land in the re-tangle's bit-reversed stores,
        // the last in the output split. Every slot is overwritten, so
        // a warm `work` needs no clearing.
        work.resize(h, Complex::ZERO);
        for k in 0..h {
            let xk = spectrum[k];
            let xr = spectrum[h - k].conj();
            let even = (xk + xr).scale(0.5);
            let odd = self.twiddles[k].conj() * (xk - xr).scale(0.5);
            work[self.half.bit_reversed(k)] = (even + Complex::new(0.0, 1.0) * odd).conj();
        }
        self.half.butterflies(work);
        let inv_h = self.half.inverse_scale();
        output.clear();
        output.resize(self.n, 0.0);
        for (j, z) in work.iter().enumerate() {
            let z = z.conj().scale(inv_h);
            output[2 * j] = z.re;
            output[2 * j + 1] = z.im;
        }
    }
}

/// One-shot forward FFT of a power-of-two-length buffer.
pub fn fft(data: &mut [Complex]) {
    Fft::new(data.len()).forward(data);
}

/// One-shot inverse FFT (normalized) of a power-of-two-length buffer.
pub fn ifft(data: &mut [Complex]) {
    Fft::new(data.len()).inverse(data);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n²) DFT used as the reference implementation.
    fn dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let theta = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                    acc += v * Complex::from_polar_unit(theta);
                }
                acc
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "mismatch at {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let want = dft(&x);
            let mut got = x.clone();
            fft(&mut got);
            assert_close(&got, &want, 1e-9 * n as f64);
        }
    }

    #[test]
    fn roundtrip() {
        for &n in &[1usize, 2, 8, 128, 1024] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
                .collect();
            let mut y = x.clone();
            fft(&mut y);
            ifft(&mut y);
            assert_close(&y, &x, 1e-9 * n as f64);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        fft(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12);
            assert!(z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_has_dc_only() {
        let mut x = vec![Complex::ONE; 32];
        fft(&mut x);
        assert!((x[0].re - 32.0).abs() < 1e-10);
        for z in &x[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval() {
        let n = 256;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.1).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x.clone();
        fft(&mut y);
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();

        let plan = Fft::new(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        plan.forward(&mut fs);
        for i in 0..n {
            assert!((fs[i] - (fa[i] + fb[i])).abs() < 1e-8);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        Fft::new(12);
    }

    #[test]
    fn real_fft_matches_complex_fft() {
        for &n in &[2usize, 4, 8, 16, 64, 256, 1024] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() + 0.3).collect();
            // Reference: full complex transform, first n/2+1 bins.
            let mut full: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
            fft(&mut full);
            let plan = RealFft::new(n);
            let (mut work, mut spectrum) = (Vec::new(), Vec::new());
            plan.forward(&x, &mut work, &mut spectrum);
            assert_eq!(spectrum.len(), n / 2 + 1);
            assert_close(&spectrum, &full[..=n / 2], 1e-9 * n as f64);
        }
    }

    #[test]
    fn real_fft_zero_pads_short_input() {
        let n = 32;
        let x: Vec<f64> = (0..13).map(|i| i as f64 - 6.0).collect();
        let mut padded: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        padded.resize(n, Complex::ZERO);
        fft(&mut padded);
        let plan = RealFft::new(n);
        let (mut work, mut spectrum) = (Vec::new(), Vec::new());
        plan.forward(&x, &mut work, &mut spectrum);
        assert_close(&spectrum, &padded[..=n / 2], 1e-10);
    }

    #[test]
    fn real_fft_roundtrip() {
        for &n in &[2usize, 8, 128, 2048] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).cos() * (i % 5) as f64).collect();
            let plan = RealFft::new(n);
            let (mut work, mut spectrum, mut out) = (Vec::new(), Vec::new(), Vec::new());
            plan.forward(&x, &mut work, &mut spectrum);
            plan.inverse(&spectrum, &mut work, &mut out);
            assert_eq!(out.len(), n);
            for (i, (a, b)) in x.iter().zip(&out).enumerate() {
                assert!((a - b).abs() < 1e-9 * n as f64, "mismatch at {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn real_fft_buffers_do_not_grow_on_reuse() {
        let plan = RealFft::new(64);
        let x = vec![1.0; 64];
        let (mut work, mut spectrum, mut out) = (Vec::new(), Vec::new(), Vec::new());
        plan.forward(&x, &mut work, &mut spectrum);
        plan.inverse(&spectrum, &mut work, &mut out);
        let caps = (work.capacity(), spectrum.capacity(), out.capacity());
        for _ in 0..10 {
            plan.forward(&x, &mut work, &mut spectrum);
            plan.inverse(&spectrum, &mut work, &mut out);
        }
        assert_eq!(caps, (work.capacity(), spectrum.capacity(), out.capacity()));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn real_fft_rejects_length_one() {
        RealFft::new(1);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1023), 1024);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(next_pow2(1025), 2048);
    }
}
