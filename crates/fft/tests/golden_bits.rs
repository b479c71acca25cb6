//! Golden-bits regression guard for the transform and convolution
//! paths at the loss solver's sizes.
//!
//! Every constant below is an FNV-1a fold of the raw `f64` bit
//! patterns of one output, recorded before the butterfly cascade was
//! cache-blocked and the bit reversal folded into the convolution
//! scatters. Those rewrites promise to move **no** output bit, so any
//! mismatch here is a behaviour change, not round-off noise. The folds
//! hold for every SIMD level: the vectorized kernels are bit-identical
//! to the scalar ones (see `lrd_fft::simd`), and CI runs this crate's
//! tests a second time with `LRD_SIMD=off`. They were recorded on
//! x86-64 Linux; the twiddles come from the platform's `sin`/`cos`, so
//! another libm may need its own recording.

use lrd_fft::{Complex, Convolver, Fft};

/// FNV-1a over the 64-bit patterns of `xs`, continuing from `acc`.
fn fold(mut acc: u64, xs: &[f64]) -> u64 {
    for x in xs {
        acc ^= x.to_bits();
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A positive, normalized solver-shaped vector (occupancy or
/// work-increment distribution) of length `n`.
fn probability_vector(n: usize, phase: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n)
        .map(|i| ((i as f64 * phase).sin() + 1.1).max(0.0))
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|v| v / total).collect()
}

/// Fold of one `conv_pair` call at grid size `m`: kernels `2m+1`,
/// signals `m+1`, both outputs folded in order (chain A, then B).
fn conv_pair_fold(m: usize) -> u64 {
    let kernel_a = probability_vector(2 * m + 1, 0.37);
    let kernel_b = probability_vector(2 * m + 1, 0.41);
    let sig_a = probability_vector(m + 1, 0.73);
    let sig_b = probability_vector(m + 1, 0.79);
    let mut ca = Convolver::new(&kernel_a, m + 1);
    let mut cb = Convolver::new(&kernel_b, m + 1);
    // Twice: the second call runs on warm (dirty) scratch buffers.
    let _ = Convolver::conv_pair(&mut ca, &mut cb, &sig_a, &sig_b);
    let (a, b) = Convolver::conv_pair(&mut ca, &mut cb, &sig_a, &sig_b);
    fold(fold(FNV_OFFSET, a), b)
}

/// Fold of one single-chain `Convolver::conv` (the real-FFT path).
fn conv_fold(m: usize) -> u64 {
    let kernel = probability_vector(2 * m + 1, 0.37);
    let signal = probability_vector(m + 1, 0.73);
    let mut cv = Convolver::new(&kernel, m + 1);
    let _ = cv.conv(&signal);
    fold(FNV_OFFSET, cv.conv(&signal))
}

/// Fold of a forward then inverse complex transform of length `n`
/// (both results folded, re/im interleaved).
fn fft_roundtrip_fold(n: usize) -> u64 {
    let plan = Fft::new(n);
    let mut data: Vec<Complex> = (0..n)
        .map(|i| Complex::new((i as f64 * 0.61).sin(), (i as f64 * 0.23).cos()))
        .collect();
    let interleaved = |d: &[Complex]| -> Vec<f64> { d.iter().flat_map(|z| [z.re, z.im]).collect() };
    plan.forward(&mut data);
    let acc = fold(FNV_OFFSET, &interleaved(&data));
    plan.inverse(&mut data);
    fold(acc, &interleaved(&data))
}

#[test]
fn conv_pair_bits_are_pinned_at_solver_sizes() {
    for (m, want) in [
        (256usize, 0x6d19_bcb7_50fc_7368u64),
        (1024, 0x916b_6a4a_e542_45cf),
        (8192, 0xfe50_2f43_e546_9726),
    ] {
        let got = conv_pair_fold(m);
        assert_eq!(
            got, want,
            "conv_pair M={m}: fold {got:#018x}, pinned {want:#018x}"
        );
    }
}

#[test]
fn real_fft_conv_bits_are_pinned() {
    for (m, want) in [
        (1024usize, 0xd231_03c9_bd8d_6e28u64),
        (8192, 0xba6d_1978_0858_826b),
    ] {
        let got = conv_fold(m);
        assert_eq!(
            got, want,
            "conv M={m}: fold {got:#018x}, pinned {want:#018x}"
        );
    }
}

#[test]
fn complex_fft_bits_are_pinned_above_the_block_size() {
    for (n, want) in [
        (1024usize, 0x8f5f_9adf_fe36_a9a5u64),
        (32768, 0xba1f_3a94_338a_197f),
        (65536, 0x15a0_654e_c0b3_10f2),
    ] {
        let got = fft_roundtrip_fold(n);
        assert_eq!(
            got, want,
            "fft n={n}: fold {got:#018x}, pinned {want:#018x}"
        );
    }
}
