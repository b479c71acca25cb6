//! Minimal fast Fourier transform and convolution kernels.
//!
//! The Grossglauser–Bolot loss solver iterates a discrete Lindley
//! recursion whose inner step is a linear convolution between the queue
//! occupancy vector (length `M + 1`) and the per-interval work increment
//! vector (length `2M + 1`). The paper notes that this convolution can
//! be computed "using a fast Fourier transform (FFT) with appropriate
//! zero-padding, which reduces the computational complexity from
//! `O(M²)` to `O(M log M)`" — this crate supplies exactly that, plus a
//! cache-friendly direct convolution used automatically for small sizes.
//!
//! The implementation is deliberately plain (iterative radix-2
//! decimation-in-time with precomputed twiddle tables, run in L1-sized
//! blocks); following the smoltcp design ethos, simplicity and
//! robustness beat cleverness, and the solver's grids are always
//! padded to powers of two anyway.

#![warn(missing_docs)]

mod complex;
mod convolve;
pub mod simd;
mod transform;

pub use complex::Complex;
pub use convolve::{
    convolve, convolve_direct, convolve_fft, shared_complex_plan, shared_real_plan, Convolver,
};
pub use simd::SimdLevel;
pub use transform::{fft, ifft, next_pow2, Fft, RealFft};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_smoke() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 5.0];
        let c = convolve(&a, &b);
        assert_eq!(c.len(), 4);
        assert!((c[0] - 4.0).abs() < 1e-12);
        assert!((c[3] - 15.0).abs() < 1e-12);
    }
}
