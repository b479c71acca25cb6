//! Run-length analysis of quantized series.
//!
//! The paper calibrates the truncated-Pareto scale `θ` by "first
//! comput\[ing\] the average number of consecutive samples in the trace
//! that fall within the same histogram bin" (Sec. III) — the **mean
//! epoch duration** — and then matching the model's mean interval
//! length (Eq. 25) to it.

/// Mean length (in samples) of maximal runs of equal consecutive values.
///
/// Returns `NaN` for an empty input; a single sample counts as one run
/// of length 1.
pub fn mean_run_length(labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return f64::NAN;
    }
    let mut runs = 1u64;
    for w in labels.windows(2) {
        if w[0] != w[1] {
            runs += 1;
        }
    }
    labels.len() as f64 / runs as f64
}

/// One-pass counterpart of [`mean_run_length`]: O(1) state, so
/// out-of-core ingestion can measure epoch durations while streaming a
/// quantized series it never materializes.
#[derive(Debug, Clone, Default)]
pub struct RunLengths {
    samples: u64,
    runs: u64,
    prev: Option<usize>,
}

impl RunLengths {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunLengths::default()
    }

    /// Absorbs the next quantized sample.
    pub fn push(&mut self, label: usize) {
        if self.prev != Some(label) {
            self.runs += 1;
        }
        self.prev = Some(label);
        self.samples += 1;
    }

    /// Samples absorbed so far.
    pub fn count(&self) -> u64 {
        self.samples
    }

    /// Mean run length so far; `NaN` before the first sample —
    /// identical to [`mean_run_length`] over the same sequence.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            return f64::NAN;
        }
        self.samples as f64 / self.runs as f64
    }
}

/// The lengths of every maximal run, in order of appearance.
pub fn run_lengths(labels: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut iter = labels.iter();
    let Some(&first) = iter.next() else {
        return out;
    };
    let mut current = first;
    let mut len = 1usize;
    for &l in iter {
        if l == current {
            len += 1;
        } else {
            out.push(len);
            current = l;
            len = 1;
        }
    }
    out.push(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_distinct() {
        assert_eq!(mean_run_length(&[1, 2, 3, 4]), 1.0);
        assert_eq!(run_lengths(&[1, 2, 3, 4]), vec![1, 1, 1, 1]);
    }

    #[test]
    fn all_equal() {
        assert_eq!(mean_run_length(&[7, 7, 7, 7, 7]), 5.0);
        assert_eq!(run_lengths(&[7, 7, 7]), vec![3]);
    }

    #[test]
    fn mixed_runs() {
        // runs: [0,0] [1] [1]? no: [0,0],[1,1,1],[0]  -> lengths 2,3,1
        let labels = [0, 0, 1, 1, 1, 0];
        assert_eq!(run_lengths(&labels), vec![2, 3, 1]);
        assert!((mean_run_length(&labels) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        assert!(mean_run_length(&[]).is_nan());
        assert!(run_lengths(&[]).is_empty());
    }

    #[test]
    fn online_accumulator_matches_the_batch_function() {
        let labels: Vec<usize> = (0..1000).map(|i| (i * i / 13) % 7).collect();
        let mut online = RunLengths::new();
        for &l in &labels {
            online.push(l);
        }
        assert_eq!(online.count(), labels.len() as u64);
        assert_eq!(online.mean().to_bits(), mean_run_length(&labels).to_bits());
        assert!(RunLengths::new().mean().is_nan());
    }

    #[test]
    fn run_lengths_sum_to_total() {
        let labels: Vec<usize> = (0..1000).map(|i| (i / 7) % 5).collect();
        let lens = run_lengths(&labels);
        assert_eq!(lens.iter().sum::<usize>(), labels.len());
    }
}
