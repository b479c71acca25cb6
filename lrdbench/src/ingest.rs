//! `trace_ingest`: two-pass out-of-core `ingest_file` over a seeded
//! synthetic MTV `LRDPKT01` corpus of several files, written during
//! set-up and read back from a warm page cache. The reader, the binner
//! and the one-pass estimators do all the work; the solver does none.
//!
//! One operation ingests one file; a pass ingests the whole corpus.
//! Each report must count exactly the packets written, and its one-pass
//! Hurst estimates must equal the batch estimators run over the same
//! binned series (bit-equal for R/S and wavelet, within 1e-6 for
//! variance–time).

use std::path::{Path, PathBuf};
use std::time::Instant;

use lrd_stats::onepass::{onepass_rs_sizes, onepass_vt_sizes, MAX_ONEPASS_BLOCK};
use lrd_stats::{
    try_rs_estimate_with_sizes, try_variance_time_estimate_with_sizes, try_wavelet_estimate,
    Histogram, OnePassHurst, RunLengths,
};
use lrd_trace::{
    ingest_file, write_corpus, CorpusInfo, CorpusKind, CorpusSpec, IngestReport, RateBinner,
    TraceReader,
};

use crate::{run_passes, secs, Ctx, Outcome, SETUP_REPEATS};

/// Files in the corpus.
pub const FILES: usize = 8;

/// Rate bins per file (~590k packets, ~9 MiB each).
pub const BINS_PER_FILE: usize = 1 << 14;

/// Histogram bins of the ingestion report (the paper's 50).
const HISTOGRAM_BINS: usize = 50;

/// Tolerance of the variance–time comparison (Welford against
/// two-pass variance).
const VT_TOLERANCE: f64 = 1e-6;

/// One corpus file.
#[derive(Debug, Clone)]
pub struct CorpusFile {
    /// Where it was written.
    pub path: PathBuf,
    /// What the writer reported.
    pub info: CorpusInfo,
}

/// Writes the seeded corpus into `dir`.
pub fn write_files(
    dir: &Path,
    seed: u64,
    files: usize,
    bins: usize,
) -> Result<Vec<CorpusFile>, String> {
    (0..files)
        .map(|k| {
            let path = dir.join(format!("corpus-{k}.lrdpkt"));
            let spec = CorpusSpec {
                seed: seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(k as u64),
                ..CorpusSpec::new(CorpusKind::Mtv, bins)
            };
            let info =
                write_corpus(&path, &spec).map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(CorpusFile { path, info })
        })
        .collect()
}

/// Reads and bins a file into its rate series.
pub fn binned_series(file: &CorpusFile) -> Result<Vec<f64>, String> {
    let mut series = Vec::with_capacity(file.info.bins);
    let mut reader = TraceReader::open(&file.path).map_err(|e| e.to_string())?;
    let mut binner = RateBinner::new(file.info.dt).map_err(|e| e.to_string())?;
    while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
        binner.push(&record, |rate| series.push(rate));
    }
    binner.finish(|rate| series.push(rate));
    Ok(series)
}

/// The ingestion check: packet count, and one-pass estimates against
/// the batch estimators over `series`, the file's binned rates.
pub fn check_report(
    file: &CorpusFile,
    report: &IngestReport,
    series: &[f64],
) -> Result<(), String> {
    let name = file.path.display();
    if report.packets != file.info.packets {
        return Err(format!(
            "{name}: ingested {} packets, wrote {}",
            report.packets, file.info.packets
        ));
    }
    if report.bins != series.len() as u64 {
        return Err(format!(
            "{name}: {} bins ingested, series has {}",
            report.bins,
            series.len()
        ));
    }
    let n = series.len();
    let clamp = |r: Result<lrd_stats::HurstEstimate, _>| r.ok().map(|e| e.clamped());
    let rs = clamp(try_rs_estimate_with_sizes(
        series,
        &onepass_rs_sizes(n, MAX_ONEPASS_BLOCK),
    ));
    let vt = clamp(try_variance_time_estimate_with_sizes(
        series,
        &onepass_vt_sizes(n, MAX_ONEPASS_BLOCK),
    ));
    let wavelet = clamp(try_wavelet_estimate(series));
    let same_bits = |a: Option<f64>, b: Option<f64>| a.map(f64::to_bits) == b.map(f64::to_bits);
    if rs.is_none() || !same_bits(report.hurst_rs, rs) {
        return Err(format!(
            "{name}: one-pass R/S {:?} differs from batch {rs:?}",
            report.hurst_rs
        ));
    }
    if wavelet.is_none() || !same_bits(report.hurst_wavelet, wavelet) {
        return Err(format!(
            "{name}: one-pass wavelet {:?} differs from batch {wavelet:?}",
            report.hurst_wavelet
        ));
    }
    match (report.hurst_vt, vt) {
        (Some(a), Some(b)) if (a - b).abs() <= VT_TOLERANCE => Ok(()),
        (a, b) => Err(format!(
            "{name}: one-pass variance-time {a:?} differs from batch {b:?}"
        )),
    }
}

/// The parts of a report that must repeat bit-for-bit on every pass.
fn fingerprint(report: &IngestReport) -> [u64; 6] {
    let h = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
    [
        report.packets,
        report.bins,
        h(report.hurst_rs),
        h(report.hurst_vt),
        h(report.hurst_wavelet),
        report.mean_epoch.to_bits(),
    ]
}

/// Component timings of one traced pass (seconds).
#[derive(Debug, Default)]
struct Components {
    read_s: f64,
    bin_s: f64,
    onepass_s: f64,
    histogram_s: f64,
    bins: u64,
    bytes: u64,
}

/// Times the ingestion pipeline's pieces on `file` through their
/// public functions: a bare `TraceReader` scan, the scan plus the
/// `RateBinner`, `OnePassHurst` over the binned series, and the
/// histogram-plus-runs fill of the second pass.
fn time_components(
    ctx: &Ctx,
    op: u64,
    file: &CorpusFile,
    acc: &mut Components,
) -> Result<(), String> {
    let read_s = ctx
        .spans
        .time(op, 0, "trace.read", |_| -> Result<f64, String> {
            let t = Instant::now();
            let mut reader = TraceReader::open(&file.path).map_err(|e| e.to_string())?;
            while reader.next_record().map_err(|e| e.to_string())?.is_some() {}
            Ok(secs(t))
        })?;
    let t = Instant::now();
    let series = ctx
        .spans
        .time(op, 0, "trace.bin", |_| binned_series(file))?;
    let read_and_bin_s = secs(t);
    let t = Instant::now();
    let onepass = ctx.spans.time(op, 0, "stats.onepass", |_| {
        let mut onepass = OnePassHurst::new();
        for &v in &series {
            onepass.push(v);
        }
        let estimates = [
            onepass.rs_estimate().ok(),
            onepass.variance_time_estimate().ok(),
            onepass.wavelet_estimate().ok(),
        ];
        (onepass, estimates)
    });
    let onepass_s = secs(t);
    let summary = onepass.0.summary();
    let t = Instant::now();
    ctx.spans
        .time(op, 0, "stats.histogram", |_| -> Result<(), String> {
            let mut histogram = Histogram::try_new(summary.min(), summary.max(), HISTOGRAM_BINS)
                .map_err(|e| e.to_string())?;
            let mut runs = RunLengths::new();
            for &v in &series {
                histogram.add(v);
                runs.push(histogram.bin_index(v).unwrap_or(HISTOGRAM_BINS - 1));
            }
            std::hint::black_box((histogram, runs.mean()));
            Ok(())
        })?;
    acc.histogram_s += secs(t);
    acc.read_s += read_s;
    acc.bin_s += read_and_bin_s - read_s;
    acc.onepass_s += onepass_s;
    acc.bins += series.len() as u64;
    acc.bytes += file.info.file_bytes;
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ctx
        .out_dir()?
        .join(format!("corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = measure(ctx, &dir, &mut out);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    result.map(|()| out)
}

fn measure(ctx: &Ctx, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut files = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        files = write_files(dir, ctx.seed, FILES, BINS_PER_FILE)?;
        out.setup_s.push(secs(t));
    }

    lrd_trace::reset_peak_rss();
    let mut first: Vec<Option<[u64; 6]>> = vec![None; files.len()];
    let mut reports: Vec<Option<IngestReport>> = (0..files.len()).map(|_| None).collect();
    let mut parts = Components::default();
    let mut component_error = None;
    let tally = run_passes(ctx, out, 2, |op, traced, out| {
        let t = Instant::now();
        for (k, file) in files.iter().enumerate() {
            out.attempted += 1;
            let report = ctx.spans.time(op, 0, "trace.ingest_file", |_| {
                ingest_file(&file.path, file.info.dt, HISTOGRAM_BINS)
            });
            match report {
                Ok(report) => {
                    let print = fingerprint(&report);
                    let want = *first[k].get_or_insert(print);
                    out.check(want == print, || {
                        format!("{}: report changed between passes", file.path.display())
                    });
                    reports[k] = Some(report);
                }
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("{}: {e}", file.path.display()));
                }
            }
        }
        let wall = secs(t);
        if traced {
            for file in &files {
                if let Err(e) = time_components(ctx, op, file, &mut parts) {
                    component_error.get_or_insert(e);
                }
            }
        }
        wall
    });
    out.peak_rss_kib = crate::peak_rss_kib();
    if let Some(e) = component_error {
        out.check(false, || e);
    }

    for (file, report) in files.iter().zip(&reports) {
        let Some(report) = report else { continue };
        let verdict = binned_series(file).and_then(|series| check_report(file, report, &series));
        out.check(verdict.is_ok(), || verdict.unwrap_err());
    }

    if ctx.trace {
        let passes = out.traced_pass_s.len().max(1) as f64;
        out.layers.extend([
            ("trace.packets", tally.packets as f64 / passes),
            ("trace.read_s", parts.read_s / passes),
            (
                "trace.read_mib_per_s",
                parts.bytes as f64 / (1u64 << 20) as f64 / parts.read_s,
            ),
            ("trace.bin_s", parts.bin_s / passes),
            ("trace.ingest_s", tally.ingest_us / 1e6 / passes),
            ("stats.onepass_s", parts.onepass_s / passes),
            (
                "stats.onepass_ns_per_bin",
                parts.onepass_s * 1e9 / parts.bins.max(1) as f64,
            ),
            ("stats.histogram_s", parts.histogram_s / passes),
        ]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ingest_check_fails_on_a_corrupted_reference() {
        let dir = std::env::temp_dir().join(format!("lrdbench-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files = write_files(&dir, 5, 1, 1 << 12).unwrap();
        let file = &files[0];
        let report = ingest_file(&file.path, file.info.dt, HISTOGRAM_BINS).unwrap();
        let series = binned_series(file).unwrap();
        assert_eq!(check_report(file, &report, &series), Ok(()));

        // A corpus that claims one packet more than was written.
        let mut miscounted = file.clone();
        miscounted.info.packets += 1;
        assert!(check_report(&miscounted, &report, &series).is_err());
        // A binned series with one sample perturbed moves the batch
        // estimates off the one-pass ones.
        let mut perturbed = series.clone();
        perturbed[series.len() / 3] *= 1.5;
        assert!(check_report(file, &report, &perturbed).is_err());
        // A report whose R/S estimate is one ulp off.
        let mut off = ingest_file(&file.path, file.info.dt, HISTOGRAM_BINS).unwrap();
        off.hurst_rs = off.hurst_rs.map(|h| f64::from_bits(h.to_bits() + 1));
        assert!(check_report(file, &off, &series).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
