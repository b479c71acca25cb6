//! Out-of-core packet-trace ingestion.
//!
//! The paper fits its queueing model from *measured traces* — the MTV
//! video trace and the Bellcore Ethernet trace — and real captures of
//! that kind run to gigabytes. This crate is the path from such a file
//! to the three statistics the solver consumes (50-bin marginal, Hurst
//! parameter, mean epoch duration), holding only O(chunk + estimator)
//! state however large the file:
//!
//! * [`format`](mod@format) — the `LRDPKT01` binary record format with a
//!   back-patched record count, a buffered [`TraceWriter`], and a
//!   chunk-buffered validating [`TraceReader`];
//! * [`binner`] — online packet → fixed-`dt` rate reduction with
//!   zero-fill for idle gaps ([`RateBinner`]);
//! * [`ingest`] — the two-pass bounded-memory pipeline producing an
//!   [`IngestReport`] via the one-pass estimators in `lrd_stats`;
//! * [`synth`] — deterministic multi-gigabyte corpus generation from
//!   the published-statistics trace stand-ins, plus [`peak_rss_kb`]
//!   for the benches' memory-ceiling evidence.
//!
//! The `lrd-trace` binary fronts all of it: `gen` writes a corpus,
//! `info` validates a file, `hurst` runs the full ingestion report.

pub mod binner;
pub mod error;
pub mod format;
pub mod ingest;
pub mod synth;

pub use binner::RateBinner;
pub use error::TraceError;
pub use format::{PacketRecord, TraceReader, TraceWriter};
pub use ingest::{ingest_file, IngestReport};
pub use synth::{peak_rss_kb, reset_peak_rss, write_corpus, CorpusInfo, CorpusKind, CorpusSpec};
