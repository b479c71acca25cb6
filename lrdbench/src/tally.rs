//! The program's own telemetry, reduced to what the per-layer metrics
//! need.
//!
//! The benchmark adds no instrumentation to the program: it installs a
//! [`CollectingSubscriber`] around traced passes and reads back the
//! spans, counters and histograms the layers already emit
//! (`fft.conv_us`/`fft.convs`, `solver.solve`/`solver.level`,
//! `solver.iterations`/`solver.refines`, `trace.ingest`/`trace.packets`,
//! `serve.query`).

use lrd_obs::{CollectingSubscriber, Record};

/// Raw per-layer sums from one stretch of collected telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// `fft.conv_us` samples (one per `conv` or `conv_pair` call).
    pub conv_calls: u64,
    /// The `fft.convs` counter (`conv_pair` adds 2).
    pub convs: u64,
    /// Sum of `fft.conv_us` samples.
    pub conv_us: f64,
    /// `solver.iterations` counter.
    pub iterations: u64,
    /// `solver.refines` counter.
    pub refines: u64,
    /// Largest final grid of any `solver.solve` span.
    pub max_bins: u64,
    /// `solver.solve` spans that ended unconverged.
    pub unconverged: u64,
    /// `solver.solve` span durations (µs), one per solve.
    pub solve_us: Vec<f64>,
    /// Sum of `solver.level` span durations (µs).
    pub level_us: f64,
    /// `trace.packets` counter.
    pub packets: u64,
    /// Sum of `trace.ingest` span durations (µs).
    pub ingest_us: f64,
    /// `serve.query` spans in completion order: (request kind, µs).
    pub queries: Vec<(String, f64)>,
}

impl Tally {
    /// Reduces everything `collector` holds, then clears it.
    pub fn drain(collector: &CollectingSubscriber) -> Tally {
        let metrics = collector.snapshot();
        let mut t = Tally {
            convs: metrics.counter("fft.convs").unwrap_or(0),
            iterations: metrics.counter("solver.iterations").unwrap_or(0),
            refines: metrics.counter("solver.refines").unwrap_or(0),
            packets: metrics.counter("trace.packets").unwrap_or(0),
            ..Tally::default()
        };
        if let Some(h) = metrics.histogram("fft.conv_us") {
            t.conv_calls = h.count();
            t.conv_us = h.sum();
        }
        for record in collector.records() {
            let Record::Span { name, dur_us, .. } = &record else {
                continue;
            };
            match *name {
                "solver.solve" => {
                    t.solve_us.push(*dur_us);
                    let bins = record.field("bins").and_then(|v| v.as_u64()).unwrap_or(0);
                    t.max_bins = t.max_bins.max(bins);
                    if record.field("converged").and_then(|v| v.as_bool()) == Some(false) {
                        t.unconverged += 1;
                    }
                }
                "solver.level" => t.level_us += dur_us,
                "trace.ingest" => t.ingest_us += dur_us,
                "serve.query" => {
                    let kind = record.field("kind").and_then(|v| v.as_str()).unwrap_or("?");
                    t.queries.push((kind.to_string(), *dur_us));
                }
                _ => {}
            }
        }
        collector.clear();
        t
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: Tally) {
        self.conv_calls += other.conv_calls;
        self.convs += other.convs;
        self.conv_us += other.conv_us;
        self.iterations += other.iterations;
        self.refines += other.refines;
        self.max_bins = self.max_bins.max(other.max_bins);
        self.unconverged += other.unconverged;
        self.solve_us.extend(other.solve_us);
        self.level_us += other.level_us;
        self.packets += other.packets;
        self.ingest_us += other.ingest_us;
        self.queries.extend(other.queries);
    }

    /// One-line text form, for the daemon to hand its tally to the
    /// benchmark over stdout.
    pub fn to_line(&self) -> String {
        let floats = |xs: &mut dyn Iterator<Item = f64>| {
            xs.map(|x| format!("{x:?}")).collect::<Vec<_>>().join(",")
        };
        format!(
            "tally {} {} {:?} {} {} {} {} {:?} {} {:?} [{}] [{}]",
            self.conv_calls,
            self.convs,
            self.conv_us,
            self.iterations,
            self.refines,
            self.max_bins,
            self.unconverged,
            self.level_us,
            self.packets,
            self.ingest_us,
            floats(&mut self.solve_us.iter().copied()),
            self.queries
                .iter()
                .map(|(k, us)| format!("{k}:{us:?}"))
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    /// Parses [`Self::to_line`].
    pub fn parse(line: &str) -> Result<Tally, String> {
        let bad = || format!("malformed tally line {line:?}");
        let f: Vec<&str> = line.split(' ').collect();
        if f.len() != 13 || f[0] != "tally" {
            return Err(bad());
        }
        let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let float = |s: &str| s.parse::<f64>().map_err(|_| bad());
        fn list(s: &str) -> Option<Vec<&str>> {
            let inner = s.strip_prefix('[')?.strip_suffix(']')?;
            Some(inner.split(',').filter(|s| !s.is_empty()).collect())
        }
        let mut queries = Vec::new();
        for q in list(f[12]).ok_or_else(bad)? {
            let (kind, us) = q.split_once(':').ok_or_else(bad)?;
            queries.push((kind.to_string(), float(us)?));
        }
        Ok(Tally {
            conv_calls: int(f[1])?,
            convs: int(f[2])?,
            conv_us: float(f[3])?,
            iterations: int(f[4])?,
            refines: int(f[5])?,
            max_bins: int(f[6])?,
            unconverged: int(f[7])?,
            level_us: float(f[8])?,
            packets: int(f[9])?,
            ingest_us: float(f[10])?,
            solve_us: list(f[11])
                .ok_or_else(bad)?
                .into_iter()
                .map(float)
                .collect::<Result<_, _>>()?,
            queries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_line_form_round_trips() {
        let t = Tally {
            conv_calls: 3,
            convs: 5,
            conv_us: 12.25,
            iterations: 40,
            refines: 2,
            max_bins: 512,
            unconverged: 1,
            solve_us: vec![1.5, 2.0e-3],
            level_us: 0.1,
            packets: 99,
            ingest_us: 7.0,
            queries: vec![("loss_bound".into(), 31.5), ("solve".into(), 850.0)],
        };
        assert_eq!(Tally::parse(&t.to_line()), Ok(t));
        assert_eq!(
            Tally::parse(&Tally::default().to_line()),
            Ok(Tally::default())
        );
        assert!(Tally::parse("tally 1 2").is_err());
    }
}
