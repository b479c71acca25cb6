//! Chrome trace-event export of `--telemetry` captures.
//!
//! [`chrome_trace`] turns the records of one or more
//! [`JsonlSubscriber`](crate::JsonlSubscriber) captures, each line
//! parsed with [`parse_json`](crate::parse_json), into one Chrome
//! trace-event document: open it in `chrome://tracing` or Perfetto.
//!
//! * Every `span` record becomes a complete slice (`"ph":"X"`) starting
//!   at its `t_us` and lasting `dur_us`.
//! * Every `event` record becomes an instant (`"ph":"i"`).
//! * The record's `fields` become the slice's `args`.
//! * Each distinct `"who"` gets its own track.
//!
//! Counter, gauge and histogram records are aggregates with no place
//! on a timeline, so they are skipped. A capture's `meta` line anchors
//! its process-relative clock to wall time (`unix_us - t_us`), so
//! captures from several processes line up on one axis.

use std::collections::BTreeMap;

use crate::json::{write_json, write_json_string, Json};

/// Renders parsed capture records as a Chrome trace-event JSON
/// document (`{"traceEvents":[…]}`), one track per `"who"`, with
/// timestamps shifted so the earliest record starts at zero.
pub fn chrome_trace(records: &[Json]) -> String {
    fn kind(r: &Json) -> Option<&str> {
        r.get("kind").and_then(Json::as_str)
    }
    fn who(r: &Json) -> &str {
        r.get("who").and_then(Json::as_str).unwrap_or("")
    }
    fn num(r: &Json, key: &str) -> Option<f64> {
        r.get(key).and_then(Json::as_num)
    }

    // Per-process wall-clock offset from each capture's meta anchor.
    let mut offsets: BTreeMap<&str, f64> = BTreeMap::new();
    for r in records.iter().filter(|r| kind(r) == Some("meta")) {
        if let (Some(unix), Some(t)) = (num(r, "unix_us"), num(r, "t_us")) {
            offsets.insert(who(r), unix - t);
        }
    }
    let timed: Vec<(&Json, f64)> = records
        .iter()
        .filter(|r| matches!(kind(r), Some("span" | "event")))
        .map(|r| {
            let offset = offsets.get(who(r)).copied().unwrap_or(0.0);
            (r, num(r, "t_us").unwrap_or(0.0) + offset)
        })
        .collect();
    let t0 = timed
        .iter()
        .map(|&(_, ts)| ts)
        .fold(f64::INFINITY, f64::min);

    let mut tids: BTreeMap<&str, usize> = BTreeMap::new();
    for &(r, _) in &timed {
        let next = tids.len() + 1;
        tids.entry(who(r)).or_insert(next);
    }

    let mut lines = Vec::with_capacity(tids.len() + timed.len());
    for (name, tid) in &tids {
        let mut line = format!("{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid}");
        line.push_str(",\"args\":{\"name\":");
        write_json_string(&mut line, name);
        line.push_str("}}");
        lines.push(line);
    }
    for &(r, ts) in &timed {
        let mut line = String::from("{\"name\":");
        write_json_string(
            &mut line,
            r.get("name").and_then(Json::as_str).unwrap_or("?"),
        );
        let ts = ts - t0;
        if kind(r) == Some("span") {
            let dur = num(r, "dur_us").unwrap_or(0.0);
            line.push_str(&format!(",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3}"));
        } else {
            line.push_str(&format!(",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3}"));
        }
        line.push_str(&format!(",\"pid\":1,\"tid\":{},\"args\":", tids[who(r)]));
        match r.get("fields") {
            Some(fields @ Json::Obj(_)) => write_json(&mut line, fields),
            _ => line.push_str("{}"),
        }
        line.push('}');
        lines.push(line);
    }
    format!("{{\"traceEvents\":[{}]}}", lines.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_json;

    fn records(lines: &[&str]) -> Vec<Json> {
        lines.iter().map(|l| parse_json(l).unwrap()).collect()
    }

    fn phase_count(trace: &Json, ph: &str) -> usize {
        trace
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    }

    #[test]
    fn spans_become_slices_and_events_instants_per_process_track() {
        // Two processes whose clocks start at different wall times.
        let recs = records(&[
            r#"{"kind":"meta","t_us":0,"unix_us":1000000,"who":"pid-1"}"#,
            r#"{"kind":"span","t_us":10,"dur_us":5.5,"name":"solver.solve","fields":{"warm":true},"who":"pid-1"}"#,
            r#"{"kind":"event","t_us":12,"name":"solver.gap","fields":{"iteration":3},"who":"pid-1"}"#,
            r#"{"kind":"counter","name":"solver.iterations","value":7,"who":"pid-1"}"#,
            r#"{"kind":"meta","t_us":100,"unix_us":1000600,"who":"pid-2"}"#,
            r#"{"kind":"span","t_us":110,"dur_us":2,"name":"solver.level","fields":{},"who":"pid-2"}"#,
            r#"{"kind":"histogram","name":"fft.conv_us","count":1,"who":"pid-2"}"#,
        ]);
        let trace = parse_json(&chrome_trace(&recs)).unwrap();
        assert_eq!(phase_count(&trace, "X"), 2);
        assert_eq!(phase_count(&trace, "i"), 1);
        assert_eq!(phase_count(&trace, "M"), 2, "one track per process");

        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        let slice = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap()
        };
        // pid-1's span sits at wall 1000010, pid-2's at 1000610: the
        // anchors put them 600 µs apart on the shared axis.
        let solve = slice("solver.solve");
        assert_eq!(solve.get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(solve.get("dur").and_then(Json::as_f64), Some(5.5));
        assert_eq!(
            solve
                .get("args")
                .and_then(|a| a.get("warm"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let level = slice("solver.level");
        assert_eq!(level.get("ts").and_then(Json::as_f64), Some(600.0));
        assert_ne!(
            solve.get("tid").and_then(Json::as_u64),
            level.get("tid").and_then(Json::as_u64)
        );
    }

    #[test]
    fn empty_capture_renders_an_empty_trace() {
        let trace = parse_json(&chrome_trace(&[])).unwrap();
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }
}
