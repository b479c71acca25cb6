//! Append-only JSONL checkpoint files: one manifest line, then one
//! line per completed point.
//!
//! Format (one JSON object per line, written with the bit-exact
//! writers from [`lrd_obs::json`]):
//!
//! ```text
//! {"kind":"manifest","figure":"fig04_mtv_model","plan_hash":"…",
//!  "profile":"quick","shard":0,"shard_count":2,"points":12,
//!  "value_label":"loss_rate","axes":[{"name":"buffer_s","values":[…]}]}
//! {"kind":"point","index":0,"coords":[0.05,0.01],"value":1.2e-4,
//!  "iterations":412,"bins":256,"converged":true,"solve_us":5312.75}
//! ```
//!
//! The manifest records the plan identity ([`SweepPlan::hash_hex`]) so
//! resume and merge can refuse files from a different plan; the axes
//! are also embedded verbatim so a checkpoint is self-describing, but
//! the hash is what validation trusts. Two retired manifest shapes are
//! refused as malformed, naming the key, rather than read as
//! round-robin: the cost-weighted planner's explicit `"owned":[…]`
//! point set, and the work-stealing worker's `"mode":"steal"` (whose
//! file could hold any lattice point). Finite `f64`s are written in the
//! shortest exact representation and non-finite coordinates
//! (`T_c = ∞`) as the strings `"inf"` / `"-inf"`, so every value
//! round-trips bit-identically — the property that lets a merged
//! surface match a single-host run to the last bit.
//!
//! Point lines carry the measured wall-clock solve duration
//! (`solve_us`, read from the point's `solver.solve` telemetry span)
//! when the producing runner captured one. The field is informational
//! only: it never enters the plan hash, ownership validation, or the
//! merged surface values, and checkpoints written before the field
//! existed parse exactly as they used to ([`PointResult::solve_us`]
//! stays `None`).
//!
//! A process killed mid-write leaves at most one torn *final* line;
//! [`read_checkpoint`] tolerates exactly that (reporting it via
//! [`Checkpoint::truncated_tail`]) and rejects malformation anywhere
//! else. The one other kill artifact is a file whose *manifest* line
//! never finished flushing — no complete first line at all. That is
//! reported as the typed [`SweepError::TornManifest`] so the runner
//! can discard the (workless) file and start fresh instead of
//! refusing to resume. Fresh manifests are written through
//! [`write_manifest_durable`] — flushed **and fsynced** before any
//! point line follows — so the torn-manifest window is one syscall
//! wide, not open until the OS felt like writing back the page cache.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;

use lrd_obs::{parse_json, write_json_f64, write_json_string, Json};

use crate::sweep::{Axis, PointResult, ShardSpec, SweepError, SweepPlan};

/// The identity header of a checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Registry name of the figure the file belongs to.
    pub figure: String,
    /// [`SweepPlan::hash_hex`] of the plan the file was solved under.
    pub plan_hash: String,
    /// Profile tag (`"quick"` / `"full"`).
    pub profile: String,
    /// The shard whose slice of the lattice the file holds.
    pub shard: ShardSpec,
    /// Total lattice points in the full plan (not just this file).
    pub total_points: usize,
    /// The plan axes, embedded verbatim so the checkpoint is
    /// self-describing: merge errors decode point indices back to
    /// lattice coordinates from here.
    pub axes: Vec<Axis>,
}

impl Manifest {
    /// The manifest for `shard` of `plan`.
    pub fn new(plan: &SweepPlan, shard: &ShardSpec) -> Manifest {
        Manifest {
            figure: plan.figure.clone(),
            plan_hash: plan.hash_hex(),
            profile: plan.profile.tag().to_string(),
            shard: *shard,
            total_points: plan.len(),
            axes: plan.axes.clone(),
        }
    }

    /// Decodes the lattice coordinates of stable point `index` from
    /// the embedded axes (row-major, matching [`SweepPlan::point`]).
    /// Empty when the manifest carries no axes (a hand-built file).
    pub fn point_coords(&self, index: usize) -> Vec<f64> {
        let mut coords = vec![0.0; self.axes.len()];
        let mut rest = index;
        for (slot, axis) in coords.iter_mut().zip(&self.axes).rev() {
            if axis.values.is_empty() {
                return Vec::new();
            }
            *slot = axis.values[rest % axis.len()];
            rest /= axis.len();
        }
        coords
    }
}

/// A parsed checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The identity header from the first line.
    pub manifest: Manifest,
    /// Every intact point line, in file order.
    pub points: Vec<PointResult>,
    /// Whether the final line was torn (process killed mid-append).
    /// The torn line is discarded; its point will be re-solved on
    /// resume.
    pub truncated_tail: bool,
}

/// Renders the manifest line for `shard` of `plan` (no trailing
/// newline).
pub fn manifest_line(plan: &SweepPlan, shard: &ShardSpec) -> String {
    let mut out = String::from("{\"kind\":\"manifest\",\"figure\":");
    write_json_string(&mut out, &plan.figure);
    out.push_str(",\"plan_hash\":");
    write_json_string(&mut out, &plan.hash_hex());
    out.push_str(",\"profile\":");
    write_json_string(&mut out, plan.profile.tag());
    out.push_str(&format!(
        ",\"shard\":{},\"shard_count\":{}",
        shard.index, shard.count
    ));
    out.push_str(&format!(",\"points\":{},\"value_label\":", plan.len()));
    write_json_string(&mut out, &plan.value_label);
    out.push_str(",\"axes\":[");
    for (i, axis) in plan.axes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(&mut out, &axis.name);
        out.push_str(",\"values\":[");
        for (j, &v) in axis.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_f64(&mut out, v);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders one completed point as a checkpoint line (no trailing
/// newline). `coords` are the point's lattice coordinates, recorded
/// for human inspection; resume keys on `index` alone.
pub fn point_line(coords: &[f64], result: &PointResult) -> String {
    let mut out = String::from("{\"kind\":\"point\",\"index\":");
    out.push_str(&result.index.to_string());
    out.push_str(",\"coords\":[");
    for (i, &c) in coords.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_f64(&mut out, c);
    }
    out.push_str("],\"value\":");
    write_json_f64(&mut out, result.value);
    out.push_str(&format!(
        ",\"iterations\":{},\"bins\":{},\"converged\":{}",
        result.iterations, result.bins, result.converged
    ));
    if let Some(us) = result.solve_us {
        out.push_str(",\"solve_us\":");
        write_json_f64(&mut out, us);
    }
    out.push('}');
    out
}

fn malformed(path: &Path, line: usize, reason: impl Into<String>) -> SweepError {
    SweepError::Malformed {
        path: path.to_path_buf(),
        line,
        reason: reason.into(),
    }
}

fn parse_axes(path: &Path, doc: &Json) -> Result<Vec<Axis>, SweepError> {
    // Axes are informational (the plan hash is what validation
    // trusts), so a manifest without them still parses — but a
    // *present* axes field must be well-formed.
    let Some(field) = doc.get("axes") else {
        return Ok(Vec::new());
    };
    let bad = || malformed(path, 1, "manifest \"axes\" must be [{name, values}, …]");
    let items = field.as_array().ok_or_else(bad)?;
    let mut axes = Vec::with_capacity(items.len());
    for item in items {
        let name = item.get("name").and_then(Json::as_str).ok_or_else(bad)?;
        let values: Vec<f64> = item
            .get("values")
            .and_then(Json::as_array)
            .and_then(|vs| vs.iter().map(Json::as_num).collect())
            .ok_or_else(bad)?;
        if values.is_empty() {
            return Err(bad());
        }
        axes.push(Axis::new(name, values));
    }
    Ok(axes)
}

fn parse_manifest(path: &Path, doc: &Json) -> Result<Manifest, SweepError> {
    let field = |name: &'static str| {
        doc.get(name)
            .ok_or_else(|| malformed(path, 1, format!("manifest missing {name:?}")))
    };
    let str_field = |name: &'static str| -> Result<String, SweepError> {
        field(name)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| malformed(path, 1, format!("manifest {name:?} must be a string")))
    };
    let int_field = |name: &'static str| -> Result<u64, SweepError> {
        field(name)?
            .as_u64()
            .ok_or_else(|| malformed(path, 1, format!("manifest {name:?} must be an integer")))
    };
    for (key, what) in [
        ("owned", "an explicit planner assignment"),
        ("mode", "a work-stealing worker's checkpoint"),
    ] {
        if doc.get(key).is_some() {
            return Err(malformed(
                path,
                1,
                format!(
                    "manifest key {key:?} ({what}) is no longer supported; \
                     re-run the shard with --shard i/n"
                ),
            ));
        }
    }
    let index = int_field("shard")?;
    let count = int_field("shard_count")?;
    let shard = u32::try_from(index)
        .ok()
        .zip(u32::try_from(count).ok())
        .and_then(|(i, n)| ShardSpec::new(i, n))
        .ok_or_else(|| malformed(path, 1, format!("invalid shard {index}/{count}")))?;
    Ok(Manifest {
        figure: str_field("figure")?,
        plan_hash: str_field("plan_hash")?,
        profile: str_field("profile")?,
        shard,
        total_points: int_field("points")? as usize,
        axes: parse_axes(path, doc)?,
    })
}

fn parse_point(doc: &Json) -> Option<PointResult> {
    // `solve_us` is optional: checkpoints written before the cost
    // model existed have no durations, and they must keep resuming
    // and merging unchanged. A *present but non-numeric* field is
    // still a parse failure, not a silent `None`.
    let solve_us = match doc.get("solve_us") {
        None => None,
        Some(v) => Some(v.as_num()?),
    };
    Some(PointResult {
        index: doc.get("index")?.as_u64()? as usize,
        value: doc.get("value")?.as_num()?,
        iterations: doc.get("iterations")?.as_u64()?,
        bins: doc.get("bins")?.as_u64()?,
        converged: doc.get("converged")?.as_bool()?,
        solve_us,
    })
}

/// Reads and structurally validates one checkpoint file.
///
/// The first line must be a manifest; every later line a point. An
/// unparseable **final** line is tolerated as a torn append (the
/// producing process was killed mid-write) and reported through
/// [`Checkpoint::truncated_tail`]; malformation anywhere else is an
/// error. Cross-file validation (plan hash, shard ownership,
/// duplicates) lives in the resume and merge layers.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, SweepError> {
    let text = std::fs::read_to_string(path).map_err(|e| SweepError::io(path, &e))?;

    // A process killed before its first checkpoint flush leaves a file
    // with no complete first line: empty, or a prefix of the manifest
    // line with no terminating newline. Either way the file records no
    // solved work, so report it as the recoverable torn-manifest case
    // (the runner discards it and starts fresh) rather than as
    // corruption. A complete-but-unparseable first line, by contrast,
    // cannot come from a torn write and stays a hard error below.
    if !text.contains('\n') {
        return Err(SweepError::TornManifest {
            path: path.to_path_buf(),
        });
    }
    let mut lines = text.lines().enumerate();

    let (_, first) = lines
        .next()
        .ok_or_else(|| malformed(path, 1, "empty checkpoint file"))?;
    let doc = parse_json(first).map_err(|e| malformed(path, 1, e.to_string()))?;
    if doc.get("kind").and_then(Json::as_str) != Some("manifest") {
        return Err(malformed(path, 1, "first line must be a manifest"));
    }
    let manifest = parse_manifest(path, &doc)?;

    let mut points = Vec::new();
    let mut truncated_tail = false;
    let mut rest = lines.peekable();
    while let Some((i, line)) = rest.next() {
        let line_no = i + 1;
        let is_last = rest.peek().is_none();
        let parsed = parse_json(line)
            .ok()
            .filter(|doc| doc.get("kind").and_then(Json::as_str) == Some("point"))
            .and_then(|doc| parse_point(&doc));
        match parsed {
            Some(point) => points.push(point),
            None if is_last => truncated_tail = true,
            None => {
                return Err(malformed(path, line_no, "unreadable point line"));
            }
        }
    }
    Ok(Checkpoint {
        manifest,
        points,
        truncated_tail,
    })
}

/// Checks a previously-written checkpoint against the manifest this
/// process expects (plan identity and shard) and against per-file
/// invariants: every point in range and owned by the shard, no point
/// recorded twice.
pub fn validate_checkpoint(
    path: &Path,
    ck: &Checkpoint,
    expected: &Manifest,
) -> Result<(), SweepError> {
    let mismatch = |field: &'static str, exp: String, found: String| SweepError::ManifestMismatch {
        path: path.to_path_buf(),
        field,
        expected: exp,
        found,
    };
    let m = &ck.manifest;
    if m.figure != expected.figure {
        return Err(mismatch("figure", expected.figure.clone(), m.figure.clone()));
    }
    if m.plan_hash != expected.plan_hash {
        return Err(mismatch(
            "plan_hash",
            expected.plan_hash.clone(),
            m.plan_hash.clone(),
        ));
    }
    if m.profile != expected.profile {
        return Err(mismatch(
            "profile",
            expected.profile.clone(),
            m.profile.clone(),
        ));
    }
    if m.shard != expected.shard {
        return Err(mismatch(
            "shard",
            expected.shard.to_string(),
            m.shard.to_string(),
        ));
    }
    if m.total_points != expected.total_points {
        return Err(mismatch(
            "points",
            expected.total_points.to_string(),
            m.total_points.to_string(),
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for point in &ck.points {
        if point.index >= expected.total_points || !expected.shard.owns(point.index) {
            return Err(SweepError::ForeignPoint {
                path: path.to_path_buf(),
                index: point.index,
            });
        }
        if !seen.insert(point.index) {
            return Err(SweepError::DuplicatePoint {
                path: path.to_path_buf(),
                index: point.index,
            });
        }
    }
    Ok(())
}

/// Writes `text` (a complete checkpoint prefix — manifest line plus
/// any point lines, each newline-terminated) to `path` **durably**:
/// the file is flushed and fsynced, and the parent directory synced
/// best-effort, before this returns. Used for fresh manifests and
/// torn-tail rewrites so a kill immediately after never re-opens the
/// torn-manifest window — point appends only ever follow a manifest
/// the disk has acknowledged.
pub fn write_manifest_durable(path: &Path, text: &str) -> Result<(), SweepError> {
    let io = |e: &std::io::Error| SweepError::io(path, e);
    let mut file = File::create(path).map_err(|e| io(&e))?;
    file.write_all(text.as_bytes()).map_err(|e| io(&e))?;
    file.sync_all().map_err(|e| io(&e))?;
    // Directory sync makes the *name* durable too. Best-effort: some
    // filesystems refuse to fsync a directory handle, and the file
    // contents above are already safe.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Opens (or creates, or resumes) the checkpoint at `path` for the
/// given plan and shard, returning the already-solved points and an
/// append handle positioned after the last intact line.
///
/// Handles the full resume protocol: a fresh file gets a durable manifest
/// ([`write_manifest_durable`]); an existing file is validated against
/// the expected manifest ([`validate_checkpoint`]); a torn final line
/// is dropped by rewriting the file durably; a torn *manifest* is
/// discarded with a warning and the file starts fresh.
pub(crate) fn open_checkpoint(
    path: &Path,
    plan: &SweepPlan,
    shard: &ShardSpec,
) -> Result<(BTreeMap<usize, PointResult>, File), SweepError> {
    let expected = Manifest::new(plan, shard);
    let mut done: BTreeMap<usize, PointResult> = BTreeMap::new();
    let mut fresh = !path.exists();
    if !fresh {
        match read_checkpoint(path) {
            Ok(ck) => {
                validate_checkpoint(path, &ck, &expected)?;
                if ck.truncated_tail {
                    // Rewrite the file without the torn line so appends
                    // start on a clean boundary.
                    let mut text = manifest_line(plan, shard);
                    text.push('\n');
                    for point in &ck.points {
                        text.push_str(&point_line(&plan.point(point.index).coords, point));
                        text.push('\n');
                    }
                    write_manifest_durable(path, &text)?;
                }
                for point in ck.points {
                    done.insert(point.index, point);
                }
            }
            Err(SweepError::TornManifest { .. }) => {
                // Killed before the first flush: the file records no
                // solved work, so losing it loses nothing. Warn and
                // start from scratch.
                eprintln!(
                    "warning: {}: checkpoint manifest line is torn (previous run was \
                     killed before its first flush); discarding and starting fresh",
                    path.display()
                );
                lrd_obs::event!(
                    "sweep.torn_manifest_discarded",
                    path = path.display().to_string(),
                );
                std::fs::remove_file(path).map_err(|e| SweepError::io(path, &e))?;
                fresh = true;
            }
            Err(e) => return Err(e),
        }
    }
    if fresh {
        let mut text = manifest_line(plan, shard);
        text.push('\n');
        write_manifest_durable(path, &text)?;
    }
    let file = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| SweepError::io(path, &e))?;
    Ok((done, file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Profile;
    use crate::sweep::Axis;
    use lrd_fluidq::SolverOptions;

    fn plan() -> SweepPlan {
        SweepPlan::grid_plan(
            "demo",
            Profile::Quick,
            "loss_rate",
            Axis::new("b", vec![0.1, 1.0]),
            Axis::new("tc", vec![0.5, f64::INFINITY]),
            SolverOptions::sweep_profile(),
        )
    }

    fn result(index: usize) -> PointResult {
        PointResult {
            index,
            value: 1.0 / 3.0 * (index as f64 + 1.0),
            iterations: 10 + index as u64,
            bins: 256,
            converged: index.is_multiple_of(2),
            // Mix measured and unmeasured points: both forms must
            // round-trip.
            solve_us: index
                .is_multiple_of(2)
                .then(|| 1e4 / 3.0 * (index as f64 + 1.0)),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lrd-ckpt-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("shard.jsonl")
    }

    #[test]
    fn lines_round_trip_bit_exactly() {
        let p = plan();
        let shard = ShardSpec::new(1, 2).unwrap();
        let path = tmp("roundtrip");
        let mut text = manifest_line(&p, &shard);
        text.push('\n');
        for pt in p.points_for(&shard) {
            text.push_str(&point_line(&pt.coords, &result(pt.index)));
            text.push('\n');
        }
        std::fs::write(&path, &text).unwrap();

        let ck = read_checkpoint(&path).unwrap();
        assert!(!ck.truncated_tail);
        assert_eq!(ck.manifest, Manifest::new(&p, &shard));
        assert_eq!(ck.points.len(), 2);
        for pt in &ck.points {
            let expect = result(pt.index);
            assert_eq!(pt.value.to_bits(), expect.value.to_bits());
            assert_eq!(pt, &expect);
        }
    }

    #[test]
    fn manifest_axes_decode_point_coords() {
        let p = plan();
        let path = tmp("axes");
        std::fs::write(&path, format!("{}\n", manifest_line(&p, &ShardSpec::FULL))).unwrap();
        let m = read_checkpoint(&path).unwrap().manifest;
        assert_eq!(m.axes.len(), 2);
        for index in 0..p.len() {
            let want = p.point(index).coords;
            let got = m.point_coords(index);
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "point {index}");
            }
        }
        // Axes are informational: a manifest without them parses, and
        // coord decoding degrades to empty.
        let stripped = manifest_line(&p, &ShardSpec::FULL)
            .replace(",\"axes\":[{\"name\":\"b\",\"values\":[0.1,1.0]},{\"name\":\"tc\",\"values\":[0.5,\"inf\"]}]", "");
        assert!(!stripped.contains("axes"), "{stripped}");
        std::fs::write(&path, format!("{stripped}\n")).unwrap();
        let m = read_checkpoint(&path).unwrap().manifest;
        assert!(m.axes.is_empty());
        assert!(m.point_coords(1).is_empty());
    }

    #[test]
    fn solve_us_round_trips_bit_exactly_property() {
        // Property test over randomized durations: any finite
        // non-negative f64 written as `solve_us` parses back to the
        // identical bits, and an absent duration stays `None`.
        use lrd_rng::rngs::SmallRng;
        use lrd_rng::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0x5eed_c057);
        for trial in 0..200 {
            // Spread durations over many magnitudes, including
            // subnormal-ish tiny values and huge ones.
            let exponent: f64 = rng.gen_range(-12.0..12.0);
            let duration = rng.gen::<f64>() * 10f64.powf(exponent);
            let solve_us = (trial % 5 != 0).then_some(duration);
            let point = PointResult {
                index: trial,
                value: rng.gen::<f64>(),
                iterations: rng.gen_range(1u64..1_000_000),
                bins: 1 << rng.gen_range(5u64..14),
                converged: rng.gen_bool(0.5),
                solve_us,
            };
            let line = point_line(&[0.5, 2.0], &point);
            let doc = parse_json(&line).unwrap();
            let parsed = parse_point(&doc).unwrap();
            assert_eq!(
                parsed.solve_us.map(f64::to_bits),
                point.solve_us.map(f64::to_bits),
                "trial {trial}: {line}"
            );
            assert_eq!(parsed, point, "trial {trial}");
        }
    }

    /// Writes `line` as a one-line checkpoint and asserts that both
    /// resume (`read_checkpoint`) and merge refuse it as malformed,
    /// with a reason naming the retired manifest `key`.
    fn assert_refused_naming(name: &str, line: &str, key: &str) {
        let path = tmp(name);
        std::fs::write(&path, format!("{line}\n")).unwrap();
        match read_checkpoint(&path) {
            Err(SweepError::Malformed { line: 1, reason, .. }) => {
                assert!(reason.contains(&format!("{key:?}")), "{reason}")
            }
            other => panic!("expected Malformed naming {key:?}, got {other:?}"),
        }
        match crate::sweep::merge_checkpoints(&[path]) {
            Err(SweepError::Malformed { line: 1, reason, .. }) => {
                assert!(reason.contains(&format!("{key:?}")), "{reason}")
            }
            other => panic!("expected Malformed naming {key:?} from merge, got {other:?}"),
        }
    }

    #[test]
    fn owned_set_manifest_is_refused() {
        // A manifest line exactly as the retired cost-weighted planner
        // wrote it. Reading it as round-robin 1/3 would silently
        // validate the wrong ownership, so it must be a typed error.
        let line = "{\"kind\":\"manifest\",\"figure\":\"demo\",\
                    \"plan_hash\":\"0123456789abcdef\",\"profile\":\"quick\",\
                    \"shard\":1,\"shard_count\":3,\"owned\":[0,2,3],\"points\":4,\
                    \"value_label\":\"loss_rate\",\"axes\":[{\"name\":\"b\",\"values\":[0.1,1]}]}";
        assert_refused_naming("owned", line, "owned");
    }

    #[test]
    fn steal_manifest_is_refused() {
        // A manifest line exactly as a retired work-stealing worker
        // wrote it: no shard at all, and any lattice point may follow.
        // It must not resume or merge as a shard.
        let line = "{\"kind\":\"manifest\",\"figure\":\"demo\",\
                    \"plan_hash\":\"0123456789abcdef\",\"profile\":\"quick\",\
                    \"mode\":\"steal\",\"worker\":\"w-dead-beef\",\"points\":4,\
                    \"value_label\":\"loss_rate\",\"axes\":[{\"name\":\"b\",\"values\":[0.1,1]}]}";
        assert_refused_naming("steal", line, "mode");
    }

    #[test]
    fn durationless_point_lines_still_parse() {
        // The exact line format the pre-cost-model runner wrote: no
        // solve_us field anywhere.
        let line = "{\"kind\":\"point\",\"index\":3,\"coords\":[0.1,0.5],\
                    \"value\":1.25e-4,\"iterations\":412,\"bins\":256,\"converged\":true}";
        let parsed = parse_point(&parse_json(line).unwrap()).unwrap();
        assert_eq!(parsed.index, 3);
        assert_eq!(parsed.solve_us, None);
        assert_eq!(parsed.value, 1.25e-4);
        // A present-but-wrong-typed solve_us is rejected.
        let bad = line.replace(",\"converged\":true", ",\"converged\":true,\"solve_us\":\"fast\"");
        assert!(parse_point(&parse_json(&bad).unwrap()).is_none());
    }

    #[test]
    fn tolerates_torn_final_line_only() {
        let p = plan();
        let path = tmp("torn");
        let full = format!(
            "{}\n{}\n{}\n",
            manifest_line(&p, &ShardSpec::FULL),
            point_line(&p.point(0).coords, &result(0)),
            point_line(&p.point(1).coords, &result(1)),
        );
        // Cut the file mid-way through the last line.
        let cut = &full[..full.len() - 9];
        std::fs::write(&path, cut).unwrap();
        let ck = read_checkpoint(&path).unwrap();
        assert!(ck.truncated_tail);
        assert_eq!(ck.points.len(), 1);

        // The same damage on a *middle* line is an error.
        let damaged = format!(
            "{}\n{}\n{}\n",
            manifest_line(&p, &ShardSpec::FULL),
            &point_line(&p.point(0).coords, &result(0))[..20],
            point_line(&p.point(1).coords, &result(1)),
        );
        std::fs::write(&path, damaged).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(SweepError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn torn_manifest_is_typed_not_malformed() {
        // A kill before the first flush: empty file, or a prefix of
        // the manifest line with no newline. Both must surface as the
        // recoverable TornManifest, not as corruption.
        let p = plan();
        let path = tmp("tornmanifest");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(SweepError::TornManifest { .. })
        ));
        let manifest = manifest_line(&p, &ShardSpec::FULL);
        for cut in [1, manifest.len() / 2, manifest.len()] {
            std::fs::write(&path, &manifest[..cut]).unwrap();
            assert!(
                matches!(read_checkpoint(&path), Err(SweepError::TornManifest { .. })),
                "prefix of {cut} bytes"
            );
        }
        // With the terminating newline present the same bytes are a
        // complete, valid manifest.
        std::fs::write(&path, format!("{manifest}\n")).unwrap();
        assert!(read_checkpoint(&path).is_ok());
    }

    #[test]
    fn durable_manifest_write_is_complete_and_reopenable() {
        let p = plan();
        let path = tmp("durable");
        let text = format!("{}\n", manifest_line(&p, &ShardSpec::FULL));
        write_manifest_durable(&path, &text).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert!(read_checkpoint(&path).is_ok());
        // Overwrite semantics: a second durable write replaces.
        let longer = format!("{}{}\n", text, point_line(&p.point(0).coords, &result(0)));
        write_manifest_durable(&path, &longer).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().points.len(), 1);
    }

    #[test]
    fn rejects_missing_or_bad_manifest() {
        let path = tmp("badmanifest");
        std::fs::write(&path, format!("{}\n", point_line(&[0.1], &result(0)))).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(SweepError::Malformed { line: 1, .. })
        ));
        std::fs::write(
            &path,
            "{\"kind\":\"manifest\",\"figure\":\"x\",\"plan_hash\":\"h\",\"profile\":\"quick\",\
             \"shard\":3,\"shard_count\":2,\"points\":4}\n",
        )
        .unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(SweepError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("lrd-ckpt-definitely-missing.jsonl");
        assert!(matches!(
            read_checkpoint(&path),
            Err(SweepError::Io { .. })
        ));
    }
}
