//! Reference outputs and the output checks of the two solver
//! workloads.
//!
//! The references were recorded from the program itself by
//! `cargo run --release --bin record_reference` (not from
//! `results/*.csv`, which predate later solver changes) and are
//! compiled into the benchmark, so a run needs no file beyond the
//! checkout. Floats are stored as their IEEE-754 bits in hex.

use std::collections::BTreeMap;

/// The recorded lattice values: `figure index bits` per line.
pub const LATTICE: &str = include_str!("../reference/lattice.txt");

/// The recorded corner brackets: `utilization buffer cutoff
/// lower_bits upper_bits` per line.
pub const CORNERS: &str = include_str!("../reference/corners.txt");

fn bits(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad reference bits {s:?}"))
}

/// Parses [`LATTICE`]-format text into figure → (point index → value).
pub fn parse_lattice(text: &str) -> Result<BTreeMap<String, BTreeMap<usize, f64>>, String> {
    let mut out: BTreeMap<String, BTreeMap<usize, f64>> = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [figure, index, value] = f[..] else {
            return Err(format!("bad lattice reference line {line:?}"));
        };
        let index = index
            .parse()
            .map_err(|_| format!("bad index in {line:?}"))?;
        out.entry(figure.to_string())
            .or_default()
            .insert(index, bits(value)?);
    }
    Ok(out)
}

/// One recorded corner: its coordinates and bracket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Utilization ρ.
    pub utilization: f64,
    /// Normalized buffer B (s).
    pub buffer: f64,
    /// Cutoff lag T_c (s).
    pub cutoff: f64,
    /// Recorded provable lower bound.
    pub lower: f64,
    /// Recorded provable upper bound.
    pub upper: f64,
}

/// Parses [`CORNERS`]-format text.
pub fn parse_corners(text: &str) -> Result<Vec<Corner>, String> {
    let mut out = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [u, b, tc, lo, hi] = f[..] else {
            return Err(format!("bad corner reference line {line:?}"));
        };
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("bad number in {line:?}"))
        };
        out.push(Corner {
            utilization: num(u)?,
            buffer: num(b)?,
            cutoff: num(tc)?,
            lower: bits(lo)?,
            upper: bits(hi)?,
        });
    }
    Ok(out)
}

/// Lattice check: every point value bit-equal to the reference, and
/// the point sets identical.
pub fn check_lattice(
    figure: &str,
    got: &[(usize, f64)],
    want: &BTreeMap<usize, f64>,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{figure}: {} points solved, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for &(index, value) in got {
        match want.get(&index) {
            Some(w) if w.to_bits() == value.to_bits() => {}
            Some(w) => {
                return Err(format!(
                    "{figure} point {index}: {value:e} differs from reference {w:e}"
                ))
            }
            None => return Err(format!("{figure} point {index} is not in the reference")),
        }
    }
    Ok(())
}

/// Corner check: a finite bracket with `0 <= lower <= upper` that
/// intersects the recorded bracket. A certified tightening of the
/// bracket passes; a bound on the wrong side of the reference fails.
pub fn check_corner(c: &Corner, lower: f64, upper: f64) -> Result<(), String> {
    let at = format!(
        "corner (ρ={}, B={}, T_c={})",
        c.utilization, c.buffer, c.cutoff
    );
    if !(lower.is_finite() && upper.is_finite() && 0.0 <= lower && lower <= upper) {
        return Err(format!("{at}: invalid bracket [{lower:e}, {upper:e}]"));
    }
    if lower > c.upper || upper < c.lower {
        return Err(format!(
            "{at}: bracket [{lower:e}, {upper:e}] misses reference [{:e}, {:e}]",
            c.lower, c.upper
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_references_parse_and_cover_both_workloads() {
        let lattice = parse_lattice(LATTICE).unwrap();
        assert_eq!(lattice.len(), 2);
        assert!(lattice.values().all(|points| points.len() == 56));
        // The fig04 (0.01, 0.01) value printed by the program.
        assert_eq!(
            format!("{:.6e}", lattice["fig04_mtv_model"][&0]),
            "5.547353e-6"
        );
        let corners = parse_corners(CORNERS).unwrap();
        assert_eq!(corners.len(), 27);
    }

    #[test]
    fn the_lattice_check_fails_on_a_corrupted_reference() {
        let lattice = parse_lattice(LATTICE).unwrap();
        let want = &lattice["fig05_bc_model"];
        let got: Vec<(usize, f64)> = want.iter().map(|(&i, &v)| (i, v)).collect();
        assert!(check_lattice("fig05_bc_model", &got, want).is_ok());
        // One flipped low bit anywhere fails the check ...
        let mut corrupted = want.clone();
        let v = corrupted.get_mut(&17).unwrap();
        *v = f64::from_bits(v.to_bits() ^ 1);
        assert!(check_lattice("fig05_bc_model", &got, &corrupted).is_err());
        // ... and so does a missing point.
        assert!(check_lattice("fig05_bc_model", &got[1..], want).is_err());
    }

    #[test]
    fn the_corner_check_fails_on_a_corrupted_reference() {
        for c in parse_corners(CORNERS).unwrap() {
            assert!(check_corner(&c, c.lower, c.upper).is_ok());
            // A strictly tighter bracket inside the reference passes.
            let mid = 0.5 * (c.lower + c.upper);
            assert!(check_corner(&c, mid, mid).is_ok());
            // A reference shifted entirely above the answer fails.
            let shifted = Corner {
                lower: c.upper * 2.0 + 1e-3,
                upper: c.upper * 4.0 + 1e-3,
                ..c
            };
            assert!(check_corner(&shifted, c.lower, c.upper).is_err());
        }
        let c = parse_corners(CORNERS).unwrap()[0];
        assert!(check_corner(&c, f64::NAN, 1.0).is_err());
        assert!(check_corner(&c, 0.5, 0.25).is_err());
        assert!(check_corner(&c, -1.0, 0.25).is_err());
    }
}
