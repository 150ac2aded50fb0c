//! TSPLIB 95 file format support.
//!
//! Parses the subset of the format needed for symmetric instances:
//! `NODE_COORD_SECTION` with the geometric edge-weight types
//! (`EUC_2D`, `CEIL_2D`, `ATT`, `GEO`, `MAX_2D`, `MAN_2D`) and
//! `EDGE_WEIGHT_SECTION` with the common explicit layouts
//! (`FULL_MATRIX`, `UPPER_ROW`, `LOWER_ROW`, `UPPER_DIAG_ROW`,
//! `LOWER_DIAG_ROW`). Also reads and writes `.tour` files.
//!
//! With this parser the real paper testbed (fl1577, pr2392, …,
//! pla85900) drops into every experiment unchanged whenever the files
//! are available; the synthetic generators of [`crate::generate`] are
//! only the offline stand-ins.

use std::fmt::Write as _;
use std::path::Path;

use crate::instance::{Instance, Point};
use crate::metric::Metric;
use crate::tour::Tour;
use crate::{Error, Result};

/// Parse a TSPLIB instance from a string.
pub fn parse_instance(text: &str) -> Result<Instance> {
    let mut name = String::from("unnamed");
    let mut dimension: Option<usize> = None;
    let mut edge_weight_type: Option<String> = None;
    let mut edge_weight_format: Option<String> = None;
    let mut coords: Vec<(usize, Point)> = Vec::new();
    let mut weights: Vec<i64> = Vec::new();
    let mut known_optimum: Option<i64> = None;

    #[derive(PartialEq)]
    enum Section {
        Header,
        NodeCoords,
        EdgeWeights,
        Done,
    }
    let mut section = Section::Header;

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        // A digit-led line is no keyword: in the coordinate section it is
        // a city, read without the upper-case copy a keyword test needs.
        // On ASCII, `split_whitespace` also splits at the vertical tab,
        // which `split_ascii_whitespace` keeps; such lines take the
        // general route.
        if section == Section::NodeCoords
            && line.as_bytes()[0].is_ascii_digit()
            && line.is_ascii()
            && !line.contains('\x0b')
        {
            coords.push(coord_line(line.split_ascii_whitespace(), lineno)?);
            continue;
        }
        // Section keywords can appear after data sections too.
        let upper = line.to_ascii_uppercase();
        if upper == "EOF" {
            section = Section::Done;
            continue;
        }
        if upper.starts_with("NODE_COORD_SECTION") {
            section = Section::NodeCoords;
            continue;
        }
        if upper.starts_with("EDGE_WEIGHT_SECTION") {
            section = Section::EdgeWeights;
            continue;
        }
        if upper.starts_with("DISPLAY_DATA_SECTION") || upper.starts_with("FIXED_EDGES_SECTION") {
            // Skip these sections entirely by flipping to Header mode and
            // relying on the key:value check below to ignore bare numbers.
            section = Section::Done;
            continue;
        }
        match section {
            Section::Header => {
                let (key, value) = match line.split_once(':') {
                    Some((k, v)) => (k.trim().to_ascii_uppercase(), v.trim().to_string()),
                    None => (upper.clone(), String::new()),
                };
                match key.as_str() {
                    "NAME" => name = value,
                    "TYPE" if !value.to_ascii_uppercase().starts_with("TSP") => {
                        return Err(Error::Parse(
                            format!("unsupported TYPE {value:?} (only symmetric TSP)"),
                            Some(lineno),
                        ));
                    }
                    "TYPE" => {}
                    "DIMENSION" => {
                        dimension = Some(value.parse().map_err(|_| {
                            Error::Parse(format!("bad DIMENSION {value:?}"), Some(lineno))
                        })?)
                    }
                    "EDGE_WEIGHT_TYPE" => edge_weight_type = Some(value.to_ascii_uppercase()),
                    "EDGE_WEIGHT_FORMAT" => edge_weight_format = Some(value.to_ascii_uppercase()),
                    "COMMENT" => {
                        // Convention: "COMMENT : optimum 12345" records a
                        // known optimal length.
                        let lower = value.to_ascii_lowercase();
                        if let Some(rest) = lower.strip_prefix("optimum") {
                            if let Ok(v) = rest.trim().parse::<i64>() {
                                known_optimum = Some(v);
                            }
                        }
                    }
                    "CAPACITY" | "NODE_COORD_TYPE" | "DISPLAY_DATA_TYPE" => {}
                    _ => {}
                }
            }
            Section::NodeCoords => coords.push(coord_line(line.split_whitespace(), lineno)?),
            Section::EdgeWeights => {
                for tok in line.split_whitespace() {
                    weights.push(
                        tok.parse().map_err(|_| {
                            Error::Parse(format!("bad weight {tok:?}"), Some(lineno))
                        })?,
                    );
                }
            }
            Section::Done => {}
        }
    }

    let n = dimension.ok_or_else(|| Error::Parse("missing DIMENSION".into(), None))?;
    if n < 3 {
        return Err(Error::Parse(
            format!("DIMENSION {n}: a TSP instance needs at least 3 cities"),
            None,
        ));
    }
    let ewt = edge_weight_type.unwrap_or_else(|| "EUC_2D".into());

    let mut inst = if ewt == "EXPLICIT" {
        let fmt = edge_weight_format
            .ok_or_else(|| Error::Parse("EXPLICIT requires EDGE_WEIGHT_FORMAT".into(), None))?;
        let matrix = expand_matrix(&fmt, &weights, n)?;
        Instance::explicit(name, matrix, n)
    } else {
        if coords.len() != n {
            return Err(Error::Parse(
                format!("DIMENSION {n} but {} coordinate lines", coords.len()),
                None,
            ));
        }
        // TSPLIB indices are 1-based but some files are 0-based; order by
        // the given index to be safe.
        let mut pts = vec![Point::default(); n];
        let mut filled = vec![false; n];
        let base = coords.iter().map(|&(i, _)| i).min().unwrap_or(1);
        for (i, p) in coords {
            let slot = i - base;
            if slot >= n {
                return Err(Error::Parse(format!("node index {i} out of range"), None));
            }
            if std::mem::replace(&mut filled[slot], true) {
                return Err(Error::Parse(format!("node index {i} given twice"), None));
            }
            pts[slot] = p;
        }
        let metric = match ewt.as_str() {
            "EUC_2D" => Metric::Euc2d,
            "CEIL_2D" => Metric::Ceil2d,
            "ATT" => Metric::Att,
            "GEO" => Metric::Geo,
            "MAX_2D" => Metric::Max2d,
            "MAN_2D" => Metric::Man2d,
            other => {
                return Err(Error::Parse(
                    format!("unsupported EDGE_WEIGHT_TYPE {other}"),
                    None,
                ))
            }
        };
        Instance::new(name, pts, metric)
    };
    inst.check_length_range()
        .map_err(|msg| Error::Parse(msg, None))?;
    if let Some(opt) = known_optimum {
        inst.set_known_optimum(opt);
    }
    Ok(inst)
}

/// One `NODE_COORD_SECTION` line, split into `tokens`: index, x, y.
fn coord_line<'a>(
    mut tokens: impl Iterator<Item = &'a str>,
    lineno: usize,
) -> Result<(usize, Point)> {
    let idx: usize = tokens
        .next()
        .ok_or_else(|| Error::Parse("missing node index".into(), Some(lineno)))?
        .parse()
        .map_err(|_| Error::Parse("bad node index".into(), Some(lineno)))?;
    let x: f64 = tokens
        .next()
        .ok_or_else(|| Error::Parse("missing x".into(), Some(lineno)))?
        .parse()
        .map_err(|_| Error::Parse("bad x coordinate".into(), Some(lineno)))?;
    let y: f64 = tokens
        .next()
        .ok_or_else(|| Error::Parse("missing y".into(), Some(lineno)))?
        .parse()
        .map_err(|_| Error::Parse("bad y coordinate".into(), Some(lineno)))?;
    if !(x.is_finite() && y.is_finite()) {
        return Err(Error::Parse(
            format!("coordinate ({x}, {y}) is not finite"),
            Some(lineno),
        ));
    }
    Ok((idx, Point::new(x, y)))
}

/// Expand a packed TSPLIB weight list into a full row-major matrix.
/// The weight count is checked against `n` before anything is
/// allocated, so a huge DIMENSION over a short list costs nothing.
fn expand_matrix(fmt: &str, w: &[i64], n: usize) -> Result<Vec<i64>> {
    // The cells each format lists, row by row, and how many there are
    // (`None` past `usize`); every format but FULL_MATRIX lists one
    // triangle and mirrors it. The caller has checked n >= 3.
    type Cells = Box<dyn Iterator<Item = (usize, usize)>>;
    let triangle = n.checked_mul(n - 1).map(|c| c / 2);
    let with_diagonal = triangle.and_then(|c| c.checked_add(n));
    let (cells, want): (Cells, Option<usize>) = match fmt {
        "FULL_MATRIX" => (
            Box::new((0..n).flat_map(move |i| (0..n).map(move |j| (i, j)))),
            n.checked_mul(n),
        ),
        "UPPER_ROW" => (
            Box::new((0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)))),
            triangle,
        ),
        "LOWER_ROW" => (
            Box::new((0..n).flat_map(|i| (0..i).map(move |j| (i, j)))),
            triangle,
        ),
        "UPPER_DIAG_ROW" => (
            Box::new((0..n).flat_map(move |i| (i..n).map(move |j| (i, j)))),
            with_diagonal,
        ),
        "LOWER_DIAG_ROW" => (
            Box::new((0..n).flat_map(|i| (0..=i).map(move |j| (i, j)))),
            with_diagonal,
        ),
        other => {
            return Err(Error::Parse(
                format!("unsupported EDGE_WEIGHT_FORMAT {other}"),
                None,
            ))
        }
    };
    let full = fmt == "FULL_MATRIX";
    if want != Some(w.len()) {
        let want = want.map_or_else(|| "more than usize::MAX".into(), |c| c.to_string());
        return Err(Error::Parse(
            format!("{fmt}: DIMENSION {n} needs {want} weights, got {}", w.len()),
            None,
        ));
    }
    let mut m = vec![0i64; n * n];
    for ((i, j), &d) in cells.zip(w) {
        m[i * n + j] = d;
        if !full {
            m[j * n + i] = d;
        }
    }
    if full {
        for i in 0..n {
            for j in (i + 1)..n {
                if m[i * n + j] != m[j * n + i] {
                    return Err(Error::Parse(
                        format!("FULL_MATRIX is not symmetric at ({}, {})", i + 1, j + 1),
                        None,
                    ));
                }
            }
        }
    }
    Ok(m)
}

/// Read an instance from a `.tsp` file.
pub fn read_instance(path: impl AsRef<Path>) -> Result<Instance> {
    parse_instance(&std::fs::read_to_string(path)?)
}

/// Serialize a geometric instance to TSPLIB format.
pub fn write_instance(inst: &Instance) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "NAME : {}", inst.name());
    let _ = writeln!(s, "TYPE : TSP");
    if let Some(opt) = inst.known_optimum() {
        let _ = writeln!(s, "COMMENT : optimum {opt}");
    }
    let _ = writeln!(s, "DIMENSION : {}", inst.len());
    let _ = writeln!(s, "EDGE_WEIGHT_TYPE : {}", inst.metric().tsplib_name());
    match inst.metric() {
        Metric::Explicit(m, n) => {
            let _ = writeln!(s, "EDGE_WEIGHT_FORMAT : FULL_MATRIX");
            let _ = writeln!(s, "EDGE_WEIGHT_SECTION");
            for i in 0..*n {
                let row: Vec<String> = (0..*n).map(|j| m[i * n + j].to_string()).collect();
                let _ = writeln!(s, "{}", row.join(" "));
            }
        }
        _ => {
            let _ = writeln!(s, "NODE_COORD_SECTION");
            for (i, p) in inst.points().iter().enumerate() {
                let _ = writeln!(s, "{} {} {}", i + 1, p.x, p.y);
            }
        }
    }
    s.push_str("EOF\n");
    s
}

/// Parse a TSPLIB `.tour` file (1-based city indices, `-1` terminator).
pub fn parse_tour(text: &str, n: usize) -> Result<Tour> {
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut in_section = false;
    for line in text.lines() {
        let line = line.trim();
        let upper = line.to_ascii_uppercase();
        if upper.starts_with("TOUR_SECTION") {
            in_section = true;
            continue;
        }
        if !in_section || line.is_empty() {
            continue;
        }
        for tok in line.split_whitespace() {
            let v: i64 = tok
                .parse()
                .map_err(|_| Error::Parse(format!("bad tour entry {tok:?}"), None))?;
            if v == -1 {
                in_section = false;
                break;
            }
            if v < 1 || v as usize > n {
                return Err(Error::Parse(format!("tour entry {v} out of 1..={n}"), None));
            }
            order.push((v - 1) as u32);
        }
    }
    if order.len() != n {
        return Err(Error::Parse(
            format!("tour has {} cities, expected {n}", order.len()),
            None,
        ));
    }
    Ok(Tour::from_order(order))
}

/// Serialize a tour to TSPLIB `.tour` format.
pub fn write_tour(name: &str, tour: &Tour) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "NAME : {name}");
    let _ = writeln!(s, "TYPE : TOUR");
    let _ = writeln!(s, "DIMENSION : {}", tour.len());
    let _ = writeln!(s, "TOUR_SECTION");
    for &c in tour.order() {
        let _ = writeln!(s, "{}", c + 1);
    }
    s.push_str("-1\nEOF\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
NAME : demo5
COMMENT : optimum 40
TYPE : TSP
DIMENSION : 4
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 10.0 0.0
3 10.0 10.0
4 0.0 10.0
EOF
";

    #[test]
    fn parse_geometric() {
        let inst = parse_instance(SAMPLE).unwrap();
        assert_eq!(inst.name(), "demo5");
        assert_eq!(inst.len(), 4);
        assert_eq!(inst.dist(0, 1), 10);
        assert_eq!(inst.dist(0, 2), 14);
        assert_eq!(inst.known_optimum(), Some(40));
    }

    #[test]
    fn roundtrip_geometric() {
        let inst = parse_instance(SAMPLE).unwrap();
        let text = write_instance(&inst);
        let again = parse_instance(&text).unwrap();
        assert_eq!(again.len(), inst.len());
        assert_eq!(again.dist(1, 3), inst.dist(1, 3));
        assert_eq!(again.known_optimum(), Some(40));
    }

    #[test]
    fn parse_explicit_full_matrix() {
        let text = "\
NAME : m3
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : FULL_MATRIX
EDGE_WEIGHT_SECTION
0 1 2
1 0 3
2 3 0
EOF
";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.dist(0, 2), 2);
        assert_eq!(inst.dist(1, 2), 3);
    }

    #[test]
    fn parse_upper_row() {
        let text = "\
NAME : u3
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : UPPER_ROW
EDGE_WEIGHT_SECTION
1 2
3
EOF
";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.dist(0, 1), 1);
        assert_eq!(inst.dist(0, 2), 2);
        assert_eq!(inst.dist(1, 2), 3);
        assert_eq!(inst.dist(2, 1), 3);
    }

    #[test]
    fn parse_lower_diag_row() {
        let text = "\
NAME : l3
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: LOWER_DIAG_ROW
EDGE_WEIGHT_SECTION
0
4 0
5 6 0
EOF
";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.dist(1, 0), 4);
        assert_eq!(inst.dist(2, 0), 5);
        assert_eq!(inst.dist(2, 1), 6);
    }

    #[test]
    fn missing_dimension_errors() {
        let err = parse_instance("NAME : x\nTYPE : TSP\nEOF\n").unwrap_err();
        assert!(matches!(err, Error::Parse(..)));
    }

    #[test]
    fn atsp_rejected() {
        let err = parse_instance("NAME : x\nTYPE : ATSP\nDIMENSION : 3\nEOF\n").unwrap_err();
        assert!(err.to_string().contains("unsupported TYPE"));
    }

    #[test]
    fn wrong_coord_count_errors() {
        let text = "\
DIMENSION : 5
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 1 1
EOF
";
        assert!(parse_instance(text).is_err());
    }

    /// An explicit instance with `n` cities listed as `fmt`.
    fn explicit_text(n: &str, fmt: &str, weights: &str) -> String {
        format!(
            "NAME : x\nTYPE : TSP\nDIMENSION : {n}\nEDGE_WEIGHT_TYPE : EXPLICIT\n\
             EDGE_WEIGHT_FORMAT : {fmt}\nEDGE_WEIGHT_SECTION\n{weights}\nEOF\n"
        )
    }

    #[test]
    fn dimension_two_is_an_error() {
        let text =
            "DIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n";
        let err = parse_instance(text).unwrap_err();
        assert!(err.to_string().contains("at least 3"), "{err}");
    }

    #[test]
    fn asymmetric_full_matrix_is_an_error() {
        let text = explicit_text("3", "FULL_MATRIX", "0 1 2\n1 0 3\n2 4 0");
        let err = parse_instance(&text).unwrap_err();
        assert!(err.to_string().contains("not symmetric"), "{err}");
    }

    #[test]
    fn upper_row_with_dimension_zero_is_an_error() {
        assert!(parse_instance(&explicit_text("0", "UPPER_ROW", "")).is_err());
    }

    #[test]
    fn huge_explicit_dimension_is_an_error_before_allocating() {
        for fmt in ["FULL_MATRIX", "UPPER_ROW", "LOWER_DIAG_ROW"] {
            for n in ["4000000000", &usize::MAX.to_string()] {
                let err = parse_instance(&explicit_text(n, fmt, "1 2 3")).unwrap_err();
                assert!(err.to_string().contains("weights"), "{fmt} {n}: {err}");
            }
        }
    }

    #[test]
    fn repeated_coordinate_index_is_an_error() {
        let text = "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n\
                    1 0 0\n2 5 5\n2 9 9\nEOF\n";
        let err = parse_instance(text).unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
    }

    /// Finite coordinates whose lengths overflow `i64` (12 cities at
    /// `(a·s, b·s)`: at s = 1e18 a tour length wraps negative, at
    /// s = 1e300 every distance saturates) and a matrix whose weights
    /// do are refused, while the same shape at a sane scale parses.
    #[test]
    fn lengths_that_overflow_are_an_error() {
        let grid = |s: f64| {
            let lines: String = (0..12)
                .map(|i| format!("{} {} {}\n", i + 1, (i % 4) as f64 * s, (i / 4) as f64 * s))
                .collect();
            format!("DIMENSION : 12\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n{lines}EOF\n")
        };
        assert!(parse_instance(&grid(1e3)).is_ok());
        for s in [1e18, 1e300] {
            let err = parse_instance(&grid(s)).unwrap_err();
            assert!(err.to_string().contains("overflow"), "{err}");
        }
        let w = i64::MAX / 2;
        let err =
            parse_instance(&explicit_text("3", "UPPER_ROW", &format!("{w} 1 1"))).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn non_finite_coordinate_is_an_error() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!(
                "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n\
                 1 0 0\n2 {bad} 5\n3 9 9\nEOF\n"
            );
            let err = parse_instance(&text).unwrap_err();
            assert!(err.to_string().contains("not finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn flipped_and_truncated_files_never_panic() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Replacement bytes that keep a mutant close to the grammar.
        const BYTES: &[u8] = b"0123456789 -.:\nEXPLICITFULL_MATRIXUPPER_ROWDIAG";
        let valid = [
            SAMPLE.to_string(),
            explicit_text("3", "FULL_MATRIX", "0 1 2\n1 0 3\n2 3 0"),
            explicit_text("4", "UPPER_ROW", "1 2 3\n4 5\n6"),
            explicit_text("3", "LOWER_DIAG_ROW", "0\n4 0\n5 6 0"),
        ];
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..4_000 {
            let mut bytes = valid[rng.gen_range(0..valid.len())].clone().into_bytes();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = if rng.gen_bool(0.8) {
                    BYTES[rng.gen_range(0..BYTES.len())]
                } else {
                    rng.gen()
                };
            }
            if rng.gen_bool(0.3) {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(inst) = parse_instance(&text) {
                assert!(inst.len() >= 3, "{text}");
            }
        }
    }

    #[test]
    fn tour_roundtrip() {
        let t = Tour::from_order(vec![2, 0, 3, 1]);
        let text = write_tour("t4", &t);
        let back = parse_tour(&text, 4).unwrap();
        assert_eq!(back.order(), t.order());
    }

    #[test]
    fn tour_out_of_range_errors() {
        let text = "TOUR_SECTION\n1\n2\n9\n-1\n";
        assert!(parse_tour(text, 3).is_err());
    }

    #[test]
    fn tour_wrong_length_errors() {
        let text = "TOUR_SECTION\n1\n2\n-1\n";
        assert!(parse_tour(text, 3).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("tsp_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.tsp");
        std::fs::write(&path, SAMPLE).unwrap();
        let inst = read_instance(&path).unwrap();
        assert_eq!(inst.len(), 4);
        std::fs::remove_file(&path).ok();
    }
}
