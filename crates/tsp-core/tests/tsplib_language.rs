//! The TSPLIB parser's accepted language, pinned: a table of inputs,
//! each with the outcome `parse_instance` must give written out (the
//! cities it reads, or the error message and line), and a seeded
//! mutation loop whose mutants must parse to `Ok` or `Err` — never a
//! panic, and never an `Ok` instance the solvers cannot take.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tsp_core::{generate, tsplib::parse_instance, tsplib::write_instance};

/// `ok <metric> <cities>` with each city as `x,y`, or the error's text.
fn outcome(text: &str) -> String {
    match parse_instance(text) {
        Ok(inst) => {
            let cities: Vec<String> = inst
                .points()
                .iter()
                .map(|p| format!("{},{}", p.x, p.y))
                .collect();
            format!("ok {} {}", inst.metric().tsplib_name(), cities.join(" "))
        }
        Err(e) => e.to_string(),
    }
}

/// A geometric file around the coordinate lines `coords`.
fn coord_file(dimension: usize, coords: &str) -> String {
    format!("NAME : t\nTYPE : TSP\nDIMENSION : {dimension}\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n{coords}EOF\n")
}

#[test]
fn accepted_language_is_pinned() {
    let table: Vec<(&str, String, &str)> = vec![
        (
            "plain",
            coord_file(3, "1 0 0\n2 3 4\n3 6 8\n"),
            "ok EUC_2D 0,0 3,4 6,8",
        ),
        (
            "crlf line endings",
            coord_file(3, "1 0 0\n2 3 4\n3 6 8\n").replace('\n', "\r\n"),
            "ok EUC_2D 0,0 3,4 6,8",
        ),
        (
            "lower-case keywords",
            "name : t\ntype : tsp\ndimension : 3\nedge_weight_type : ceil_2d\n\
             node_coord_section\n1 0 0\n2 3 4\n3 6 8\neof\n"
                .into(),
            "ok CEIL_2D 0,0 3,4 6,8",
        ),
        (
            "tab separators",
            coord_file(3, "1\t0\t0\n2\t3 \t4\n\t3\t6\t8\t\n"),
            "ok EUC_2D 0,0 3,4 6,8",
        ),
        (
            "exponent coordinates",
            coord_file(3, "1 1.5e3 -2E1\n2 0.5 1e-1\n3 7E+2 .25\n"),
            "ok EUC_2D 1500,-20 0.5,0.1 700,0.25",
        ),
        (
            "0-based indices",
            coord_file(3, "0 5 5\n1 6 6\n2 7 7\n"),
            "ok EUC_2D 5,5 6,6 7,7",
        ),
        (
            "indices out of order",
            coord_file(3, "3 7 7\n1 5 5\n2 6 6\n"),
            "ok EUC_2D 5,5 6,6 7,7",
        ),
        (
            "extra tokens ignored",
            coord_file(3, "1 0 0 9\n2 3 4 x\n3 6 8\n"),
            "ok EUC_2D 0,0 3,4 6,8",
        ),
        (
            "signed index",
            coord_file(3, "+1 0 0\n2 3 4\n3 6 8\n"),
            "ok EUC_2D 0,0 3,4 6,8",
        ),
        (
            "non-ASCII space between tokens",
            coord_file(3, "1\u{a0}0 0\n2 3\u{2003}4\n3 6 8\n"),
            "ok EUC_2D 0,0 3,4 6,8",
        ),
        (
            "vertical tab between tokens",
            coord_file(3, "1\u{b}0 0\n2 3 4\n3 6\u{b}\u{b}8\n"),
            "ok EUC_2D 0,0 3,4 6,8",
        ),
        (
            "digit-led lines in DISPLAY_DATA_SECTION ignored",
            "DIMENSION : 3\nNODE_COORD_SECTION\n1 0 0\n2 3 4\n3 6 8\n\
             DISPLAY_DATA_SECTION\n4 9 9\n1 1 1\nEOF\n"
                .into(),
            "ok EUC_2D 0,0 3,4 6,8",
        ),
        (
            "blank lines and a known optimum",
            "COMMENT : optimum 20\n\nDIMENSION: 3\nNODE_COORD_SECTION\n\n1 0 0\n  2 3 4  \n3 6 8\n"
                .into(),
            "ok EUC_2D 0,0 3,4 6,8",
        ),
        (
            "duplicate index",
            coord_file(3, "1 0 0\n2 3 4\n2 6 8\n"),
            "parse error: node index 2 given twice",
        ),
        (
            "nan coordinate",
            coord_file(3, "1 0 0\n2 nan 4\n3 6 8\n"),
            "parse error at line 7: coordinate (NaN, 4) is not finite",
        ),
        (
            "inf coordinate",
            coord_file(3, "1 0 0\n2 3 4\n3 6 -inf\n"),
            "parse error at line 8: coordinate (6, -inf) is not finite",
        ),
        (
            "missing y",
            coord_file(3, "1 0 0\n2 3\n3 6 8\n"),
            "parse error at line 7: missing y",
        ),
        (
            "missing x",
            coord_file(3, "1 0 0\n2\n3 6 8\n"),
            "parse error at line 7: missing x",
        ),
        (
            "bad x",
            coord_file(3, "1 0 0\n2 3x 4\n3 6 8\n"),
            "parse error at line 7: bad x coordinate",
        ),
        (
            "bad y",
            coord_file(3, "1 0 0\n2 3 4,5\n3 6 8\n"),
            "parse error at line 7: bad y coordinate",
        ),
        (
            "negative index",
            coord_file(3, "-1 0 0\n2 3 4\n3 6 8\n"),
            "parse error at line 6: bad node index",
        ),
        (
            "fractional index",
            coord_file(3, "1 0 0\n2.5 3 4\n3 6 8\n"),
            "parse error at line 7: bad node index",
        ),
        (
            "index out of range",
            coord_file(3, "1 0 0\n2 3 4\n9 6 8\n"),
            "parse error: node index 9 out of range",
        ),
        (
            "DIMENSION above the coordinate lines",
            coord_file(5, "1 0 0\n2 3 4\n3 6 8\n"),
            "parse error: DIMENSION 5 but 3 coordinate lines",
        ),
        (
            "DIMENSION below the coordinate lines",
            coord_file(3, "1 0 0\n2 3 4\n3 6 8\n4 1 1\n"),
            "parse error: DIMENSION 3 but 4 coordinate lines",
        ),
        (
            "DIMENSION 2",
            coord_file(2, "1 0 0\n2 3 4\n"),
            "parse error: DIMENSION 2: a TSP instance needs at least 3 cities",
        ),
        (
            "bad DIMENSION",
            coord_file(0, "").replace("DIMENSION : 0", "DIMENSION : three"),
            "parse error at line 3: bad DIMENSION \"three\"",
        ),
        (
            "no DIMENSION",
            "NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 6 8\n".into(),
            "parse error: missing DIMENSION",
        ),
        (
            "unsupported EDGE_WEIGHT_TYPE",
            coord_file(3, "1 0 0\n2 3 4\n3 6 8\n").replace("EUC_2D", "EUC_3D"),
            "parse error: unsupported EDGE_WEIGHT_TYPE EUC_3D",
        ),
        (
            "ATSP",
            coord_file(3, "").replace("TYPE : TSP", "TYPE : ATSP"),
            "parse error at line 2: unsupported TYPE \"ATSP\" (only symmetric TSP)",
        ),
        (
            "lengths that overflow",
            coord_file(3, "1 0 0\n2 1e300 0\n3 0 1e300\n"),
            "parse error: 3 cities × an edge of up to 2e300 exceed 2^60: tour lengths would overflow",
        ),
    ];
    let mut wrong = Vec::new();
    for (name, text, want) in &table {
        let got = outcome(text);
        if got != *want {
            wrong.push(format!("{name}:\n  want {want}\n  got  {got}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// One random edit of `bytes`: a flip, an insert, a delete or a cut.
fn mutate(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    // Bytes that keep a mutant near the grammar, half the time.
    const NEAR: &[u8] = b"0123456789 \t\r\n-+.eE:_NODECRSTIManinf";
    let byte = |rng: &mut SmallRng| {
        if rng.gen_bool(0.5) {
            NEAR[rng.gen_range(0..NEAR.len())]
        } else {
            rng.gen()
        }
    };
    let at = rng.gen_range(0..=bytes.len());
    match rng.gen_range(0..4) {
        0 if at < bytes.len() => bytes[at] = byte(rng),
        1 => bytes.insert(at, byte(rng)),
        2 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => bytes.truncate(at),
    }
}

#[test]
fn mutants_of_a_50_city_file_never_panic() {
    let valid = write_instance(&generate::uniform(50, 1_000.0, 50)).into_bytes();
    let mut rng = SmallRng::seed_from_u64(2024);
    let (mut oks, mut errs) = (0, 0);
    for _ in 0..6_000 {
        let mut bytes = valid.clone();
        for _ in 0..rng.gen_range(1..4) {
            mutate(&mut bytes, &mut rng);
        }
        let text = String::from_utf8_lossy(&bytes);
        match parse_instance(&text) {
            Ok(inst) => {
                oks += 1;
                assert!(inst.len() >= 3, "{text}");
                assert!(
                    inst.points()
                        .iter()
                        .all(|p| p.x.is_finite() && p.y.is_finite()),
                    "{text}"
                );
                assert_eq!(inst.check_length_range(), Ok(()), "{text}");
            }
            Err(_) => errs += 1,
        }
    }
    // Both outcomes are exercised, not just the error paths.
    assert!(oks > 500 && errs > 500, "{oks} Ok, {errs} Err");
}
