//! The trace readers take hostile bytes: `io::from_json` and
//! `io::from_csv` must turn every corruption of a generated trace into a
//! typed `TraceError`, never a panic. The properties corrupt `to_json` /
//! `to_csv` output by truncation at a random offset, a single-byte flip,
//! a number replaced by `1e999`, `-1`, `1.5` or `18446744073709551616`,
//! and (JSON) a record whose `"m"` is not the trace's port count. The unit
//! tests pin the hostile inputs that once panicked or read wrong: a
//! record on another fabric, duplicate pairs whose units overflow, a
//! release that overflows the horizon, CSV rows of one coflow that
//! disagree on its release or weight, and a flow to a far port.

use coflow_workloads::{assign_weights, generate_trace, io, TraceConfig, TraceError, WeightScheme};
use proptest::prelude::*;

/// A small generated trace, weighted so every weight field is a float.
fn trace(ports: usize, num_coflows: usize, seed: u64) -> coflow::Instance {
    let config = TraceConfig {
        ports,
        num_coflows,
        seed,
        zero_release: seed.is_multiple_of(2),
        max_flow_size: 40,
        flow_size_mu: 0.8,
        flow_size_sigma: 0.9,
        ..TraceConfig::default()
    };
    assign_weights(
        &generate_trace(&config),
        WeightScheme::RandomPermutation { seed },
    )
}

/// The number tokens of `text` as `(start, end, is_weight)`: maximal runs
/// of digits, signs, dots and exponents starting at a digit, and whether
/// the token is a weight (JSON: after `"weight": `; CSV: the sixth field).
fn numbers(text: &str, csv: bool) -> Vec<(usize, usize, bool)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts = bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric());
        if !starts {
            i += 1;
            continue;
        }
        let mut end = i;
        while end < bytes.len() && matches!(bytes[end], b'0'..=b'9' | b'.' | b'e' | b'-' | b'+') {
            end += 1;
        }
        let is_weight = if csv {
            let line_start = text[..i].rfind('\n').map_or(0, |p| p + 1);
            text[line_start..i].matches(',').count() == 5
        } else {
            text[..i].ends_with("\"weight\": ")
        };
        out.push((i, end, is_weight));
        i = end;
    }
    out
}

/// Parses `text` with the reader of its format.
fn read(text: &str, csv: bool, ports: usize) -> Result<coflow::Instance, TraceError> {
    if csv {
        io::from_csv(ports, text)
    } else {
        io::from_json(text)
    }
}

const HOSTILE: [&str; 4] = ["1e999", "-1", "1.5", "18446744073709551616"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Cut anywhere before its closing bracket, a JSON trace is refused; a
    /// CSV trace cut anywhere reads as a typed error or as fewer units.
    #[test]
    fn truncations_are_typed_errors(
        shape in (2usize..8, 1usize..6, any::<u64>()),
        cut in any::<u64>(),
    ) {
        let inst = trace(shape.0, shape.1, shape.2);
        let json = io::to_json(&inst);
        let close = json.rfind(']').expect("closing bracket");
        let at = (cut % close as u64) as usize;
        prop_assert!(io::from_json(&json[..at]).is_err(), "JSON cut at {} parsed", at);
        let csv = io::to_csv(&inst);
        let at = (cut % csv.len() as u64) as usize;
        let total: u64 = inst.coflows().iter().map(|c| c.total_units()).sum();
        if let Ok(cut) = io::from_csv(inst.ports(), &csv[..at]) {
            prop_assert!(cut.coflows().iter().map(|c| c.total_units()).sum::<u64>() <= total);
        }
    }

    /// Any single byte replaced by any printable byte or a newline reads
    /// as a trace or a typed error.
    #[test]
    fn byte_flips_never_panic(
        shape in (2usize..8, 1usize..6, any::<u64>()),
        at in any::<u64>(),
        byte in 0u8..96,
        csv in any::<bool>(),
    ) {
        let inst = trace(shape.0, shape.1, shape.2);
        let text = if csv { io::to_csv(&inst) } else { io::to_json(&inst) };
        let mut bytes = text.into_bytes();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] = if byte == 95 { b'\n' } else { b' ' + byte };
        let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        let _ = read(&text, csv, inst.ports());
    }

    /// A number replaced by an overflowing, negative, fractional or
    /// out-of-range value is refused — except a weight, which may be any
    /// positive finite float.
    #[test]
    fn hostile_numbers_are_typed_errors(
        shape in (2usize..8, 1usize..6, any::<u64>()),
        pick in any::<u64>(),
        hostile in 0usize..4,
        csv in any::<bool>(),
    ) {
        let inst = trace(shape.0, shape.1, shape.2);
        let text = if csv { io::to_csv(&inst) } else { io::to_json(&inst) };
        let tokens = numbers(&text, csv);
        let (start, end, is_weight) = tokens[(pick % tokens.len() as u64) as usize];
        let value = HOSTILE[hostile];
        let doctored = format!("{}{}{}", &text[..start], value, &text[end..]);
        let got = read(&doctored, csv, inst.ports());
        if !(is_weight && (value == "1.5" || value == "18446744073709551616")) {
            prop_assert!(got.is_err(), "{} for {:?} parsed", value, &text[start..end]);
        }
    }

    /// A JSON record on a fabric other than the trace's is refused.
    #[test]
    fn a_record_on_another_fabric_is_refused(
        shape in (2usize..8, 1usize..6, any::<u64>()),
        pick in any::<u64>(),
        m in 0usize..20,
    ) {
        let inst = trace(shape.0, shape.1, shape.2);
        prop_assume!(m != inst.ports());
        let json = io::to_json(&inst);
        let key = format!("\"m\": {}", inst.ports());
        let record = (pick % inst.len() as u64) as usize;
        let at = json.match_indices(&key).nth(record).expect("one key per record").0;
        let doctored = format!("{}\"m\": {}{}", &json[..at], m, &json[at + key.len()..]);
        let err = io::from_json(&doctored).expect_err("record on another fabric");
        prop_assert!(matches!(err, TraceError::BadField { ref field, .. } if field == "m"), "{}", err);
    }

    /// Untouched, both formats read back the instance they were written
    /// from.
    #[test]
    fn generated_traces_round_trip(shape in (2usize..8, 1usize..6, any::<u64>())) {
        let inst = trace(shape.0, shape.1, shape.2);
        for back in [
            io::from_json(&io::to_json(&inst)).expect("JSON reads back"),
            io::from_csv(inst.ports(), &io::to_csv(&inst)).expect("CSV reads back"),
        ] {
            prop_assert_eq!(back.coflows(), inst.coflows());
        }
    }
}

/// The field a `BadField` error names.
fn field_of(err: TraceError) -> String {
    match err {
        TraceError::BadField { field, .. } => field,
        other => panic!("expected a bad field, got {}", other),
    }
}

#[test]
fn a_record_whose_m_is_not_the_fabric_is_refused() {
    let json =
        "[2, [{\"id\": 0, \"m\": 3, \"flows\": [[0, 1, 2]], \"release\": 0, \"weight\": 1}]]";
    assert_eq!(field_of(io::from_json(json).unwrap_err()), "m");
}

#[test]
fn duplicate_pairs_whose_units_overflow_are_refused() {
    let csv = "0,0,0,18446744073709551615,0,1\n0,0,0,1,0,1\n";
    let err = io::from_csv(1, csv).unwrap_err();
    assert_eq!(err.line(), 2, "{}", err);
    assert_eq!(field_of(err), "mb");
    let json = "[1, [{\"id\": 0, \"m\": 1, \"flows\": [[0, 0, 18446744073709551615], [0, 0, 1]], \
                \"release\": 0, \"weight\": 1}]]";
    assert_eq!(field_of(io::from_json(json).unwrap_err()), "mb");
}

#[test]
fn a_release_that_overflows_the_horizon_is_refused() {
    let csv = "coflow_id,src,dst,mb,release,weight\n0,0,0,1,0,1\n1,0,0,1,18446744073709551615,1\n";
    let err = io::from_csv(1, csv).unwrap_err();
    assert_eq!(err.line(), 3, "{}", err);
    assert_eq!(field_of(err), "release");
    let json = "[1, [{\"id\": 0, \"m\": 1, \"flows\": [[0, 0, 1]], \
                \"release\": 18446744073709551615, \"weight\": 1}]]";
    assert_eq!(field_of(io::from_json(json).unwrap_err()), "release");
    // The latest release plus every unit still fits: read as given.
    let fits = "0,0,0,1,18446744073709551614,1\n";
    assert!(io::from_csv(1, fits).is_ok());
}

#[test]
fn csv_rows_that_disagree_on_release_or_weight_are_refused() {
    let err = io::from_csv(1, "0,0,0,1,0,1\n0,0,0,1,7,5\n").unwrap_err();
    assert_eq!(err.line(), 2, "{}", err);
    assert!(err.to_string().contains("line 1"), "{}", err);
    assert_eq!(field_of(err), "release");
    let err = io::from_csv(1, "0,0,0,1,0,1\n0,0,0,1,0,5\n").unwrap_err();
    assert_eq!(field_of(err), "weight");
    // Equal values written differently agree.
    assert!(io::from_csv(1, "0,0,0,1,0,1\n0,0,0,1,0,1.0\n").is_ok());
}

#[test]
fn csv_ports_follow_the_readers_header_rule() {
    assert_eq!(io::csv_ports("0,0,3,1,0,1\n"), 4);
    assert_eq!(
        io::csv_ports("coflow_id,src,dst,mb,release,weight\n0,0,3,1,0,1\n"),
        4
    );
    assert_eq!(io::csv_ports("coflow_id,src,dst,mb,release,weight\n"), 1);
    let inst = io::from_csv(4, "0,0,3,1,0,1\n").expect("headerless row");
    assert_eq!(inst.coflow(0).demand.get(0, 3), 1);
}

#[test]
fn a_flow_to_a_far_port_reads_without_a_dense_matrix() {
    // 50001² cells would be 20 GB dense; the reader holds one flow.
    let csv = "coflow_id,src,dst,mb,release,weight\n0,0,50000,1,0,1\n";
    let ports = io::csv_ports(csv);
    assert_eq!(ports, 50_001);
    let inst = io::from_csv(ports, csv).expect("one flow");
    assert_eq!(
        inst.coflow(0).demand.nonzero_entries().collect::<Vec<_>>(),
        vec![(0, 50_000, 1)]
    );
}
