//! Trace serialization: JSON (hand-rolled, see [`crate::json`]) and a
//! simple CSV flow listing.
//!
//! The CSV format is one flow per line — `coflow_id,src,dst,mb,release,
//! weight` — the shape cluster traces are usually published in, so real
//! traces can be dropped in without code changes. An optional first line
//! starting with `coflow_id` is a header; blank lines are skipped.
//!
//! Both readers take hostile bytes: every problem is a [`TraceError`]
//! carrying the line number and offending field, never a panic and never
//! a silently defaulted value. They refuse a port outside the fabric, a
//! JSON record whose fabric width `m` is not the trace's, CSV rows of one
//! coflow that disagree on its release or weight, a coflow whose units
//! overflow `u64`, and a trace whose latest release plus its total units
//! overflows `u64` (the horizon every schedule is measured against).
//! Neither allocates per port: a coflow is read as its flow list.

use crate::error::TraceError;
use crate::json::{self, JsonValue};
use coflow::{Coflow, Demand, Instance};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// The CSV columns, in order.
const CSV_FIELDS: [&str; 6] = ["coflow_id", "src", "dst", "mb", "release", "weight"];

/// One coflow while parsing CSV: its first line, flows, running total,
/// release and weight.
struct CsvCoflow {
    line: usize,
    flows: Vec<(usize, usize, u64)>,
    total: u64,
    release: u64,
    weight: f64,
}

/// Serializes an instance to pretty JSON: `[ports, [record, ...]]` where
/// each record is `{"id", "m", "flows": [[src, dst, units], ...],
/// "release", "weight"}`.
pub fn to_json(instance: &Instance) -> String {
    let mut out = String::new();
    out.push_str(&format!("[\n  {},\n  [", instance.ports()));
    for (idx, c) in instance.coflows().iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"id\": {}, \"m\": {}, \"flows\": [",
            c.id,
            c.demand.dim()
        ));
        for (fi, (i, j, u)) in c.demand.nonzero_entries().enumerate() {
            if fi > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{}, {}, {}]", i, j, u));
        }
        out.push_str(&format!(
            "], \"release\": {}, \"weight\": {}}}",
            c.release,
            json::fmt_f64(c.weight)
        ));
    }
    out.push_str("\n  ]\n]\n");
    out
}

/// Extracts a nonnegative integer field from a JSON record.
fn json_uint(v: &JsonValue, line: usize, field: &str) -> Result<u64, TraceError> {
    match v {
        JsonValue::Num(lexeme) => lexeme.parse::<u64>().map_err(|_| TraceError::BadField {
            line,
            field: field.to_string(),
            value: lexeme.clone(),
            message: "expected a nonnegative integer".to_string(),
        }),
        other => Err(TraceError::BadField {
            line,
            field: field.to_string(),
            value: other.kind().to_string(),
            message: "expected a number".to_string(),
        }),
    }
}

/// Looks up `field` in a record object (line 1 reported for missing keys —
/// the document is machine-written, so per-record line tracking stops at
/// parse time).
fn json_field<'v>(
    record: &'v JsonValue,
    field: &str,
    record_idx: usize,
) -> Result<&'v JsonValue, TraceError> {
    record.get(field).ok_or_else(|| TraceError::Syntax {
        line: 1,
        message: format!("record {}: missing field '{}'", record_idx, field),
    })
}

/// Parses an instance from [`to_json`] output.
pub fn from_json(s: &str) -> Result<Instance, TraceError> {
    let doc = json::parse(s)?;
    let JsonValue::Arr(top) = &doc else {
        return Err(TraceError::Syntax {
            line: 1,
            message: format!("expected top-level array, found {}", doc.kind()),
        });
    };
    if top.len() != 2 {
        return Err(TraceError::Syntax {
            line: 1,
            message: format!("expected [ports, records], found {} elements", top.len()),
        });
    }
    let ports = json_uint(&top[0], 1, "ports")? as usize;
    let JsonValue::Arr(records) = &top[1] else {
        return Err(TraceError::Syntax {
            line: 1,
            message: format!("expected records array, found {}", top[1].kind()),
        });
    };
    let mut coflows = Vec::with_capacity(records.len());
    for (ri, record) in records.iter().enumerate() {
        if !matches!(record, JsonValue::Obj(_)) {
            return Err(TraceError::Syntax {
                line: 1,
                message: format!("record {}: expected object, found {}", ri, record.kind()),
            });
        }
        let id = json_uint(json_field(record, "id", ri)?, 1, "id")? as usize;
        let m = json_uint(json_field(record, "m", ri)?, 1, "m")? as usize;
        let release = json_uint(json_field(record, "release", ri)?, 1, "release")?;
        let weight = match json_field(record, "weight", ri)? {
            JsonValue::Num(lexeme) => {
                let w = lexeme.parse::<f64>().map_err(|_| TraceError::BadField {
                    line: 1,
                    field: "weight".to_string(),
                    value: lexeme.clone(),
                    message: "expected a number".to_string(),
                })?;
                if !(w > 0.0 && w.is_finite()) {
                    return Err(TraceError::BadField {
                        line: 1,
                        field: "weight".to_string(),
                        value: lexeme.clone(),
                        message: "weights must be positive and finite".to_string(),
                    });
                }
                w
            }
            other => {
                return Err(TraceError::BadField {
                    line: 1,
                    field: "weight".to_string(),
                    value: other.kind().to_string(),
                    message: "expected a number".to_string(),
                })
            }
        };
        if m != ports {
            return Err(TraceError::BadField {
                line: 1,
                field: "m".to_string(),
                value: m.to_string(),
                message: format!("record {}: the trace's fabric has {} ports", ri, ports),
            });
        }
        let JsonValue::Arr(flows) = json_field(record, "flows", ri)? else {
            return Err(TraceError::Syntax {
                line: 1,
                message: format!("record {}: 'flows' is not an array", ri),
            });
        };
        let mut rec_flows = Vec::with_capacity(flows.len());
        let mut total = 0u64;
        for flow in flows {
            let JsonValue::Arr(triple) = flow else {
                return Err(TraceError::Syntax {
                    line: 1,
                    message: format!("record {}: flow entry is not an array", ri),
                });
            };
            if triple.len() != 3 {
                return Err(TraceError::Syntax {
                    line: 1,
                    message: format!(
                        "record {}: flow entry has {} elements (expected 3)",
                        ri,
                        triple.len()
                    ),
                });
            }
            let src = json_uint(&triple[0], 1, "src")? as usize;
            let dst = json_uint(&triple[1], 1, "dst")? as usize;
            let units = json_uint(&triple[2], 1, "mb")?;
            check_ports(1, src, dst, ports)?;
            total = add_units(1, total, units)?;
            rec_flows.push((src, dst, units));
        }
        coflows.push(
            Coflow::new(id, demand(1, ports, rec_flows)?)
                .with_release(release)
                .with_weight(weight),
        );
    }
    check_horizon(&coflows, |_| 1)?;
    Ok(Instance::new(ports, coflows))
}

/// Serializes an instance to CSV (`coflow_id,src,dst,mb,release,weight`,
/// header included).
pub fn to_csv(instance: &Instance) -> String {
    let mut out = String::from("coflow_id,src,dst,mb,release,weight\n");
    for c in instance.coflows() {
        for (i, j, d) in c.demand.nonzero_entries() {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                c.id, i, j, d, c.release, c.weight
            ));
        }
    }
    out
}

/// The data rows of a CSV trace as `(1-based line, trimmed row)`: blank
/// lines and a first-line header (starting with `coflow_id`) are skipped.
fn csv_rows(s: &str) -> impl Iterator<Item = (usize, &str)> {
    s.lines()
        .enumerate()
        .map(|(idx, row)| (idx + 1, row.trim()))
        .filter(|&(line, row)| !(row.is_empty() || line == 1 && row.starts_with("coflow_id")))
}

/// The fabric a CSV trace implies when none is given: one port past the
/// largest `src` or `dst` its rows name, at least one. Rows whose ports
/// do not parse are skipped here; [`from_csv`] reports them.
pub fn csv_ports(s: &str) -> usize {
    csv_rows(s)
        .filter_map(|(_, row)| {
            let mut fields = row.split(',').skip(1);
            let src = fields.next()?.parse::<usize>().ok()?;
            let dst = fields.next()?.parse::<usize>().ok()?;
            Some(src.max(dst))
        })
        .max()
        .map_or(1, |p| p.saturating_add(1))
}

/// Parses an instance from CSV produced by [`to_csv`] (or any file in the
/// same format) on a `ports`-port fabric ([`csv_ports`] infers one). Rows
/// of one coflow may come in any order and repeat a pair, whose units add
/// up; they must agree on the coflow's release and weight.
pub fn from_csv(ports: usize, s: &str) -> Result<Instance, TraceError> {
    let mut map: BTreeMap<usize, CsvCoflow> = BTreeMap::new();
    for (line, row) in csv_rows(s) {
        let fields: Vec<&str> = row.split(',').collect();
        if fields.len() != 6 {
            return Err(TraceError::Syntax {
                line,
                message: format!("expected 6 fields, found {}", fields.len()),
            });
        }
        let bad = |idx: usize, message: &str| TraceError::BadField {
            line,
            field: CSV_FIELDS[idx].to_string(),
            value: fields[idx].to_string(),
            message: message.to_string(),
        };
        let id: usize = csv_uint(&fields, 0, bad)?;
        let src: usize = csv_uint(&fields, 1, bad)?;
        let dst: usize = csv_uint(&fields, 2, bad)?;
        let mb: u64 = csv_uint(&fields, 3, bad)?;
        let release: u64 = csv_uint(&fields, 4, bad)?;
        let weight = fields[5]
            .parse::<f64>()
            .map_err(|_| bad(5, "expected a number"))?;
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(bad(5, "weights must be positive and finite"));
        }
        check_ports(line, src, dst, ports)?;
        match map.entry(id) {
            Entry::Vacant(slot) => {
                slot.insert(CsvCoflow {
                    line,
                    flows: vec![(src, dst, mb)],
                    total: mb,
                    release,
                    weight,
                });
            }
            Entry::Occupied(slot) => {
                let c = slot.into_mut();
                for (idx, agrees) in [(4, c.release == release), (5, c.weight == weight)] {
                    if !agrees {
                        let message = format!(
                            "coflow {} has a different {} on line {}",
                            id, CSV_FIELDS[idx], c.line
                        );
                        return Err(bad(idx, &message));
                    }
                }
                c.total = add_units(line, c.total, mb)?;
                c.flows.push((src, dst, mb));
            }
        }
    }
    let mut lines = Vec::with_capacity(map.len());
    let mut coflows = Vec::with_capacity(map.len());
    for (id, c) in map {
        lines.push(c.line);
        coflows.push(
            Coflow::new(id, demand(c.line, ports, c.flows)?)
                .with_release(c.release)
                .with_weight(c.weight),
        );
    }
    check_horizon(&coflows, |k| lines[k])?;
    Ok(Instance::new(ports, coflows))
}

/// Parses CSV field `idx` as a nonnegative integer; `bad` builds the error.
fn csv_uint<T: std::str::FromStr>(
    fields: &[&str],
    idx: usize,
    bad: impl Fn(usize, &str) -> TraceError,
) -> Result<T, TraceError> {
    fields[idx]
        .parse()
        .map_err(|_| bad(idx, "expected a nonnegative integer"))
}

/// Refuses a flow whose `src` or `dst` is outside the `ports`-port fabric.
fn check_ports(line: usize, src: usize, dst: usize, ports: usize) -> Result<(), TraceError> {
    for (field, value) in [("src", src), ("dst", dst)] {
        if value >= ports {
            return Err(TraceError::PortRange {
                line,
                field: field.to_string(),
                value,
                ports,
            });
        }
    }
    Ok(())
}

/// Adds a flow's units to its coflow's running total, refusing overflow.
fn add_units(line: usize, total: u64, units: u64) -> Result<u64, TraceError> {
    total
        .checked_add(units)
        .ok_or_else(|| TraceError::BadField {
            line,
            field: "mb".to_string(),
            value: units.to_string(),
            message: "the coflow's units overflow u64".to_string(),
        })
}

/// The demand of a coflow's checked flows (in range, total in `u64`).
fn demand(
    line: usize,
    ports: usize,
    flows: Vec<(usize, usize, u64)>,
) -> Result<Demand, TraceError> {
    Demand::from_flows(ports, flows).map_err(|e| TraceError::Syntax {
        line,
        message: e.to_string(),
    })
}

/// Refuses a trace whose latest release plus its total units — the
/// horizon `T` of every schedule of it — overflows `u64`. `line_of(k)` is
/// where coflow `k` is read from.
fn check_horizon(coflows: &[Coflow], line_of: impl Fn(usize) -> usize) -> Result<(), TraceError> {
    let Some((k, latest)) = coflows.iter().enumerate().max_by_key(|(_, c)| c.release) else {
        return Ok(());
    };
    let total = coflows
        .iter()
        .try_fold(0u64, |t, c| t.checked_add(c.total_units()));
    match total.and_then(|t| latest.release.checked_add(t)) {
        Some(_) => Ok(()),
        None => Err(TraceError::BadField {
            line: line_of(k),
            field: "release".to_string(),
            value: latest.release.to_string(),
            message: "the latest release plus the trace's total units overflows u64".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facebook::{generate_trace, TraceConfig};

    #[test]
    fn json_round_trip() {
        let inst = generate_trace(&TraceConfig::small(5));
        let json = to_json(&inst);
        let back = from_json(&json).expect("parse");
        assert_eq!(back.len(), inst.len());
        for (a, b) in inst.coflows().iter().zip(back.coflows()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn csv_round_trip() {
        let inst = generate_trace(&TraceConfig::small(6));
        let csv = to_csv(&inst);
        let back = from_csv(inst.ports(), &csv).expect("parse");
        assert_eq!(back.len(), inst.len());
        for (a, b) in inst.coflows().iter().zip(back.coflows()) {
            assert_eq!(a.demand, b.demand);
            assert_eq!(a.release, b.release);
        }
    }

    #[test]
    fn csv_rejects_bad_lines() {
        assert!(from_csv(4, "coflow_id,src,dst,mb,release,weight\n1,2\n").is_err());
        assert!(from_csv(4, "0,9,0,5,0,1.0\n").is_err()); // port out of range
        assert!(from_csv(4, "0,1,0,xyz,0,1.0\n").is_err());
    }

    #[test]
    fn csv_errors_carry_line_and_field() {
        // Row 3 (after the header) has a non-numeric `mb` field.
        let csv = "coflow_id,src,dst,mb,release,weight\n0,1,2,5,0,1.0\n0,2,1,oops,0,1.0\n";
        let err = from_csv(4, csv).unwrap_err();
        assert_eq!(
            err,
            TraceError::BadField {
                line: 3,
                field: "mb".to_string(),
                value: "oops".to_string(),
                message: "expected a nonnegative integer".to_string(),
            }
        );
        assert!(err.to_string().contains("line 3"), "{}", err);
        assert!(err.to_string().contains("mb"), "{}", err);

        let err = from_csv(4, "0,1,2,5,0,1.0\n0,7,1,2,0,1.0\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::PortRange {
                line: 2,
                field: "src".to_string(),
                value: 7,
                ports: 4,
            }
        );
    }

    #[test]
    fn corrupt_json_trace_file_is_rejected() {
        let inst = generate_trace(&TraceConfig::small(4));
        let json = to_json(&inst);

        // Structural corruption: truncate mid-document.
        let truncated = &json[..json.len() / 2];
        assert!(matches!(
            from_json(truncated),
            Err(TraceError::Syntax { .. })
        ));

        // Field corruption: negative src index in a flow triple.
        let corrupted = json.replacen("\"flows\": [[", "\"flows\": [[-", 1);
        if corrupted != json {
            let err = from_json(&corrupted).unwrap_err();
            assert!(
                matches!(err, TraceError::BadField { ref field, .. } if field == "src"),
                "{}",
                err
            );
        }

        // Semantic corruption: zero weight.
        let corrupted = json.replacen("\"weight\": 1", "\"weight\": 0", 1);
        if corrupted != json {
            let err = from_json(&corrupted).unwrap_err();
            assert!(
                matches!(err, TraceError::BadField { ref field, .. } if field == "weight"),
                "{}",
                err
            );
        }
    }

    #[test]
    fn csv_accumulates_duplicate_pairs() {
        let csv = "0,1,2,5,0,1.0\n0,1,2,3,0,1.0\n";
        let inst = from_csv(4, csv).expect("parse");
        assert_eq!(inst.coflow(0).demand.get(1, 2), 8);
    }
}
