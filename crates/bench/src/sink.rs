//! Shared report sink for the bench harnesses.
//!
//! Every JSON report in this crate (`coflow-bench-grid/3`,
//! `coflow-diagnostics/1`, `coflow-chaos/1`, `coflow-fault-policies/1`,
//! `coflow-bench-mem/1`) historically hand-rolled the same skeleton —
//! open brace, schema tag, scalar header fields, body sections, atomic
//! write. [`JsonDoc`] centralizes the skeleton (schema tagging, field
//! separators, the trailing newline) while leaving body sections as
//! pre-rendered raw JSON, so each report keeps full control of its layout
//! (the explain golden test pins exact bytes).
//!
//! [`write_json_report`] is the one write path: atomic temp-file +
//! rename via [`obs::atomic_write`], plus a `source:"report"` breadcrumb
//! on the NDJSON telemetry stream when one is installed — a live tail
//! shows report files landing between engine heartbeats.

use coflow_workloads::json::{self, fmt_f64};

/// A top-level JSON report document under construction: a `schema` tag
/// followed by ordered key/value entries. Values are pre-rendered JSON
/// fragments; multi-line fragments (arrays of cells) nest naturally as
/// long as their continuation lines carry their own indentation.
#[derive(Clone, Debug)]
pub struct JsonDoc {
    entries: Vec<(String, String)>,
    schemas: Vec<String>,
}

impl JsonDoc {
    /// Starts a document tagged with `schema`. A `provenance` header —
    /// git revision, dirty flag, timestamp, and the schema list — renders
    /// immediately after the tag, so every report can be traced back to
    /// the tree that produced it. Golden tests zero it via
    /// [`obs::ledger::set_zero_provenance`] (or `COFLOW_PROVENANCE=zero`)
    /// to stay byte-stable.
    pub fn new(schema: &str) -> Self {
        let mut doc = JsonDoc {
            entries: Vec::new(),
            schemas: vec![schema.to_string()],
        };
        doc.raw("schema", json::quote(schema));
        doc
    }

    /// Extends the provenance schema list — the diff report lists both
    /// compared schemas alongside its own.
    pub fn add_schemas(&mut self, extra: &[&str]) -> &mut Self {
        for s in extra {
            if !self.schemas.iter().any(|have| have == s) {
                self.schemas.push(s.to_string());
            }
        }
        self
    }

    /// Appends a pre-rendered JSON value (object, array, or literal).
    pub fn raw(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.entries.push((key.to_string(), value.into()));
        self
    }

    /// Appends an integer or boolean (anything rendering as a bare JSON
    /// literal via `Display`).
    pub fn num(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Appends a float, formatted for exact round-trips.
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, fmt_f64(value))
    }

    /// Appends a quoted, escaped string.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, json::quote(value))
    }

    /// Renders the document: two-space-indented entries, one per line,
    /// with a trailing newline (the historical report shape). The
    /// provenance header is rendered right after the schema tag.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let provenance = ("provenance".to_string(), render_provenance(&self.schemas));
        let n = self.entries.len() + 1;
        let all = self
            .entries
            .iter()
            .take(1)
            .chain(std::iter::once(&provenance).chain(self.entries.iter().skip(1)));
        for (i, (key, value)) in all.enumerate() {
            out.push_str("  ");
            out.push_str(&json::quote(key));
            out.push_str(": ");
            out.push_str(value);
            out.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

/// Renders the shared provenance object carried by every report: git rev,
/// dirty flag, unix timestamp, and the schemas the document speaks.
/// Zeroed (rev `0000000000`, ts 0) under `COFLOW_PROVENANCE=zero` so
/// golden files stay byte-stable.
fn render_provenance(schemas: &[String]) -> String {
    let prov = obs::ledger::git_provenance();
    let list: Vec<String> = schemas.iter().map(|s| json::quote(s)).collect();
    format!(
        "{{\"git_rev\": {}, \"git_dirty\": {}, \"ts\": {}, \"schemas\": [{}]}}",
        json::quote(&prov.git_rev),
        prov.git_dirty,
        obs::ledger::unix_ts(),
        list.join(", ")
    )
}

/// Writes a rendered report to `path` atomically (temp file + rename) and,
/// when a telemetry sink is installed, appends a `source:"report"`
/// heartbeat naming `what` and the path. Returns a displayable error on
/// I/O failure; the caller decides the exit path.
pub fn write_json_report(path: &str, what: &str, contents: &str) -> Result<(), String> {
    obs::atomic_write(path, contents).map_err(|e| e.to_string())?;
    if obs::telemetry::active() {
        let label = format!("{} -> {}", what, path);
        obs::telemetry::emit(&obs::telemetry::Sample {
            source: "report",
            label: &label,
            ..Default::default()
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_workloads::json::JsonValue;

    #[test]
    fn doc_renders_schema_then_provenance_with_exact_layout() {
        obs::ledger::set_zero_provenance(true);
        let mut doc = JsonDoc::new("coflow-test/1");
        doc.num("seed", 7u64)
            .float("ratio", 1.5)
            .text("name", "x\"y");
        doc.raw("cells", "[\n    {\"a\": 1}\n  ]");
        let text = doc.render();
        assert!(text.starts_with(
            "{\n  \"schema\": \"coflow-test/1\",\n  \"provenance\": \
             {\"git_rev\": \"0000000000\", \"git_dirty\": false, \"ts\": 0, \
             \"schemas\": [\"coflow-test/1\"]},\n  \"seed\": 7,\n"
        ));
        assert!(text.ends_with("  \"cells\": [\n    {\"a\": 1}\n  ]\n}\n"));
        let parsed = json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("schema"),
            Some(&JsonValue::Str("coflow-test/1".into()))
        );
        assert_eq!(parsed.get("ratio"), Some(&JsonValue::Num("1.5".into())));
        assert_eq!(parsed.get("name"), Some(&JsonValue::Str("x\"y".into())));
        let prov = parsed.get("provenance").expect("provenance present");
        assert_eq!(
            prov.get("git_rev"),
            Some(&JsonValue::Str("0000000000".into()))
        );
        // stay zeroed: tests run in parallel and none asserts live provenance
    }

    #[test]
    fn add_schemas_extends_the_provenance_list_without_duplicates() {
        obs::ledger::set_zero_provenance(true);
        let mut doc = JsonDoc::new("coflow-diff/1");
        doc.add_schemas(&["coflow-ledger/1", "coflow-diff/1"]);
        let parsed = json::parse(&doc.render()).expect("valid JSON");
        let prov = parsed.get("provenance").expect("provenance present");
        match prov.get("schemas") {
            Some(JsonValue::Arr(items)) => {
                let names: Vec<_> = items
                    .iter()
                    .filter_map(|v| match v {
                        JsonValue::Str(s) => Some(s.as_str()),
                        _ => None,
                    })
                    .collect();
                assert_eq!(names, ["coflow-diff/1", "coflow-ledger/1"]);
            }
            other => panic!("schemas not an array: {:?}", other),
        }
        // stay zeroed: tests run in parallel and none asserts live provenance
    }

    #[test]
    fn write_json_report_is_atomic_and_surfaces_errors() {
        let dir = std::env::temp_dir().join("coflow-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path = path.to_str().unwrap();
        write_json_report(path, "test report", "{\"schema\": \"t/1\"}\n").expect("write");
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            "{\"schema\": \"t/1\"}\n"
        );
        assert!(write_json_report("/nonexistent-dir/x.json", "test", "{}").is_err());
    }
}
