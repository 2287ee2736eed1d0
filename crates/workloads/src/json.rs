//! Minimal JSON reader/writer for trace files.
//!
//! The parser itself now lives in the dependency-free `obs` crate
//! ([`obs::json`]) so lower layers (e.g. `coflow::sched::snapshot`) can
//! share it; this module re-exports the value type and writers and adapts
//! parse errors into [`TraceError`] so existing trace-I/O callers keep
//! their error surface unchanged.

use crate::error::TraceError;

pub use obs::json::{fmt_f64, quote, JsonValue};

/// Parses a complete JSON document, mapping syntax errors (with their
/// 1-based source line) into [`TraceError::Syntax`].
pub fn parse(s: &str) -> Result<JsonValue, TraceError> {
    obs::json::parse(s).map_err(|e| TraceError::Syntax {
        line: e.line,
        message: e.message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_keep_trace_error_shape() {
        let err = parse("[\n1,\n:bad\n]").unwrap_err();
        assert_eq!(err.line(), 3, "{}", err);
    }

    #[test]
    fn round_trips_through_shared_parser() {
        let v = parse(r#"{"w": 1.5, "ids": [1, 2]}"#).expect("parse");
        assert_eq!(v.get("w"), Some(&JsonValue::Num("1.5".into())));
        assert_eq!(fmt_f64(0.1).parse::<f64>().unwrap(), 0.1);
        assert_eq!(
            parse(&quote("a\"b")).unwrap(),
            JsonValue::Str("a\"b".into())
        );
    }
}
