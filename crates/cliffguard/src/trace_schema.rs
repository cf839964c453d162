//! Validation of CliffGuard JSONL trace files against a golden schema.
//!
//! The telemetry subscriber (`cliffguard_telemetry`) writes one JSON
//! object per line. The golden schema (`schemas/trace.schema.json` at the
//! repository root) pins down the contract downstream tooling relies on:
//! which top-level keys every line carries, the allowed `kind` and
//! `level` values, and the closed set of production event/span names.
//! CI runs a seeded design session and validates the resulting trace
//! here, so a renamed event or a dropped field fails the build instead
//! of silently breaking trace consumers.
//!
//! The schema file is itself JSON:
//!
//! ```json
//! {
//!   "required": ["t", "kind", "level", "name", "fields"],
//!   "kinds": ["event", "span"],
//!   "span_required": ["dur_ms"],
//!   "levels": ["error", "warn", "info", "debug", "trace"],
//!   "name_prefix": "cliffguard.",
//!   "names": ["cliffguard.core.session.start", "..."]
//! }
//! ```
//!
//! An empty `names` array disables the allowlist (any name with the
//! prefix passes); this is useful while prototyping a new event before
//! promoting it into the golden file.

use serde::Value;
use std::fmt;

/// A parsed trace schema: the contract a JSONL trace must satisfy.
#[derive(Debug, Clone)]
pub struct TraceSchema {
    /// Keys every trace line must carry.
    pub required: Vec<String>,
    /// Allowed values of the `kind` field.
    pub kinds: Vec<String>,
    /// Extra keys required when `kind` is `"span"`.
    pub span_required: Vec<String>,
    /// Allowed values of the `level` field.
    pub levels: Vec<String>,
    /// Every `name` must start with this prefix.
    pub name_prefix: String,
    /// Closed set of allowed names; empty = prefix check only.
    pub names: Vec<String>,
}

/// A schema violation on one trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceViolation {
    /// 1-based line number in the trace file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

fn str_list(map: &[(String, Value)], key: &str) -> Result<Vec<String>, String> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, Value::Seq(items))) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(format!(
                    "schema `{key}` entries must be strings, got {other:?}"
                )),
            })
            .collect(),
        Some(_) => Err(format!("schema `{key}` must be an array of strings")),
        None => Err(format!("schema is missing `{key}`")),
    }
}

impl TraceSchema {
    /// Parses a schema from its JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("schema is not JSON: {e}"))?;
        let map = v.as_map().ok_or("schema root must be a JSON object")?;
        let name_prefix = match map.iter().find(|(k, _)| k == "name_prefix") {
            Some((_, Value::Str(s))) => s.clone(),
            Some(_) => return Err("schema `name_prefix` must be a string".into()),
            None => return Err("schema is missing `name_prefix`".into()),
        };
        Ok(Self {
            required: str_list(map, "required")?,
            kinds: str_list(map, "kinds")?,
            span_required: str_list(map, "span_required")?,
            levels: str_list(map, "levels")?,
            name_prefix,
            names: str_list(map, "names")?,
        })
    }

    /// Reads and parses a schema file, attributing both I/O and parse
    /// failures to the path — a proper `Result` path for callers (the
    /// `validate-trace` command, CI) instead of a panic on a missing
    /// file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read schema {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("schema {}: {e}", path.display()))
    }

    /// Validates one trace line (without its trailing newline).
    pub fn check_line(&self, line: &str) -> Result<(), String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("not valid JSON: {e}"))?;
        let map = v.as_map().ok_or("trace line must be a JSON object")?;
        for key in &self.required {
            if !map.iter().any(|(k, _)| k == key) {
                return Err(format!("missing required key `{key}`"));
            }
        }
        let mut kind = "";
        for (k, val) in map {
            match k.as_str() {
                "t" => match val {
                    Value::U64(_) => {}
                    _ => return Err("`t` must be a non-negative integer".into()),
                },
                "kind" => match val {
                    Value::Str(s) if self.kinds.iter().any(|k| k == s) => kind = s,
                    Value::Str(s) => return Err(format!("unknown kind `{s}`")),
                    _ => return Err("`kind` must be a string".into()),
                },
                "level" => match val {
                    Value::Str(s) if self.levels.iter().any(|l| l == s) => {}
                    Value::Str(s) => return Err(format!("unknown level `{s}`")),
                    _ => return Err("`level` must be a string".into()),
                },
                "name" => match val {
                    Value::Str(s) => {
                        if !s.starts_with(&self.name_prefix) {
                            return Err(format!("name `{s}` lacks prefix `{}`", self.name_prefix));
                        }
                        if !self.names.is_empty() && !self.names.iter().any(|n| n == s) {
                            return Err(format!("name `{s}` not in schema allowlist"));
                        }
                    }
                    _ => return Err("`name` must be a string".into()),
                },
                "dur_ms" => match val {
                    Value::U64(_) => {}
                    _ => return Err("`dur_ms` must be a non-negative integer".into()),
                },
                "fields" => {
                    if val.as_map().is_none() {
                        return Err("`fields` must be an object".into());
                    }
                }
                other => return Err(format!("unexpected key `{other}`")),
            }
        }
        if kind == "span" {
            for key in &self.span_required {
                if !map.iter().any(|(k, _)| k == key) {
                    return Err(format!("span is missing required key `{key}`"));
                }
            }
        }
        Ok(())
    }

    /// Validates a whole JSONL trace. Returns the number of (non-blank)
    /// lines checked, or every violation found.
    pub fn check_trace(&self, text: &str) -> Result<usize, Vec<TraceViolation>> {
        let mut checked = 0;
        let mut violations = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            checked += 1;
            if let Err(message) = self.check_line(line) {
                violations.push(TraceViolation {
                    line: i + 1,
                    message,
                });
            }
        }
        if violations.is_empty() {
            Ok(checked)
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TraceSchema {
        TraceSchema::parse(
            r#"{
                "required": ["t", "kind", "level", "name", "fields"],
                "kinds": ["event", "span"],
                "span_required": ["dur_ms"],
                "levels": ["error", "warn", "info", "debug", "trace"],
                "name_prefix": "cliffguard.",
                "names": ["cliffguard.core.session.start", "cliffguard.core.descent.iter"]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn accepts_valid_event_and_span_lines() {
        let s = schema();
        let trace = concat!(
            r#"{"t":0,"kind":"event","level":"info","name":"cliffguard.core.session.start","fields":{"gamma":0.1}}"#,
            "\n",
            r#"{"t":5,"kind":"span","level":"info","name":"cliffguard.core.descent.iter","dur_ms":3,"fields":{"iter":0}}"#,
            "\n",
        );
        assert_eq!(s.check_trace(trace), Ok(2));
    }

    #[test]
    fn rejects_bad_lines_with_line_numbers() {
        let s = schema();
        // Line 1: unknown name. Line 2: span missing dur_ms. Line 3: bad JSON.
        let trace = concat!(
            r#"{"t":0,"kind":"event","level":"info","name":"cliffguard.nope","fields":{}}"#,
            "\n",
            r#"{"t":1,"kind":"span","level":"info","name":"cliffguard.core.descent.iter","fields":{}}"#,
            "\n",
            "{not json\n",
        );
        let errs = s.check_trace(trace).unwrap_err();
        assert_eq!(errs.len(), 3);
        assert_eq!(errs[0].line, 1);
        assert!(errs[0].message.contains("allowlist"), "{}", errs[0]);
        assert_eq!(errs[1].line, 2);
        assert!(errs[1].message.contains("dur_ms"), "{}", errs[1]);
        assert_eq!(errs[2].line, 3);
    }

    #[test]
    fn rejects_missing_keys_wrong_types_and_foreign_prefix() {
        let s = schema();
        assert!(s
            .check_line(r#"{"kind":"event","level":"info","name":"cliffguard.core.session.start","fields":{}}"#)
            .unwrap_err()
            .contains("missing required key `t`"));
        assert!(s
            .check_line(r#"{"t":-1,"kind":"event","level":"info","name":"cliffguard.core.session.start","fields":{}}"#)
            .unwrap_err()
            .contains("non-negative"));
        assert!(s
            .check_line(r#"{"t":0,"kind":"event","level":"info","name":"other.thing","fields":{}}"#)
            .unwrap_err()
            .contains("prefix"));
        assert!(s
            .check_line(r#"{"t":0,"kind":"event","level":"loud","name":"cliffguard.core.session.start","fields":{}}"#)
            .unwrap_err()
            .contains("unknown level"));
        assert!(s
            .check_line(r#"{"t":0,"kind":"event","level":"info","name":"cliffguard.core.session.start","fields":{},"extra":1}"#)
            .unwrap_err()
            .contains("unexpected key"));
    }

    #[test]
    fn empty_names_list_falls_back_to_prefix_check() {
        let mut s = schema();
        s.names.clear();
        assert!(s
            .check_line(
                r#"{"t":0,"kind":"event","level":"info","name":"cliffguard.anything","fields":{}}"#
            )
            .is_ok());
    }

    #[test]
    fn parse_rejects_malformed_schemas() {
        assert!(TraceSchema::parse("[]").is_err());
        assert!(TraceSchema::parse(r#"{"required": "t"}"#).is_err());
        assert!(TraceSchema::parse(r#"{"required": [1]}"#).is_err());
    }

    #[test]
    fn load_attributes_errors_to_the_path() {
        let err = TraceSchema::load(std::path::Path::new("/nonexistent/trace.schema.json"))
            .expect_err("missing file must be an error, not a panic");
        assert!(err.contains("/nonexistent/trace.schema.json"), "{err}");
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn golden_schema_file_parses_and_covers_production_names() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/trace.schema.json"
        );
        let s = match TraceSchema::load(std::path::Path::new(path)) {
            Ok(s) => s,
            Err(e) => panic!("golden schema must load: {e}"),
        };
        // Exactly the event and span names the production code emits.
        let production = [
            "cliffguard.core.session.start",
            "cliffguard.core.session.finish",
            "cliffguard.core.session.resume",
            "cliffguard.core.session.fault",
            "cliffguard.core.session.retry",
            "cliffguard.core.session.degraded",
            "cliffguard.core.descent.iter",
            "cliffguard.core.ingest.window",
            "cliffguard.core.ingest.trigger",
            "cliffguard.serve.start",
            "cliffguard.serve.recover",
            "cliffguard.serve.request",
            "cliffguard.serve.session.end",
            "cliffguard.serve.ingest.window",
            "cliffguard.serve.shutdown",
            "cliffguard.serve.conn.error",
        ];
        assert_eq!(s.names, production);
    }
}
