//! A minimal JSON-Schema-subset validator for exported artifacts.
//!
//! The container is offline, so rather than a full `jsonschema` dependency
//! this implements exactly the keywords the checked-in schemas use:
//! `type` (string or array of strings), `properties`, `required`,
//! `additionalProperties` (boolean or schema — the schema form doubles as
//! our "map with arbitrary keys" pattern), `items`, `minItems` and
//! `maxItems`. Unknown keywords are ignored, like real JSON Schema.
//!
//! It lives in the substrate (rather than the bench harness, where it
//! started) because every consumer of the simulator's JSON exports wants
//! it: `adcp trace --validate`, the conformance harness, and the serving
//! daemon's rotating metrics stream all validate against
//! `schemas/*.schema.json` before writing.

use serde::Value;

/// Validate `value` against a (subset) JSON schema. Returns every
/// violation found, each prefixed with a `/`-separated path from the root,
/// or `Ok(())` when the document conforms.
pub fn validate(value: &Value, schema: &Value) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    check(value, schema, "$", &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::U64(_) | Value::U128(_) | Value::I64(_) => "integer",
        Value::F64(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn type_matches(v: &Value, want: &str) -> bool {
    match want {
        // JSON Schema: every integer is also a number.
        "number" => matches!(type_name(v), "integer" | "number"),
        w => type_name(v) == w,
    }
}

fn check(value: &Value, schema: &Value, path: &str, errors: &mut Vec<String>) {
    let Some(schema_obj) = schema.as_object() else {
        // Boolean schemas: `true` accepts anything, `false` nothing.
        if schema.as_bool() == Some(false) {
            errors.push(format!("{path}: schema forbids any value here"));
        }
        return;
    };

    if let Some(t) = schema_obj.get("type") {
        let wanted: Vec<&str> = match t {
            Value::String(s) => vec![s.as_str()],
            Value::Array(ts) => ts.iter().filter_map(Value::as_str).collect(),
            _ => vec![],
        };
        if !wanted.is_empty() && !wanted.iter().any(|w| type_matches(value, w)) {
            errors.push(format!(
                "{path}: expected type {}, got {}",
                wanted.join("|"),
                type_name(value)
            ));
            return; // Structural keywords below assume the right type.
        }
    }

    if let Some(obj) = value.as_object() {
        if let Some(req) = schema_obj.get("required").and_then(Value::as_array) {
            for key in req.iter().filter_map(Value::as_str) {
                if obj.get(key).is_none() {
                    errors.push(format!("{path}: missing required member {key:?}"));
                }
            }
        }
        let props = schema_obj.get("properties").and_then(Value::as_object);
        let additional = schema_obj.get("additionalProperties");
        for (key, member) in obj.iter() {
            let member_path = format!("{path}/{key}");
            match props.and_then(|p| p.get(key)) {
                Some(sub) => check(member, sub, &member_path, errors),
                None => match additional {
                    Some(Value::Bool(false)) => {
                        errors.push(format!("{path}: unexpected member {key:?}"));
                    }
                    Some(sub @ Value::Object(_)) => check(member, sub, &member_path, errors),
                    _ => {}
                },
            }
        }
    }

    if let Some(items) = value.as_array() {
        if let Some(min) = schema_obj.get("minItems").and_then(Value::as_u64) {
            if (items.len() as u64) < min {
                errors.push(format!("{path}: fewer than {min} items"));
            }
        }
        if let Some(max) = schema_obj.get("maxItems").and_then(Value::as_u64) {
            if (items.len() as u64) > max {
                errors.push(format!("{path}: more than {max} items"));
            }
        }
        if let Some(item_schema) = schema_obj.get("items") {
            for (i, item) in items.iter().enumerate() {
                check(item, item_schema, &format!("{path}/{i}"), errors);
            }
        }
    }
}

/// Load a checked-in schema by workspace-relative path (walks up from the
/// current directory until the file is found, so both `cargo run` and CI
/// work).
pub fn load_schema(rel: &str) -> Result<Value, String> {
    let rel = std::path::Path::new(rel);
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let candidate = dir.join(rel);
        if candidate.exists() {
            let text = std::fs::read_to_string(&candidate).map_err(|e| e.to_string())?;
            return serde_json::from_str(&text)
                .map_err(|e| format!("{}: {e:?}", candidate.display()));
        }
        if !dir.pop() {
            return Err(format!("{} not found above current dir", rel.display()));
        }
    }
}

/// The checked-in metrics schema (`schemas/metrics.schema.json`).
pub fn load_metrics_schema() -> Result<Value, String> {
    load_schema("schemas/metrics.schema.json")
}

/// The checked-in Chrome trace-event schema
/// (`schemas/chrome_trace.schema.json`), which `adcp trace --chrome`
/// output and the daemon's journey stream are validated against before
/// they are written.
pub fn load_chrome_trace_schema() -> Result<Value, String> {
    load_schema("schemas/chrome_trace.schema.json")
}

/// The checked-in INT telemetry schema (`schemas/telemetry.schema.json`),
/// which the collector's report and the daemon's streamed telemetry
/// snapshots are validated against before they are written.
pub fn load_telemetry_schema() -> Result<Value, String> {
    load_schema("schemas/telemetry.schema.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Value {
        serde_json::from_str(
            r#"{
              "type": "object",
              "required": ["a", "b"],
              "additionalProperties": false,
              "properties": {
                "a": {"type": "integer"},
                "b": {
                  "type": "array",
                  "minItems": 1,
                  "items": {"type": ["string", "number"]}
                }
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn accepts_conforming_document() {
        let doc = serde_json::from_str(r#"{"a": 3, "b": ["x", 1.5]}"#).unwrap();
        assert_eq!(validate(&doc, &schema()), Ok(()));
    }

    #[test]
    fn reports_each_violation_with_path() {
        let doc = serde_json::from_str(r#"{"a": "oops", "b": [], "c": 1}"#).unwrap();
        let errs = validate(&doc, &schema()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.contains("$/a") && e.contains("integer")));
        assert!(errs.iter().any(|e| e.contains("fewer than 1")));
        assert!(errs.iter().any(|e| e.contains("\"c\"")));
    }

    #[test]
    fn integer_is_a_number_but_not_vice_versa() {
        let s: Value = serde_json::from_str(r#"{"type": "number"}"#).unwrap();
        assert_eq!(validate(&Value::U64(7), &s), Ok(()));
        let s: Value = serde_json::from_str(r#"{"type": "integer"}"#).unwrap();
        assert!(validate(&Value::F64(7.5), &s).is_err());
    }
}
