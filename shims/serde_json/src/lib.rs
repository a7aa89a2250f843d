//! Workspace-local stand-in for the `serde_json` crate.
//!
//! The build environment has no crates.io access, so the workspace pins
//! `serde_json` to this path shim. `to_string` renders a `Serialize`
//! type's [`Value`] tree as JSON text. `from_str` hands the text to the
//! `serde` shim's hardened [`serde::Reader`], which the target type's
//! `Deserialize` impl pulls from directly — no tree is built unless the
//! target is [`Value`] — and then rejects trailing garbage. Output shape
//! matches real serde_json (compact with no spaces; pretty with two-space
//! indent; struct fields in declaration order).
//!
//! The reader is hardened for **network input** (the gateway feeds it raw
//! HTTP bodies): nesting depth is capped at [`MAX_DEPTH`] and every error
//! carries the byte offset it was detected at ([`Error::position`]),
//! including truncated bodies, which report the end-of-input offset.

pub use serde::{Error, Value, MAX_DEPTH};

/// Serialize a value as compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json())
}

/// Serialize a value as pretty-printed JSON text (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_pretty())
}

/// Serialize a value into a JSON [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Deserialize a value from JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = serde::Reader::new(s);
    let value = T::deserialize(&mut reader)?;
    reader.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "42", "-7", "2.5", "\"hi\""] {
            let v: Value = from_str(text).unwrap();
            assert_eq!(v.to_json(), text, "round-tripping {text}");
        }
    }

    #[test]
    fn nested_structures_parse() {
        let v: Value = from_str(r#" { "a": [1, 2.0, {"b": null}], "c": "x\n\"y\"" } "#).unwrap();
        assert_eq!(v["a"].as_array().unwrap().len(), 3);
        assert_eq!(v["a"][1], 2.0);
        assert!(v["a"][2]["b"].is_null());
        assert_eq!(v["c"], "x\n\"y\"");
    }

    #[test]
    fn unicode_escapes_decode() {
        // A BMP escape, a surrogate pair, and raw multi-byte UTF-8.
        let v: Value = from_str("\"\\u00e9 \\ud83d\\ude00 é\"").unwrap();
        assert_eq!(v, "é 😀 é");
    }

    #[test]
    fn invalid_surrogate_pairs_are_positioned_errors() {
        // A high surrogate must be followed by `\u` and a low surrogate
        // (DC00..=DFFF); anything else is a lone surrogate, reported just
        // past the high half.
        for text in [r#""\ud800\u0041""#, r#""\ud800\ue000""#, r#""\ud800x""#] {
            let err = from_str::<Value>(text).unwrap_err();
            assert!(err.to_string().contains("lone surrogate"), "{text}: {err}");
            assert_eq!(err.position(), 7, "{text}: {err}");
        }
        let v: Value = from_str(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap().chars().collect::<Vec<_>>(), ['\u{1F600}']);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::Object(vec![
            ("n".to_string(), Value::Int(1)),
            ("list".to_string(), Value::Array(vec![Value::Bool(true), Value::Null])),
        ]);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"n\": 1"));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("nul").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected_with_position() {
        for (text, at) in [("1 2", 2), ("{} x", 3), ("[1],", 3), ("true false", 5)] {
            let err = from_str::<Value>(text).unwrap_err();
            assert!(err.to_string().contains("trailing characters"), "{text}: {err}");
            assert_eq!(err.position(), at, "{text}");
        }
    }

    #[test]
    fn truncated_bodies_report_end_of_input_position() {
        // Each prefix is a legal JSON prefix cut mid-document: the error
        // must be positioned at the input length (where bytes ran out).
        for text in ["{\"a\": 1", "[1, 2", "\"abc", "{\"key", "[{\"x\": ", "\"esc\\"] {
            let err = from_str::<Value>(text).unwrap_err();
            assert!(err.to_string().contains("unexpected end of input"), "{text}: {err}");
            assert_eq!(err.position(), text.len(), "{text}: {err}");
        }
    }

    #[test]
    fn depth_cap_rejects_hostile_nesting() {
        // MAX_DEPTH levels parse; MAX_DEPTH + 1 is rejected, not recursed.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&ok).is_ok());
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = from_str::<Value>(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        // Positioned just past the bracket that exceeded the budget.
        assert_eq!(err.position(), MAX_DEPTH + 1);
        // Mixed arrays/objects share one depth budget.
        let mixed =
            "{\"a\":".repeat(40) + &"[".repeat(40) + "1" + &"]".repeat(40) + &"}".repeat(40);
        assert!(from_str::<Value>(&mixed).is_err());
    }

    #[test]
    fn depth_resets_between_siblings() {
        // Wide-but-shallow documents are fine: depth tracks nesting, not
        // element count.
        let wide = format!("[{}]", vec!["[1]"; 200].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn invalid_numbers_are_positioned() {
        let err = from_str::<Value>("[1, -]").unwrap_err();
        assert_eq!(err.position(), 4, "{err}");
        let err = from_str::<Value>("[1e]").unwrap_err();
        assert_eq!(err.position(), 1, "{err}");
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Unit,
        Wrapped(u8),
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Record {
        shape: Shape,
        pair: (u8, char),
        note: Option<String>,
    }

    #[test]
    fn derived_types_read_straight_from_text() {
        let r: Record =
            from_str(r#"{"pair":[1,"c"],"shape":{"Wrapped":7},"shape":"Unit"}"#).unwrap();
        assert_eq!(r, Record { shape: Shape::Wrapped(7), pair: (1, 'c'), note: None });
        assert_eq!(from_str::<Record>(&to_string(&r).unwrap()).unwrap(), r);
        let r: Record = from_str(r#"{"shape":"Unit","pair":[0,"x"],"note":null}"#).unwrap();
        assert_eq!((r.shape, r.note), (Shape::Unit, None));
        for bad in [
            r#"{"shape":"Other","pair":[1,"c"]}"#,
            r#"{"shape":{"Wrapped":1,"Unit":2},"pair":[1,"c"]}"#,
            r#"{"shape":{},"pair":[1,"c"]}"#,
            r#"{"shape":"Unit","pair":[1]}"#,
            r#"{"shape":"Unit","pair":[1,"c",2]}"#,
            r#"{"shape":"Unit","pair":[256,"c"]}"#,
            r#"{"shape":"Unit","pair":[1,"cd"]}"#,
        ] {
            assert!(from_str::<Record>(bad).is_err(), "{bad}");
        }
        let err = from_str::<Record>(r#"{"shape":"Unit"}"#).unwrap_err();
        assert!(err.to_string().starts_with("missing field `pair`"), "{err}");
    }
}
