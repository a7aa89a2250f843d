//! The submit-body decoder: what `serde_json::from_str::<SubmitRequest>`
//! accepts and what it yields, pinned at the text level.
//!
//! `POST /v1/submit` bodies arrive from the network, so the decoder must
//! be total (any input yields `Ok` or `Err`, never a panic — run these in
//! the debug profile, where integer overflow panics) and exact (every
//! accepted body decodes to bit-identical floats, so the coalescing keys
//! hashed from them stay stable).

use mcmm_gateway::SubmitRequest;
use proptest::prelude::*;
use serde_json::Value;

const BODY: &str = r#"{"tenant":"t0","shape":"saxpy","model":"CUDA","language":"C++","vendor":"NVIDIA","a":2.5,"x":[1.0,-0.5,3],"y":[0.25,1e-3,-7]}"#;

fn decode(text: &str) -> Result<SubmitRequest, serde_json::Error> {
    serde_json::from_str(text)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// `(a, x, y)` as raw bits: the fields the coalescing key hashes.
fn numeric_bits(r: &SubmitRequest) -> (u32, Vec<u32>, Vec<u32>) {
    (r.a.to_bits(), bits(&r.x), bits(&r.y))
}

/// An `f32` from the classes a float decoder gets wrong: signed zeros,
/// subnormals, integral values, extreme magnitudes and arbitrary bits.
fn arb_f32() -> impl Strategy<Value = f32> {
    proptest::FnStrategy::new(|rng| {
        let r = rng.next_u64();
        let pick = |set: &[f32]| set[(r >> 8) as usize % set.len()];
        let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
        let v = match (r >> 1) % 6 {
            0 => pick(&[0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 3.0e-45]),
            1 => f32::from_bits((r >> 16) as u32 % 0x0080_0000) * sign,
            2 => ((r >> 16) % 1_000_001) as f32 * sign,
            3 => pick(&[f32::MAX, f32::MIN, f32::MIN_POSITIVE, 1.0e38, 16_777_217.0]),
            _ => f32::from_bits((r >> 16) as u32),
        };
        if v.is_finite() {
            v
        } else {
            sign * f32::MAX
        }
    })
}

fn arb_request() -> impl Strategy<Value = SubmitRequest> {
    (arb_f32(), proptest::collection::vec(arb_f32(), 1..24), 0usize..4).prop_map(|(a, x, t)| {
        let y = x.iter().rev().map(|v| -v).collect();
        SubmitRequest {
            tenant: ["t0", "tenant \"quoted\"", "ünïcode", "tab\there"][t].into(),
            shape: "triad".into(),
            model: "SYCL".into(),
            language: "C++".into(),
            vendor: "Intel".into(),
            a,
            x,
            y,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_requests_round_trip_bit_exactly(req in arb_request()) {
        let text = serde_json::to_string(&req).unwrap();
        let back = decode(&text).unwrap();
        prop_assert_eq!(numeric_bits(&back), numeric_bits(&req), "{}", text);
        prop_assert_eq!(back.tenant, req.tenant);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}

#[test]
fn reordered_keys_and_whitespace_decode_identically() {
    let base = decode(BODY).unwrap();
    let reordered = r#"
        { "y" : [ 0.25 , 1e-3 , -7 ] ,
          "x":[1.0,-0.5,3],	"a" :2.5,
          "vendor":"NVIDIA","language":"C++","model":"CUDA","shape":"saxpy","tenant":"t0" }
    "#;
    let other = decode(reordered).unwrap();
    assert_eq!(numeric_bits(&other), numeric_bits(&base));
    assert_eq!(other.vendor, base.vendor);
    assert_eq!(other.tenant, base.tenant);
}

#[test]
fn unknown_keys_with_nested_values_are_skipped() {
    let body = BODY.replacen(
        "{",
        r#"{"extra":{"deep":[1,{"k":[true,null,"s\"]"]}],"n":-1.5e3},"more":[],"#,
        1,
    );
    let got = decode(&body).unwrap();
    assert_eq!(numeric_bits(&got), numeric_bits(&decode(BODY).unwrap()));
    // A skipped value must still be well-formed JSON.
    assert!(decode(&BODY.replacen("{", r#"{"extra":[1,,2],"#, 1)).is_err());
    assert!(decode(&BODY.replacen("{", r#"{"extra":tru,"#, 1)).is_err());
    // And still counts against the nesting cap.
    let deep =
        format!("{}1{}", "[".repeat(serde_json::MAX_DEPTH), "]".repeat(serde_json::MAX_DEPTH));
    let err = decode(&BODY.replacen("{", &format!(r#"{{"extra":{deep},"#), 1)).unwrap_err();
    assert!(err.to_string().contains("nesting deeper"), "{err}");
}

#[test]
fn first_duplicate_key_wins() {
    let body = BODY.replacen("}", r#","a":9.0,"x":[5,6,7],"tenant":{"not":"a string"}}"#, 1);
    let got = decode(&body).unwrap();
    let base = decode(BODY).unwrap();
    assert_eq!(numeric_bits(&got), numeric_bits(&base));
    assert_eq!(got.tenant, "t0");
    // The dropped duplicate is still parsed: malformed text is an error.
    assert!(decode(&BODY.replacen("}", r#","a":[1,}"#, 1)).is_err());
}

#[test]
fn number_text_classification_is_pinned() {
    let with_a = |a: &str| BODY.replacen("\"a\":2.5", &format!("\"a\":{a}"), 1);
    // Integer text goes through i64, so `-0` is +0.0 while `-0.0` keeps its sign.
    assert_eq!(decode(&with_a("-0")).unwrap().a.to_bits(), 0.0f32.to_bits());
    assert_eq!(decode(&with_a("-0.0")).unwrap().a.to_bits(), (-0.0f32).to_bits());
    // Integer text beyond i64 falls back to the float parser.
    assert_eq!(decode(&with_a("18446744073709551616")).unwrap().a, 1.8446744e19);
    assert_eq!(decode(&with_a("16777217")).unwrap().a, 16_777_216.0);
    // Overflowing float text saturates to infinity.
    let x = decode(&BODY.replacen("[1.0,", "[1e400,", 1)).unwrap().x;
    assert_eq!(x[0], f32::INFINITY);
    for bad in ["1-2", "--1", "1e", "+1", ".5", "0x10"] {
        assert!(decode(&with_a(bad)).is_err(), "{bad}");
    }
}

#[test]
fn wrong_types_and_missing_fields_are_errors() {
    assert!(decode(&BODY.replacen("2.5", "\"2.5\"", 1)).is_err());
    assert!(decode(&BODY.replacen("2.5", "null", 1)).is_err());
    assert!(decode(&BODY.replacen("\"t0\"", "7", 1)).is_err());
    assert!(decode(&BODY.replacen("[1.0,-0.5,3]", "{}", 1)).is_err());
    assert!(decode("[]").is_err());
    assert!(decode("null").is_err());
}

#[test]
fn a_missing_field_is_an_error_naming_it() {
    let err = decode(&BODY.replacen(r#""vendor":"NVIDIA","#, "", 1)).unwrap_err();
    assert!(err.to_string().contains("missing field `vendor`"), "{err}");
}

#[test]
fn escaped_keys_and_strings_decode() {
    let body = BODY.replacen(r#""tenant":"t0""#, r#""\u0074enant":"té\n\ud83d\ude00😀""#, 1);
    assert_eq!(decode(&body).unwrap().tenant, "té\n😀😀");
}

/// Every input decodes to `Ok` or `Err` without panicking, both as a
/// typed request and as a generic tree.
fn total(text: &str) {
    let _ = decode(text);
    let _ = serde_json::from_str::<Value>(text);
}

#[test]
fn every_truncation_of_a_valid_body_is_an_error() {
    let body = r#"{"tenant":"t\u00e9\ud83d\ude00😀","shape":"saxpy","model":"CUDA","language":"C++","vendor":"NVIDIA","a":-2.5e-3,"x":[1.0,-0.0,3],"y":[0.25,1e-3,-7],"k":null}"#;
    assert!(decode(body).is_ok());
    for end in 0..body.len() {
        if body.is_char_boundary(end) {
            let prefix = &body[..end];
            assert!(decode(prefix).is_err(), "{prefix}");
            total(prefix);
        }
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    let body = r#"{"tenant":"té😀","shape":"saxpy","model":"CUDA","a":-2.5e-3,"x":[1.0,-0.0,3],"y":[0.25,1e-3,-7],"k":{"n":[null,false]}}"#;
    let alphabet = b"{}[]:,\"\\/-+.0123456789eEuUdDnulltrfa \t\n\xc3\xa9";
    for i in 0..body.len() {
        for &b in alphabet {
            let mut bytes = body.as_bytes().to_vec();
            bytes[i] = b;
            total(&String::from_utf8_lossy(&bytes));
            bytes.remove(i);
            total(&String::from_utf8_lossy(&bytes));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        pick in proptest::collection::vec(0usize..16, 0..64),
    ) {
        total(&String::from_utf8_lossy(&bytes));
        // Bytes drawn from JSON's own alphabet reach deeper into the reader.
        let json: String = pick.iter().map(|&i| "{}[]\":,\\u0-1e.9n"[i..].chars().next().unwrap()).collect();
        total(&json);
    }
}
