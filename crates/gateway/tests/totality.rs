//! Totality of the front door's parsers: `http::read_request` and
//! `SubmitRequest::validate` see bytes and values chosen by the client,
//! so every input must come back `Ok` or as a typed error — never a
//! panic (run these in the debug profile, where integer overflow
//! panics) — and each refusal must map to the status the server sends.

use mcmm_gateway::http::{read_request, ParseError, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use mcmm_gateway::SubmitRequest;
use proptest::prelude::*;

const REQUEST: &[u8] = b"POST /v1/submit?tenant=a HTTP/1.1\r\nhost: gw\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\r\n{\"ok\":true}";

fn parse(raw: &[u8]) -> Result<Request, ParseError> {
    read_request(&mut &raw[..])
}

/// The status the server answers a parse result with (`None`: it hangs
/// up without answering).
fn status(raw: &[u8]) -> Option<u16> {
    match parse(raw) {
        Ok(_) => Some(200),
        Err(e) => e.reply().map(|(status, _)| status),
    }
}

#[test]
fn the_valid_request_parses() {
    let req = parse(REQUEST).unwrap();
    assert_eq!(
        (req.method.as_str(), req.path.as_str(), req.query.as_str()),
        ("POST", "/v1/submit", "tenant=a")
    );
    assert_eq!(req.body, b"{\"ok\":true}");
}

#[test]
fn every_truncation_of_a_valid_request_is_an_error() {
    for cut in 0..REQUEST.len() {
        let got = parse(&REQUEST[..cut]);
        assert!(got.is_err(), "truncation at {cut} parsed: {got:?}");
        if cut == 0 {
            assert!(matches!(got, Err(ParseError::Eof)));
        }
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    for i in 0..REQUEST.len() {
        for b in [0u8, b'\r', b'\n', b':', b' ', b'9', b'?', 0x7f, 0xc3, 0xff] {
            let mut raw = REQUEST.to_vec();
            raw[i] = b;
            let _ = parse(&raw);
            raw.remove(i);
            let _ = parse(&raw);
        }
    }
}

#[test]
fn oversized_heads_and_bodies_are_413() {
    // A header line that alone exceeds the cap — with and without its
    // newline: the reader must stop at the cap either way.
    let long = format!("GET / HTTP/1.1\r\nx-pad: {}", "a".repeat(MAX_HEAD_BYTES));
    assert!(matches!(parse(long.as_bytes()), Err(ParseError::TooLarge)));
    let endless = [b"GET / HTTP/1.1\r\nx: ".as_slice(), &vec![b'a'; 64 * MAX_HEAD_BYTES]].concat();
    let mut rest = endless.as_slice();
    assert!(matches!(read_request(&mut rest), Err(ParseError::TooLarge)));
    assert!(endless.len() - rest.len() <= MAX_HEAD_BYTES + 1, "read past the head cap");
    assert_eq!(status(format!("{long}\r\n\r\n").as_bytes()), Some(413));
    // Many short lines that add up past the cap.
    let many = format!("GET / HTTP/1.1\r\n{}\r\n", "x-h: v\r\n".repeat(MAX_HEAD_BYTES / 8 + 1));
    assert_eq!(status(many.as_bytes()), Some(413));
    // A head exactly at the cap is fine.
    let line = "GET / HTTP/1.1\r\n";
    let pad = MAX_HEAD_BYTES - line.len() - "x: \r\n".len() - 2;
    let exact = format!("{line}x: {}\r\n\r\n", "b".repeat(pad));
    assert_eq!(exact.len(), MAX_HEAD_BYTES);
    assert_eq!(status(exact.as_bytes()), Some(200));
    let body = format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
    assert_eq!(status(body.as_bytes()), Some(413));
}

#[test]
fn chunked_request_bodies_are_411() {
    let raw = b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nbody\r\n0\r\n\r\n";
    assert!(matches!(parse(raw), Err(ParseError::LengthRequired)));
    assert_eq!(status(raw), Some(411));
}

#[test]
fn malformed_heads_are_400_and_dead_peers_get_no_answer() {
    assert_eq!(status(b"GET\r\n\r\n"), Some(400));
    assert_eq!(status(b"GET / SPDY/3\r\n\r\n"), Some(400));
    assert_eq!(status(b"GET / HTTP/1.1\r\nno-colon\r\n\r\n"), Some(400));
    assert_eq!(status(b"POST / HTTP/1.1\r\ncontent-length: -1\r\n\r\n"), Some(400));
    assert_eq!(status(b""), None);
    assert_eq!(status(b"GET / HTTP/1.1\r\nx: \xff\r\n\r\n"), None, "non-UTF-8 head");
    assert_eq!(status(b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nab"), None, "short body");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
        prefix in 0usize..3,
    ) {
        // Most cases start like a request, so the draws get past the
        // request line.
        let lead: &[u8] = [&b""[..], b"GET / HTTP/1.1\r\n", b"POST /v1/submit HTTP/1.1\r\ncontent-length: 3\r\n"][prefix];
        let bytes = [lead, &raw].concat();
        let _ = parse(&bytes);
    }
}

fn valid() -> SubmitRequest {
    SubmitRequest {
        tenant: "t0".into(),
        shape: "saxpy".into(),
        model: "CUDA".into(),
        language: "C++".into(),
        vendor: "NVIDIA".into(),
        a: 2.0,
        x: vec![1.0, 2.0],
        y: vec![3.0, 4.0],
    }
}

/// A submission with each field drawn from valid values, near misses and
/// junk.
fn arb_submit() -> impl Strategy<Value = SubmitRequest> {
    proptest::FnStrategy::new(|rng| {
        let mut pick = |set: &[&str]| set[rng.index(set.len())].to_owned();
        let shape = pick(&["copy", "scale", "saxpy", "triad", "Triad", "", "stencil", "saxpy "]);
        let model = pick(&["CUDA", "SYCL", "OpenMP", "Kokkos", "cuda", "", "Brook"]);
        let language = pick(&["C++", "Fortran", "Python", "c++", "", "COBOL"]);
        let vendor = pick(&["NVIDIA", "AMD", "Intel", "nvidia", "", "Imagination"]);
        let a = [2.0, -0.0, f32::NAN, f32::INFINITY, f32::MIN, f32::MAX][rng.index(6)];
        let n = [0usize, 1, 2, 7, 64][rng.index(5)];
        let m = [n, n, n + 1, n.saturating_sub(1), 0][rng.index(5)];
        let x = (0..n).map(|i| f32::from_bits(rng.next_u64() as u32) + i as f32).collect();
        let y = (0..m).map(|_| f32::from_bits(rng.next_u64() as u32)).collect();
        SubmitRequest { tenant: "t".into(), shape, model, language, vendor, a, x, y }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validate_is_total_and_refuses_with_4xx(req in arb_submit()) {
        match req.validate() {
            Ok(v) => {
                prop_assert!(!req.x.is_empty() && req.x.len() == req.y.len() && req.a.is_finite());
                prop_assert_eq!(v.job.n, req.x.len() as u64);
            }
            Err(e) => prop_assert!((400..500).contains(&e.status), "{} {}", e.status, e.message),
        }
    }
}

#[test]
fn validate_refuses_empty_mismatched_and_huge_buffers() {
    let mut r = valid();
    r.x.clear();
    r.y.clear();
    assert_eq!(r.validate().unwrap_err().status, 400);
    let mut r = valid();
    r.y.push(1.0);
    assert_eq!(r.validate().unwrap_err().status, 400);
    let mut r = valid();
    r.x = vec![0.5; mcmm_gateway::api::MAX_ELEMS + 1];
    r.y = r.x.clone();
    assert_eq!(r.validate().unwrap_err().status, 400);
    let mut r = valid();
    r.x = vec![0.5; mcmm_gateway::api::MAX_ELEMS];
    r.y = r.x.clone();
    assert!(r.validate().is_ok());
}
