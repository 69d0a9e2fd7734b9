//! Property tests for the service's HTTP/1.1 request parser: arbitrary
//! byte soup, malformed request lines, oversized headers, and truncated
//! bodies must all come back as named [`HttpError`]s — the parser must
//! never panic and never read past its configured limits.

use proptest::prelude::*;
use std::io::BufReader;

use unitherm_serve::http::{parse_request, reason_phrase, HttpError, Limits, Method};

fn parse(bytes: &[u8], limits: &Limits) -> Result<unitherm_serve::http::Request, HttpError> {
    parse_request(&mut BufReader::new(bytes), limits)
}

/// A short word over `alphabet`, 1..=max_len characters.
fn word(alphabet: &'static [u8], max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..alphabet.len(), 1..=max_len)
        .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i] as char).collect())
}

const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
const VALUE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz 0123456789/.,;=()";
const WORD_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUvwxyz/.0123456789";

proptest! {
    /// Arbitrary bytes never panic the parser — every outcome is either a
    /// parsed request or a named error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse(&bytes, &Limits::default());
    }

    /// Arbitrary bytes spliced after a valid request line still never
    /// panic (exercises the header and body paths, which random bytes
    /// alone rarely reach).
    #[test]
    fn valid_prefix_then_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut input = b"POST /jobs HTTP/1.1\r\n".to_vec();
        input.extend_from_slice(&bytes);
        let _ = parse(&input, &Limits::default());
    }

    /// A structurally valid request round-trips: method, path, each header,
    /// and the exact body bytes all survive parsing.
    #[test]
    fn well_formed_requests_round_trip(
        post in any::<bool>(),
        segment in word(PATH_CHARS, 12),
        header_values in prop::collection::vec(word(VALUE_CHARS, 24), 0..8),
        body in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let method_word = if post { "POST" } else { "GET" };
        let path = format!("/jobs/{segment}");
        let mut input = format!("{method_word} {path} HTTP/1.1\r\n");
        for (i, value) in header_values.iter().enumerate() {
            input.push_str(&format!("x-h{i}: {value}\r\n"));
        }
        // GET carries the Content-Length too: bodies are legal on both.
        input.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut input = input.into_bytes();
        input.extend_from_slice(&body);

        let req = parse(&input, &Limits::default()).expect("well-formed request parses");
        prop_assert_eq!(req.method, if post { Method::Post } else { Method::Get });
        prop_assert_eq!(req.path.as_str(), path.as_str());
        prop_assert_eq!(req.body.as_slice(), body.as_slice());
        for (i, value) in header_values.iter().enumerate() {
            prop_assert_eq!(req.header(&format!("x-h{i}")), Some(value.trim()));
        }
    }

    /// Malformed request lines (wrong word count, unknown methods, bad
    /// versions) produce the specific named error, not a generic one.
    #[test]
    fn malformed_request_lines_get_named_errors(
        words in prop::collection::vec(
            prop_oneof![
                word(WORD_CHARS, 8),
                Just("GET".to_string()),
                Just("POST".to_string()),
                Just("HTTP/1.1".to_string()),
            ],
            0..5,
        ),
    ) {
        let line = words.join(" ");
        let input = format!("{line}\r\n\r\n");
        match parse(input.as_bytes(), &Limits::default()) {
            Ok(req) => {
                // Only a real "METHOD TARGET HTTP/1.x" triple may parse.
                prop_assert_eq!(words.len(), 3);
                prop_assert!(words[0] == "GET" || words[0] == "POST");
                prop_assert!(words[2].starts_with("HTTP/1."));
                prop_assert_eq!(req.path.as_str(), words[1].split('?').next().unwrap());
            }
            Err(HttpError::MalformedRequestLine(_)) => prop_assert!(words.len() != 3),
            Err(HttpError::UnsupportedMethod(m)) => {
                prop_assert_eq!(words.len(), 3);
                prop_assert_eq!(m.as_str(), words[0].as_str());
            }
            Err(HttpError::UnsupportedVersion(v)) => {
                prop_assert_eq!(words.len(), 3);
                prop_assert_eq!(v.as_str(), words[2].as_str());
            }
            Err(HttpError::ConnectionClosed) => prop_assert!(line.is_empty()),
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Oversized inputs hit the matching limit error: long request lines →
    /// RequestLineTooLong, long headers → HeaderTooLarge, too many headers
    /// → TooManyHeaders — always naming the configured limit.
    #[test]
    fn oversized_inputs_name_the_limit(pad in 1usize..200, headers in 1usize..12) {
        let limits = Limits {
            max_request_line: 40,
            max_header_bytes: 40,
            max_headers: 4,
            max_body_bytes: 64,
        };

        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(40 + pad));
        prop_assert!(matches!(
            parse(long_line.as_bytes(), &limits),
            Err(HttpError::RequestLineTooLong { limit: 40 })
        ));

        let long_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "b".repeat(40 + pad));
        prop_assert!(matches!(
            parse(long_header.as_bytes(), &limits),
            Err(HttpError::HeaderTooLarge { limit: 40 })
        ));

        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..headers {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        let parsed = parse(many.as_bytes(), &limits);
        if headers > 4 {
            prop_assert!(matches!(parsed, Err(HttpError::TooManyHeaders { limit: 4 })));
        } else {
            prop_assert!(parsed.is_ok(), "{headers} headers fit under the limit");
        }
    }

    /// Truncated bodies report exactly how many bytes arrived versus how
    /// many the Content-Length promised.
    #[test]
    fn truncated_bodies_report_progress(declared in 1usize..200, sent_frac in 0usize..100) {
        let sent = declared * sent_frac / 100;
        prop_assert!(sent < declared);
        let mut input =
            format!("POST /jobs HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
        input.extend(std::iter::repeat_n(b'x', sent));
        match parse(&input, &Limits::default()) {
            Err(HttpError::TruncatedBody { expected, got }) => {
                prop_assert_eq!(expected, declared);
                prop_assert_eq!(got, sent);
            }
            other => prop_assert!(false, "expected TruncatedBody, got {other:?}"),
        }
    }

    /// Bodies over the limit are rejected by the declared length alone —
    /// the parser refuses before buffering a single body byte.
    #[test]
    fn oversized_bodies_rejected_by_declaration(excess in 1usize..10_000) {
        let limits = Limits { max_body_bytes: 128, ..Limits::default() };
        let declared = 128 + excess;
        // Note: no body bytes follow at all; the declaration is enough.
        let input = format!("POST /jobs HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        prop_assert!(matches!(
            parse(input.as_bytes(), &limits),
            Err(HttpError::BodyTooLarge { length, limit: 128 }) if length == declared
        ));
    }

    /// Every error knows its HTTP status, and the status is a client or
    /// server error code.
    #[test]
    fn every_error_maps_to_an_error_status(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Err(e) = parse(&bytes, &Limits::default()) {
            let code = e.status();
            prop_assert!((400..600).contains(&code), "{e:?} -> {code}");
            prop_assert!(!reason_phrase(code).is_empty());
            prop_assert!(!e.to_string().is_empty());
        }
    }
}
