//! Property tests for the HTTP/1.1 message readers the server, router and
//! clients share: every response `write_response` emits reads back
//! exactly, and no corruption of a valid message — truncation, flipped
//! bytes, absurd or non-numeric `Content-Length`, endless lines, missing
//! colons — panics or reads past the caps.

use std::io::{self, BufReader, Read};

use cascn_serve::http::{read_request, read_response, write_response, ParseError, Response};
use proptest::prelude::*;

const CAP: usize = 4096;

/// Body characters: ASCII, the delimiters the head parser splits on, and
/// multi-byte UTF-8.
const BODY_CHARS: &[char] = &['a', 'Z', '0', ' ', ':', '\r', '\n', '\t', 'é', 'λ', '𝄞'];
const WORD_CHARS: &[u8] = b"abcXYZ-_.()";

/// A response the server could write.
#[derive(Debug, Clone)]
struct Spec {
    status: u16,
    reason: String,
    retry_after: Option<String>,
    keep_alive: bool,
    body: String,
}

impl Spec {
    fn encode(&self) -> Vec<u8> {
        let extra: Vec<(&str, &str)> =
            self.retry_after.iter().map(|v| ("Retry-After", v.as_str())).collect();
        let mut out = Vec::new();
        write_response(&mut out, self.status, &self.reason, &extra, &self.body, self.keep_alive)
            .expect("writing to a Vec cannot fail");
        out
    }

    fn expected(&self) -> Response {
        Response {
            status: self.status,
            reason: self.reason.clone(),
            keep_alive: self.keep_alive,
            retry_after: self.retry_after.clone(),
            body: self.body.as_bytes().to_vec(),
        }
    }
}

fn word() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..WORD_CHARS.len(), 1..8)
        .prop_map(|ix| ix.into_iter().map(|i| char::from(WORD_CHARS[i])).collect())
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        100u32..600,
        proptest::collection::vec(word(), 0..4),
        0u32..1000,
        0u32..4,
        proptest::collection::vec(0..BODY_CHARS.len(), 0..300),
    )
        .prop_map(|(status, words, retry, flags, body)| Spec {
            status: status as u16,
            reason: words.join(" "),
            retry_after: (flags & 1 == 1).then(|| retry.to_string()),
            keep_alive: flags & 2 == 2,
            body: body.into_iter().map(|i| BODY_CHARS[i]).collect(),
        })
}

/// The reader's contract on arbitrary input: an error, or a response whose
/// fields are within the grammar and the caps.
fn check(bytes: &[u8]) -> Result<(), String> {
    match read_response(&mut BufReader::new(bytes), CAP) {
        Err(_) => Ok(()),
        Ok(r) if (100..=999).contains(&r.status) && r.body.len() <= CAP => Ok(()),
        Ok(r) => Err(format!("out-of-grammar response {r:?}")),
    }
}

/// `bytes` with the `Content-Length` value replaced by `value`.
fn with_content_length(bytes: &[u8], value: &str) -> Vec<u8> {
    let text = String::from_utf8(bytes.to_vec()).expect("encodings are utf-8");
    let start = text.find("Content-Length: ").expect("writer emits a length") + 16;
    let end = start + text[start..].find('\r').expect("header line ends");
    format!("{}{value}{}", &text[..start], &text[end..]).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn written_responses_read_back_exactly(s in spec()) {
        let bytes = s.encode();
        let mut rest = bytes.as_slice();
        let got = read_response(&mut rest, CAP).map_err(|e| format!("{e}"))?;
        prop_assert_eq!(got, s.expected());
        prop_assert!(rest.is_empty(), "{} trailing bytes unread", rest.len());
    }

    #[test]
    fn every_truncation_is_an_error(s in spec()) {
        let bytes = s.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                read_response(&mut &bytes[..cut], CAP).is_err(),
                "a response cut at {cut} of {} parsed",
                bytes.len()
            );
        }
    }

    #[test]
    fn flipped_bytes_never_panic(
        s in spec(),
        flips in proptest::collection::vec((0.0f64..1.0, 1u32..256), 1..6),
    ) {
        let mut bytes = s.encode();
        for (at, mask) in flips {
            let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[i] ^= mask as u8;
        }
        check(&bytes)?;
    }

    #[test]
    fn bad_content_lengths_are_refused(s in spec(), pick in 0usize..6) {
        let value = ["10000000000", "99999999999999999999999", "-1", "abc", "", "1 2"][pick];
        let bytes = with_content_length(&s.encode(), value);
        let mut rest = bytes.as_slice();
        match read_response(&mut rest, CAP) {
            Err(ParseError::BodyTooLarge { declared, limit }) => {
                prop_assert_eq!((declared, limit), (10_000_000_000, CAP));
                prop_assert_eq!(rest, s.body.as_bytes(), "no body byte read before the refusal");
            }
            Err(ParseError::Malformed(_)) => prop_assert!(pick > 0, "{value} is a valid length"),
            other => return Err(format!("`Content-Length: {value}` gave {other:?}")),
        }
    }

    #[test]
    fn declared_lengths_over_the_cap_are_refused_before_the_body(
        s in spec(),
        cap in 0usize..300,
    ) {
        let bytes = s.encode();
        let mut rest = bytes.as_slice();
        let result = read_response(&mut rest, cap);
        let len = s.body.len();
        if len > cap {
            prop_assert_eq!(result, Err(ParseError::BodyTooLarge { declared: len, limit: cap }));
            prop_assert_eq!(rest.len(), len, "body bytes were consumed");
        } else {
            prop_assert_eq!(result, Ok(s.expected()));
        }
    }

    #[test]
    fn endless_lines_stop_at_the_head_budget(s in spec(), at in 0.0f64..1.0) {
        // Cut inside the head, then stream a line that never ends.
        let bytes = s.encode();
        let head_len = bytes.windows(4).position(|w| w == b"\r\n\r\n").expect("blank line") + 2;
        let cut = (at * head_len as f64) as usize;
        let endless = BufReader::new(bytes[..cut].chain(io::repeat(b'a')));
        let err = read_response(&mut { endless }, CAP).expect_err("an endless line cannot parse");
        prop_assert_eq!(err, ParseError::HeadTooLarge);
    }

    #[test]
    fn a_header_without_a_colon_is_malformed(s in spec()) {
        let text = String::from_utf8(s.encode()).expect("encodings are utf-8");
        let broken = text.replacen("Content-Length:", "Content-Length", 1);
        let got = read_response(&mut broken.as_bytes(), CAP);
        prop_assert!(matches!(got, Err(ParseError::Malformed(_))), "{got:?}");
    }

    #[test]
    fn flipped_request_bytes_never_panic(
        body in proptest::collection::vec(0..BODY_CHARS.len(), 0..200),
        flips in proptest::collection::vec((0.0f64..1.0, 1u32..256), 1..6),
    ) {
        let body: String = body.into_iter().map(|i| BODY_CHARS[i]).collect();
        let mut bytes = format!(
            "POST /predict?window=25 HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        for (at, mask) in flips {
            let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[i] ^= mask as u8;
        }
        if let Ok(req) = read_request(&mut bytes.as_slice(), CAP) {
            prop_assert!(req.body.len() <= CAP && req.path.starts_with('/'), "{req:?}");
        }
    }
}
