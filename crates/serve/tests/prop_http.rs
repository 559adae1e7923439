//! Property tests for the HTTP/1.1 message readers the server, router and
//! clients share: every response `write_response` emits and every request
//! a client could send reads back exactly, and no corruption of a valid
//! message — truncation, flipped bytes, absurd or non-numeric
//! `Content-Length`, endless lines, missing colons — panics or reads past
//! the caps.

use std::io::{self, BufReader, Read};

use cascn_serve::http::{
    read_request, read_response, write_response, ParseError, Request, Response,
};
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

/// A request a client could send, varied over the grammar `read_request`
/// reads: method, path, query, HTTP version, keep-alive, header names in
/// any case and with optional whitespace, extra headers, an optional (or
/// repeated) `Content-Length`, and a body of any bytes.
#[derive(Debug, Clone)]
struct RequestSpec {
    method: String,
    path: String,
    query: Option<String>,
    http10: bool,
    /// The `Connection` header's value, if one is sent.
    connection: Option<String>,
    /// Extra headers, each sent before the length.
    headers: Vec<(String, String)>,
    /// How `Content-Length` is sent: 0 omits it (only for an empty body),
    /// 1 once, 2 twice with the same value; its name is upper-cased when
    /// `shout` is set.
    lengths: usize,
    shout: bool,
    /// Line ends are bare `\n` instead of `\r\n`.
    bare_lf: bool,
    body: Vec<u8>,
}

impl RequestSpec {
    /// A test-only writer of the request.
    fn encode(&self) -> Vec<u8> {
        let eol = if self.bare_lf { "\n" } else { "\r\n" };
        let version = if self.http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let target = match &self.query {
            Some(q) => format!("{}?{q}", self.path),
            None => self.path.clone(),
        };
        let mut head = format!("{} {target} {version}{eol}", self.method);
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}:{value}{eol}"));
        }
        if let Some(c) = &self.connection {
            head.push_str(&format!("Connection: {c}{eol}"));
        }
        let name = if self.shout { "CONTENT-LENGTH" } else { "content-length" };
        for _ in 0..self.lengths {
            head.push_str(&format!("{name}:  {} {eol}", self.body.len()));
        }
        head.push_str(eol);
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    fn expected(&self) -> Request {
        let keep_alive = match self.connection.as_deref().map(str::to_ascii_lowercase) {
            Some(c) if c == "close" => false,
            Some(c) if c == "keep-alive" => true,
            _ => !self.http10,
        };
        Request {
            method: self.method.clone(),
            path: self.path.clone(),
            query: self.query.clone().unwrap_or_default(),
            body: self.body.clone(),
            keep_alive,
        }
    }
}

/// Characters of a path segment or query: anything but whitespace and `?`
/// (the first `?` splits the target), `=`/`&` included.
const TARGET_CHARS: &[u8] = b"abz09-_.~%/=&";

fn request_spec() -> impl Strategy<Value = RequestSpec> {
    let token = |chars: &'static [u8], len: std::ops::Range<usize>| {
        proptest::collection::vec(0..chars.len(), len)
            .prop_map(move |ix| ix.into_iter().map(|i| char::from(chars[i])).collect::<String>())
    };
    let method = prop_oneof![
        Just("GET".to_string()),
        Just("POST".to_string()),
        Just("PUT".to_string()),
        token(b"ABCXYZ", 1..8),
    ];
    let connection = prop_oneof![
        Just(None),
        Just(Some("close".to_string())),
        Just(Some("keep-alive".to_string())),
        Just(Some("Keep-Alive".to_string())),
        Just(Some("CLOSE".to_string())),
        Just(Some("upgrade".to_string())),
    ];
    let header = (token(b"abcXYZ-", 1..10), token(b"abc 019;=/", 0..16))
        .prop_map(|(name, value)| (format!("X-{name}"), value));
    let body = proptest::collection::vec(0u32..256, 0..300)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as u8).collect::<Vec<u8>>());
    (
        (method, token(TARGET_CHARS, 0..20), token(b"abz09=&?%+", 0..20)),
        (0u32..16, connection),
        proptest::collection::vec(header, 0..4),
        0usize..3,
        body,
    )
        .prop_map(|((method, path, query), (flags, connection), headers, lengths, body)| {
            RequestSpec {
                method,
                path: format!("/{path}"),
                query: (flags & 1 == 1).then_some(query),
                http10: flags & 2 == 2,
                connection,
                headers,
                // A body is sent only with its length.
                lengths: if body.is_empty() { lengths } else { lengths.max(1) },
                shout: flags & 4 == 4,
                bare_lf: flags & 8 == 8,
                body,
            }
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
    fn generated_requests_read_back_exactly(r in request_spec()) {
        let bytes = r.encode();
        let mut rest = bytes.as_slice();
        let got = read_request(&mut rest, CAP).map_err(|e| format!("{e}"))?;
        prop_assert_eq!(got, r.expected());
        prop_assert!(rest.is_empty(), "{} trailing bytes unread", rest.len());
    }

    #[test]
    fn every_request_truncation_is_an_error(r in request_spec()) {
        let bytes = r.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                read_request(&mut &bytes[..cut], CAP).is_err(),
                "a request cut at {cut} of {} parsed",
                bytes.len()
            );
        }
    }

    #[test]
    fn request_lengths_over_the_cap_are_refused_before_the_body(
        r in request_spec(),
        cap in 0usize..300,
    ) {
        let bytes = r.encode();
        let mut rest = bytes.as_slice();
        let result = read_request(&mut rest, cap);
        let len = r.body.len();
        if len > cap {
            prop_assert_eq!(result, Err(ParseError::BodyTooLarge { declared: len, limit: cap }));
            prop_assert_eq!(rest, r.body.as_slice(), "body bytes were consumed");
        } else {
            prop_assert_eq!(result, Ok(r.expected()));
        }
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
