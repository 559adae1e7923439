//! A minimal HTTP/1.1 message parser and response writer over `std::io`.
//!
//! The serving layer speaks just enough HTTP for `curl`, the `loadgen`
//! bench client, and the protocol tests: start line + headers + an
//! optional `Content-Length` body, read by [`read_request`] and
//! [`read_response`] through one header loop. Everything is bounded —
//! header bytes, body bytes — and every malformed input maps to a specific
//! error (a 4xx status for requests) instead of a panic or an unbounded read.

use std::io::{self, BufRead, Write};

/// Hard cap on the start line plus all header lines, in bytes. Requests
/// whose head section exceeds this are rejected with `431`; responses fail
/// with [`ParseError::HeadTooLarge`].
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request: method, path (query string split off), and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Path with any `?query` suffix removed.
    pub path: String,
    /// Raw query string (without the `?`), empty if absent.
    pub query: String,
    pub body: Vec<u8>,
    /// True when the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// Looks up a `key=value` pair in the query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// A parsed response: status line, the headers a client acts on, and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    /// Reason phrase with whitespace runs collapsed; empty if none was sent.
    pub reason: String,
    /// False when the server announced it will close the connection.
    pub keep_alive: bool,
    pub retry_after: Option<String>,
    pub body: Vec<u8>,
}

/// Why a message could not be parsed; on the request side each maps to one
/// response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed the connection before sending a start line.
    /// Not an error worth answering — the handler just drops the socket.
    ConnectionClosed,
    /// Malformed start line or header, or conflicting `Content-Length`
    /// headers (400).
    Malformed(String),
    /// Head section exceeded [`MAX_HEAD_BYTES`] (431).
    HeadTooLarge,
    /// Declared `Content-Length` exceeds the configured cap (413).
    BodyTooLarge { declared: usize, limit: usize },
    /// The socket's read timeout elapsed before a full request arrived —
    /// an idle keep-alive peer or a trickling (slowloris) sender. The
    /// connection handler answers `408` and closes; `status()` is `None`
    /// because the handler needs to count this separately from client
    /// errors.
    TimedOut,
    /// Socket-level failure mid-request.
    Io(String),
}

impl ParseError {
    /// The status line this error should be answered with, if any.
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            ParseError::ConnectionClosed => None,
            ParseError::Malformed(_) => Some((400, "Bad Request")),
            ParseError::HeadTooLarge => Some((431, "Request Header Fields Too Large")),
            ParseError::BodyTooLarge { .. } => Some((413, "Payload Too Large")),
            ParseError::TimedOut => None,
            ParseError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed before a message"),
            ParseError::Malformed(m) => write!(f, "malformed message: {m}"),
            ParseError::HeadTooLarge => {
                write!(f, "message head exceeds {MAX_HEAD_BYTES} bytes")
            }
            ParseError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds the {limit}-byte limit")
            }
            ParseError::TimedOut => write!(f, "read timed out"),
            ParseError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

/// Maps a socket error to its parse outcome: a read-timeout expiry
/// (`WouldBlock` on Unix `SO_RCVTIMEO`, `TimedOut` on Windows) becomes
/// [`ParseError::TimedOut`]; everything else is an opaque I/O failure.
fn io_error(e: io::Error) -> ParseError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ParseError::TimedOut,
        _ => ParseError::Io(e.to_string()),
    }
}

/// Reads one CRLF- (or LF-) terminated line incrementally via
/// `fill_buf`/`consume`, charging bytes against `budget` chunk by chunk.
/// A peer streaming an endless line costs at most `budget + 1` buffered
/// bytes before the parse fails with [`ParseError::HeadTooLarge`] — it
/// can never make the server allocate past the head cap. Returns
/// `Ok(None)` on clean EOF before any byte.
fn read_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Option<String>, ParseError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e)),
        };
        if chunk.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(ParseError::Malformed("eof inside message head".into()))
            };
        }
        // One byte past the budget is enough to prove the head is
        // oversized — never inspect or buffer more than that.
        let take = chunk.len().min(*budget + 1);
        let newline = chunk[..take].iter().position(|&b| b == b'\n');
        let consumed = newline.map_or(take, |nl| nl + 1);
        line.extend_from_slice(&chunk[..newline.unwrap_or(take)]);
        reader.consume(consumed);
        *budget = budget.checked_sub(consumed).ok_or(ParseError::HeadTooLarge)?;
        if newline.is_some() {
            while line.last() == Some(&b'\r') {
                line.pop();
            }
            return match String::from_utf8(line) {
                Ok(s) => Ok(Some(s)),
                Err(_) => Err(ParseError::Malformed("message head is not valid utf-8".into())),
            };
        }
    }
}

/// Parses one request from `reader`, enforcing `max_body_bytes` on the
/// declared `Content-Length` *before* reading the body.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Request, ParseError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(reader, &mut budget)?.ok_or(ParseError::ConnectionClosed)?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => {
            return Err(ParseError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!("unsupported version `{version}`")));
    }
    if !target.starts_with('/') {
        return Err(ParseError::Malformed(format!("bad request target `{target}`")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let rest = read_rest(reader, &mut budget, version, max_body_bytes)?;
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        body: rest.body,
        keep_alive: rest.keep_alive,
    })
}

/// Parses one response from `reader` under the same head budget and
/// body-cap discipline as [`read_request`].
pub fn read_response(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Response, ParseError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(reader, &mut budget)?.ok_or(ParseError::ConnectionClosed)?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next().filter(|v| v.starts_with("HTTP/1."));
    let code = parts.next().filter(|c| c.len() == 3 && c.bytes().all(|b| b.is_ascii_digit()));
    let (Some(version), Some(Ok(status))) = (version, code.map(str::parse)) else {
        return Err(ParseError::Malformed(format!("bad status line `{status_line}`")));
    };
    let reason = parts.collect::<Vec<_>>().join(" ");
    Ok(Response { status, reason, ..read_rest(reader, &mut budget, version, max_body_bytes)? })
}

/// Everything after the start line: the headers, charged to `budget`, and
/// the body, refused over `max_body_bytes` before allocating. Returned as a
/// [`Response`] whose status line the caller fills in. `version` sets the
/// keep-alive default (HTTP/1.1 on, HTTP/1.0 off); repeated
/// `Content-Length` headers must agree (RFC 9112 §6.3).
fn read_rest(
    reader: &mut impl BufRead,
    budget: &mut usize,
    version: &str,
    max_body_bytes: usize,
) -> Result<Response, ParseError> {
    let mut content_length: Option<usize> = None;
    let mut keep_alive = version != "HTTP/1.0";
    let mut retry_after = None;
    loop {
        let header = match read_line(reader, budget)? {
            None => return Err(ParseError::Malformed("eof inside headers".into())),
            Some(l) => l,
        };
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header `{header}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let len = value
                    .parse()
                    .map_err(|_| ParseError::Malformed(format!("bad content-length `{value}`")))?;
                if content_length.is_some_and(|prev| prev != len) {
                    return Err(ParseError::Malformed("conflicting content-length headers".into()));
                }
                content_length = Some(len);
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            "retry-after" => retry_after = Some(value.to_string()),
            _ => {}
        }
    }
    let declared = content_length.unwrap_or(0);
    if declared > max_body_bytes {
        return Err(ParseError::BodyTooLarge { declared, limit: max_body_bytes });
    }
    let mut body = vec![0u8; declared];
    io::Read::read_exact(reader, &mut body).map_err(io_error)?;
    Ok(Response { status: 0, reason: String::new(), keep_alive, retry_after, body })
}

/// Writes a complete response; `extra_headers` are `name: value` pairs.
pub fn write_response(
    writer: &mut (impl Write + ?Sized),
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "\r\n{body}")?;
    writer.flush()
}

/// The shed answer: `503` with `Retry-After: 1`.
pub fn write_shed(writer: &mut (impl Write + ?Sized), body: &str, keep_alive: bool) -> io::Result<()> {
    write_response(writer, 503, "Service Unavailable", &[("Retry-After", "1")], body, keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str, max_body: usize) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()), max_body)
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw = "POST /predict?window=25 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse(raw, 64).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.query_param("window"), Some("25"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_is_honored() {
        let raw = "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse(raw, 0).unwrap().keep_alive);
        let raw10 = "GET /metrics HTTP/1.0\r\n\r\n";
        assert!(!parse(raw10, 0).unwrap().keep_alive);
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/1.1 EXTRA\r\n\r\n",
            "GET noslash HTTP/1.1\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let err = parse(raw, 64).unwrap_err();
            assert_eq!(err.status(), Some((400, "Bad Request")), "{raw:?} -> {err}");
        }
    }

    #[test]
    fn oversized_declared_body_is_413_before_reading_it() {
        // Body bytes are not even present — the declared length is enough.
        let raw = "POST /predict HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
        let err = parse(raw, 64).unwrap_err();
        assert_eq!(err.status(), Some((413, "Payload Too Large")));
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..600 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(20)));
        }
        raw.push_str("\r\n");
        let err = parse(&raw, 64).unwrap_err();
        assert_eq!(err.status(), Some((431, "Request Header Fields Too Large")));
    }

    #[test]
    fn eof_before_request_is_connection_closed() {
        assert_eq!(parse("", 64).unwrap_err(), ParseError::ConnectionClosed);
        assert!(ParseError::ConnectionClosed.status().is_none());
    }

    /// A reader that yields `a` bytes forever — a request line with no
    /// newline, as a memory-exhaustion attacker would send it.
    struct EndlessLine;

    impl io::Read for EndlessLine {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            buf.fill(b'a');
            Ok(buf.len())
        }
    }

    #[test]
    fn endless_request_line_fails_431_within_the_head_budget() {
        // Terminates (rather than allocating without bound) because the
        // budget is charged before bytes are buffered.
        let err = read_request(&mut BufReader::new(EndlessLine), 64).unwrap_err();
        assert_eq!(err.status(), Some((431, "Request Header Fields Too Large")));
    }

    #[test]
    fn read_line_never_buffers_past_the_budget() {
        let mut budget = 100;
        let err = read_line(&mut BufReader::new(EndlessLine), &mut budget).unwrap_err();
        assert_eq!(err, ParseError::HeadTooLarge);
        assert_eq!(budget, 100, "budget is only spent on consumed-and-kept bytes");
    }

    /// A reader whose every read reports a socket timeout.
    struct AlwaysTimesOut;

    impl io::Read for AlwaysTimesOut {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::Error::from(io::ErrorKind::WouldBlock))
        }
    }

    #[test]
    fn socket_timeouts_map_to_timed_out_with_no_auto_status() {
        let err = read_request(&mut BufReader::new(AlwaysTimesOut), 64).unwrap_err();
        assert_eq!(err, ParseError::TimedOut);
        assert!(err.status().is_none(), "the handler answers 408 itself");
    }

    #[test]
    fn conflicting_content_lengths_are_400_and_agreeing_ones_parse() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nhello";
        let err = parse(raw, 64).unwrap_err();
        assert_eq!(err, ParseError::Malformed("conflicting content-length headers".into()));
        assert_eq!(err.status(), Some((400, "Bad Request")));
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(parse(raw, 64).unwrap().body, b"hello");
    }

    fn parse_response(raw: &str, max_body: usize) -> Result<Response, ParseError> {
        read_response(&mut raw.as_bytes(), max_body)
    }

    #[test]
    fn parses_a_response_with_retry_after_and_close() {
        let raw = "HTTP/1.1 503 Service  Unavailable\r\nRetry-After: 1\r\nConnection: close\r\nContent-Length: 5\r\n\r\nshed\n";
        let resp = parse_response(raw, 64).unwrap();
        assert_eq!(
            resp,
            Response {
                status: 503,
                reason: "Service Unavailable".into(),
                keep_alive: false,
                retry_after: Some("1".into()),
                body: b"shed\n".to_vec(),
            }
        );
        let resp = parse_response("HTTP/1.1 200\r\n\r\n", 0).unwrap();
        assert_eq!((resp.status, resp.reason.as_str(), resp.keep_alive), (200, "", true));
        assert!(!parse_response("HTTP/1.0 200 OK\r\n\r\n", 0).unwrap().keep_alive);
    }

    #[test]
    fn conflicting_response_content_lengths_are_malformed() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc";
        assert!(matches!(parse_response(raw, 64), Err(ParseError::Malformed(_))));
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse_response(raw, 64).unwrap().body, b"abc");
    }

    #[test]
    fn malformed_status_lines_are_rejected() {
        for raw in [
            "garbage\r\n\r\n",
            "HTTP/1.1\r\n\r\n",
            "SPDY/3 200 OK\r\n\r\n",
            "HTTP/1.1 2000 OK\r\n\r\n",
            "HTTP/1.1 +20 OK\r\n\r\n",
            "HTTP/1.1 200 OK\r\nno-colon\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
        ] {
            assert!(matches!(parse_response(raw, 64), Err(ParseError::Malformed(_))), "{raw:?}");
        }
        assert_eq!(parse_response("", 64).unwrap_err(), ParseError::ConnectionClosed);
    }

    #[test]
    fn oversized_response_body_fails_before_any_body_byte_is_read() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 10000000000\r\n\r\nbody";
        let mut rest = raw.as_bytes();
        let err = read_response(&mut rest, 1 << 20).unwrap_err();
        assert_eq!(err, ParseError::BodyTooLarge { declared: 10_000_000_000, limit: 1 << 20 });
        assert_eq!(rest, b"body", "no body byte consumed");
    }

    #[test]
    fn endless_status_line_fails_within_the_head_budget() {
        let err = read_response(&mut BufReader::new(EndlessLine), 64).unwrap_err();
        assert_eq!(err, ParseError::HeadTooLarge);
    }

    #[test]
    fn response_writer_emits_content_length_and_extras() {
        let mut out = Vec::new();
        write_response(&mut out, 503, "Service Unavailable", &[("Retry-After", "1")], "shed\n", false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Content-Length: 5\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nshed\n"), "{text}");
    }
}
