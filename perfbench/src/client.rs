//! The `cascn-serve` child process and a one-connection keep-alive HTTP
//! client, driven strictly from outside the server.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `cascn-serve`. Dropping it kills and reaps the process; the
/// orderly path is [`Server::shutdown`].
pub struct Server {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
    /// Spawn → first `200` on `/healthz`.
    pub ready_after: Duration,
}

impl Server {
    /// Spawns the server and blocks until it answers `/healthz`. Readiness is
    /// the child's `listening on ADDR` stdout line, read with a blocking
    /// read, followed by one health check on a fresh connection.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Self, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("child has no stdout")?);
        let mut server = Self {
            child: Some(child),
            stdout: None,
            addr: String::new(),
            ready_after: Duration::ZERO,
        };
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server stdout: {e}"))?;
        server.stdout = Some(stdout);
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("server did not report its address (got `{}`)", line.trim()))?
            .to_string();
        let (status, _) = Conn::open(&server.addr)?.get("/healthz")?;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        server.ready_after = started.elapsed();
        Ok(server)
    }

    /// Peak resident set (VmHWM) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("server already stopped")?.id();
        vm_hwm_mb(&format!("/proc/{pid}/status"))
    }

    /// `POST /shutdown`, then waits for the process and checks it exited 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let (status, _) = Conn::open(&self.addr)?.post("/shutdown", b"")?;
        if status != 200 {
            return Err(format!("/shutdown answered {status}"));
        }
        let mut child = self.child.take().ok_or("server already stopped")?;
        if let Some(mut out) = self.stdout.take() {
            let mut rest = String::new();
            let _ = out.read_to_string(&mut rest);
        }
        let exit = child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if !exit.success() {
            return Err(format!("server exited with {exit}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// One keep-alive connection; one request in flight at a time.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            writer: stream,
            reader,
            buf: Vec::new(),
        })
    }

    pub fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        self.send(&request_bytes("GET", path, b""))
            .map_err(|e| format!("GET {path}: {e}"))
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> Result<(u16, String), String> {
        self.send(&request_bytes("POST", path, body))
            .map_err(|e| format!("POST {path}: {e}"))
    }

    /// Writes one complete request and reads the complete response.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<(u16, String)> {
        self.writer.write_all(raw)?;
        read_response(&mut self.reader, &mut self.buf)
    }
}

/// The exact bytes the client sends for one request.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

fn read_response(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<(u16, String)> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    line.clear();
    if reader.read_until(b'\n', line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status: u16 = std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', line)? == 0 {
            return Err(bad("eof inside headers"));
        }
        let header = std::str::from_utf8(line)
            .map_err(|_| bad("non-utf8 header"))?
            .trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|_| bad("non-utf8 body"))
}

/// Counters scraped from `GET /metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub batch_count: f64,
    pub batch_sum: f64,
    pub warm_fallbacks: f64,
}

impl Scrape {
    pub fn parse(text: &str) -> Result<Self, String> {
        let get = |name: &str| -> Result<f64, String> {
            text.lines()
                .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("/metrics has no `{name}`"))
        };
        Ok(Self {
            cache_hits: get("cascn_spectral_cache_hits_total")?,
            cache_misses: get("cascn_spectral_cache_misses_total")?,
            batch_count: get("cascn_batch_size_count")?,
            batch_sum: get("cascn_batch_size_sum")?,
            warm_fallbacks: get("cascn_live_warm_fallbacks_total")?,
        })
    }

    pub fn fetch(conn: &mut Conn) -> Result<Self, String> {
        let (status, body) = conn.get("/metrics")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Self::parse(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_keep_alive_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nok\nHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        let mut buf = Vec::new();
        assert_eq!(
            read_response(&mut r, &mut buf).unwrap(),
            (200, "ok\n".into())
        );
        assert_eq!(
            read_response(&mut r, &mut buf).unwrap(),
            (404, String::new())
        );
    }

    #[test]
    fn scrape_reads_counters_not_prefixes() {
        let text = "cascn_spectral_cache_hits_total 7\ncascn_spectral_cache_misses_total 3\n\
                    cascn_batch_size_bucket{le=\"1\"} 5\ncascn_batch_size_count 5\ncascn_batch_size_sum 5\n\
                    cascn_live_warm_fallbacks_total 0\n";
        let s = Scrape::parse(text).unwrap();
        assert_eq!(
            (s.cache_hits, s.cache_misses, s.batch_count, s.batch_sum),
            (7.0, 3.0, 5.0, 5.0)
        );
    }
}
