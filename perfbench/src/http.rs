//! A one-request-per-connection HTTP/1.1 client over loopback, matching
//! the daemon, which closes every connection after its response.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Sends one request and reads the whole response.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(fail)?;
    stream.set_nodelay(true).map_err(fail)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(fail)?;
    stream.write_all(body.as_bytes()).map_err(fail)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(fail)?;
    parse_response(&raw).map_err(|e| format!("{method} {path}: {e}"))
}

fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {:?}", head.lines().next()))?;
    let body = &raw[split + 4..];
    let declared = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())?
    });
    if declared.is_some_and(|n| n != body.len()) {
        return Err(format!(
            "body has {} bytes, Content-Length says {declared:?}",
            body.len()
        ));
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| "body is not UTF-8")?;
    Ok(Response { status, body })
}

/// Sends a request and requires the given status.
pub fn expect(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    status: u16,
) -> Result<String, String> {
    let r = request(addr, method, path, body)?;
    if r.status != status {
        return Err(format!(
            "{method} {path}: status {} (expected {status}): {}",
            r.status,
            r.body.chars().take(300).collect::<String>()
        ));
    }
    Ok(r.body)
}
