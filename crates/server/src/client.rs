//! A tiny blocking HTTP/1.1 client for the integration tests and the
//! benchmark's serving workloads. One request per connection
//! (`Connection: close`), which keeps it trivially correct and also
//! exercises the server's connection churn path.

use agcm_telemetry::json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A response as the client sees it.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Raw body text.
    pub body: String,
}

impl ClientResponse {
    /// The body parsed as JSON (panics with context on non-JSON — test
    /// helper semantics).
    pub fn json(&self) -> Value {
        Value::parse(&self.body).unwrap_or_else(|e| panic!("non-JSON body {:?}: {e}", self.body))
    }
}

/// Send one request and read the full response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let body_bytes = body.unwrap_or("").as_bytes();
    let mut text = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (k, v) in headers {
        text.push_str(&format!("{k}: {v}\r\n"));
    }
    if body.is_some() {
        text.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body_bytes.len()
        ));
    }
    text.push_str("\r\n");
    stream.write_all(text.as_bytes())?;
    stream.write_all(body_bytes)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

fn parse_response(raw: &str) -> Option<ClientResponse> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status_line = head.lines().next()?;
    let status = status_line.split_whitespace().nth(1)?.parse::<u16>().ok()?;
    Some(ClientResponse {
        status,
        body: body.to_string(),
    })
}

/// `GET path` convenience.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", path, &[], None)
}

/// `POST /v1/jobs` as `tenant` (omit the header when `None`).
pub fn post_job(
    addr: SocketAddr,
    tenant: Option<&str>,
    body: &str,
) -> std::io::Result<ClientResponse> {
    let headers: Vec<(&str, &str)> = tenant.map(|t| ("X-Agcm-Tenant", t)).into_iter().collect();
    request(addr, "POST", "/v1/jobs", &headers, Some(body))
}
