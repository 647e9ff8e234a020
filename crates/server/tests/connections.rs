//! The connection threads, counted from `/proc/self/task`: sequential
//! requests reuse them, concurrent keep-alive connections are all served,
//! and shutdown leaves none behind. Tests are serialized, because every
//! server in this process names its threads alike.

use agcm_ensemble::EnsembleConfig;
use agcm_server::client::get;
use agcm_server::{AgcmServer, ServerConfig};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// `agcm-server-conn` as the kernel keeps it: 15 bytes.
const CONN_COMM: &str = "agcm-server-con";

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn start(tag: &str, max_connections: usize) -> (AgcmServer, PathBuf) {
    let dir = std::env::temp_dir().join(format!("agcm-conn-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = AgcmServer::start(ServerConfig {
        journal_dir: dir.clone(),
        ensemble: EnsembleConfig::default(),
        max_connections,
        ..ServerConfig::default()
    })
    .unwrap();
    (server, dir)
}

/// The ids of this process's live connection threads.
fn conn_threads() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            let tid = entry.file_name().to_str()?.parse().ok()?;
            (comm.trim_end() == CONN_COMM).then_some(tid)
        })
        .collect()
}

/// Wait (briefly) for exited threads to leave `/proc`: a joined thread's
/// task entry goes away a moment after the join returns.
fn settled_conn_threads() -> BTreeSet<u64> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let threads = conn_threads();
        if threads.is_empty() || Instant::now() > deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One keep-alive exchange: send `GET path`, read the head and exactly
/// `Content-Length` body bytes, leave the connection open.
fn keep_alive_get(reader: &mut BufReader<TcpStream>, path: &str) -> (u16, String) {
    write!(reader.get_mut(), "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let mut length = 0;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            length = v.parse().unwrap();
        }
        if line.starts_with("Connection: ") {
            assert_eq!(line, "Connection: keep-alive");
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn sequential_requests_reuse_two_connection_threads() {
    let _serial = serial();
    assert!(settled_conn_threads().is_empty());
    let (server, dir) = start("seq", 128);
    let addr = server.local_addr();
    let mut seen = conn_threads();
    for _ in 0..500 {
        assert_eq!(get(addr, "/healthz").unwrap().status, 200);
        seen.extend(conn_threads());
    }
    assert!(
        seen.len() <= 2,
        "500 sequential requests ran on {} connection threads",
        seen.len()
    );
    // None of them was replaced: every thread seen is still there to
    // serve the next request.
    let alive = conn_threads();
    assert!(!alive.is_empty() && alive == seen, "{seen:?} vs {alive:?}");
    server.shutdown();
    assert!(settled_conn_threads().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_keep_alive_connections_are_all_served() {
    let _serial = serial();
    let (server, dir) = start("keepalive", 128);
    let addr = server.local_addr();
    let mut conns: Vec<BufReader<TcpStream>> = (0..8)
        .map(|_| BufReader::new(TcpStream::connect(addr).unwrap()))
        .collect();
    // Two rounds over the same eight open connections: each is held by a
    // thread of its own between requests.
    for _ in 0..2 {
        for conn in &mut conns {
            let (status, body) = keep_alive_get(conn, "/healthz");
            assert_eq!(status, 200, "{body}");
            assert!(body.contains("\"ok\":true"), "{body}");
        }
    }
    assert_eq!(conn_threads().len(), 9, "8 open connections + 1 acceptor");
    // The connections stay open across shutdown; it closes them.
    server.shutdown();
    assert!(settled_conn_threads().is_empty());
    drop(conns);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_stay_within_the_connection_cap() {
    let _serial = serial();
    let (server, dir) = start("cap", 2);
    let addr = server.local_addr();
    let hogs: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(100));
    // Both slots are taken: every further connection is refused with the
    // typed 503 by the one spare thread, which starts no other.
    for _ in 0..5 {
        let mut refused = TcpStream::connect(addr).unwrap();
        let mut raw = String::new();
        refused.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    }
    assert_eq!(conn_threads().len(), 3, "max_connections + 1 threads");
    drop(hogs);
    server.shutdown();
    assert!(settled_conn_threads().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_connection_thread_outlives_its_server() {
    let _serial = serial();
    for cycle in 0..20 {
        let (server, dir) = start(&format!("cycle{cycle}"), 128);
        let addr = server.local_addr();
        // Traffic of every kind the threads see: finished requests, an
        // open keep-alive connection, and a peer that never speaks.
        assert_eq!(get(addr, "/healthz").unwrap().status, 200);
        let mut open = BufReader::new(TcpStream::connect(addr).unwrap());
        assert_eq!(keep_alive_get(&mut open, "/v1/metrics").0, 200);
        let silent = TcpStream::connect(addr).unwrap();
        assert_eq!(get(addr, "/healthz").unwrap().status, 200);
        if cycle % 2 == 0 {
            server.shutdown();
        } else {
            server.abort();
        }
        let left = settled_conn_threads();
        assert!(left.is_empty(), "cycle {cycle}: {left:?} left running");
        assert!(
            TcpStream::connect(addr).is_err(),
            "cycle {cycle}: the listener outlived its server"
        );
        drop((open, silent));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
