//! Adversarial-client tests for the live observability plane: clients
//! that overflow the event ring, slowloris a partial request head
//! against the 2-second socket budget, or send an oversized request
//! line. The accept thread must survive all of it, count the abuse in
//! `live.client_errors`, and keep answering well-behaved scrapers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppm_live::{http_get, LiveServer, RegistrySource};
use ppm_obs::Json;
use ppm_telemetry::{EventRing, Level, Record, Sink};

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

fn scoped_server(capacity: usize) -> (LiveServer, Arc<ppm_telemetry::Registry>, EventRing) {
    let registry = Arc::new(ppm_telemetry::Registry::new());
    let ring = EventRing::new(capacity);
    let server = LiveServer::start(
        "127.0.0.1:0",
        RegistrySource::Shared(Arc::clone(&registry)),
        ring.clone(),
    )
    .expect("bind ephemeral port");
    (server, registry, ring)
}

fn client_errors() -> u64 {
    ppm_telemetry::registry()
        .counter("live.client_errors")
        .get()
}

/// Polls until the server answers a well-behaved request again —
/// the liveness assertion after every attack.
fn assert_still_answering(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match http_get(addr, "/buildz", SCRAPE_TIMEOUT) {
            Ok((200, _)) => return,
            _ if Instant::now() > deadline => panic!("server stopped answering"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn event_ring_overflow_drops_oldest_and_reports_the_loss() {
    let (server, _registry, ring) = scoped_server(8);
    // A chatty producer: 3x the ring's capacity.
    let mut writer = ring.clone();
    for k in 0..24u64 {
        writer.record(&Record::Event {
            name: format!("t.flood.{k}"),
            level: Level::Info,
            fields: vec![("k".into(), Json::from(k))],
            depth: 0,
        });
    }
    assert_eq!(ring.events().len(), 8, "ring holds exactly its capacity");
    assert_eq!(ring.dropped(), 16, "evictions are counted, not silent");
    // The retained window is the most recent events, oldest first.
    let names: Vec<String> = ring.events().iter().map(|e| e.name.clone()).collect();
    assert_eq!(names.first().map(String::as_str), Some("t.flood.16"));
    assert_eq!(names.last().map(String::as_str), Some("t.flood.23"));

    // /eventz serves the same truncated view and admits the loss.
    let addr = server.addr().to_string();
    let (status, body) = http_get(&addr, "/eventz", SCRAPE_TIMEOUT).expect("scrape eventz");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("eventz is JSON");
    assert_eq!(doc.get("dropped").and_then(Json::as_i64), Some(16));
    assert!(body.contains("t.flood.23"), "{body}");
    assert!(!body.contains("t.flood.0\""), "evicted event still served");
}

#[test]
fn slowloris_partial_head_is_cut_off_by_the_socket_budget() {
    let (server, _registry, _ring) = scoped_server(4);
    let before = client_errors();
    let started = Instant::now();
    // A partial request line, then silence: the server must not wait
    // forever for the terminator.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"GET /buildz?partial").expect("send");
    let mut response = String::new();
    let _ = stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .and_then(|()| stream.read_to_string(&mut response).map(|_| ()));
    // The 2s per-connection budget bounds the stall (plus slack for a
    // loaded machine); dropping the read is also acceptable, but a
    // best-effort 400 is what the server tries to send.
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "slowloris held the connection for {:?}",
        started.elapsed()
    );
    if !response.is_empty() {
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    }
    assert!(client_errors() > before, "the stall was not counted");
    assert_still_answering(&server.addr().to_string());
}

#[test]
fn oversized_request_line_is_rejected_not_buffered() {
    let (server, _registry, _ring) = scoped_server(4);
    let before = client_errors();
    // 4x the 8 KiB head cap, no terminator anywhere.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let junk = vec![b'a'; 32 * 1024];
    // The server may close mid-write once the cap trips; a broken pipe
    // here is the defense working, not a test failure.
    let _ = stream.write_all(&junk);
    let mut response = String::new();
    let _ = stream
        .set_read_timeout(Some(SCRAPE_TIMEOUT))
        .and_then(|()| stream.read_to_string(&mut response).map(|_| ()));
    if !response.is_empty() {
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    }
    drop(stream);
    assert!(client_errors() > before, "oversized head was not counted");
    assert_still_answering(&server.addr().to_string());
}

#[test]
fn a_swarm_of_misbehaving_clients_cannot_stop_the_scrapes() {
    let (server, registry, _ring) = scoped_server(4);
    registry.counter("live.test_beacon").add(1);
    let addr = server.addr().to_string();
    // Interleave every attack style with healthy scrapes.
    for round in 0..6 {
        match round % 3 {
            0 => drop(TcpStream::connect(server.addr()).expect("connect")),
            1 => {
                let mut s = TcpStream::connect(server.addr()).expect("connect");
                let _ = s.write_all(b"\x00\x01\x02 junk");
            }
            _ => {
                let mut s = TcpStream::connect(server.addr()).expect("connect");
                let _ = s.write_all(b"GET /metr");
            }
        }
        let (status, body) = http_get(&addr, "/metrics", SCRAPE_TIMEOUT).expect("scrape survives");
        assert_eq!(status, 200);
        assert!(body.contains("ppm_live_test_beacon 1"), "{body}");
    }
}
