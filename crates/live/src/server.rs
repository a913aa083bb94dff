//! The accept loop: a minimal HTTP/1.1 server on a dedicated thread.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ppm_telemetry::{EventRing, Level};

use crate::http::{read_head, write_response, MAX_HEAD};
use crate::{buildz, expo, LiveError, RegistrySource};

/// Per-connection socket budget: a scraper that cannot send a request
/// line or drain a response in this window is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running live-plane endpoint. Dropping the handle (or calling
/// [`LiveServer::shutdown`]) stops the accept loop and joins its
/// thread; in-flight responses finish first.
#[derive(Debug)]
pub struct LiveServer {
    addr: SocketAddr,
    // atomic-policy(stop): Release, Acquire — shutdown() publishes the
    // flag with Release so the accept loop's Acquire load also observes
    // any state written before the shutdown request.
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl LiveServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `/metrics`, `/buildz`, and `/eventz` on a
    /// background thread. `source` selects the registry the routes
    /// snapshot; `ring` is the event buffer behind `/eventz` (install a
    /// clone of it as a telemetry sink to populate it).
    ///
    /// # Errors
    ///
    /// [`LiveError::Bind`] when the address cannot be bound or parsed.
    pub fn start(addr: &str, source: RegistrySource, ring: EventRing) -> Result<Self, LiveError> {
        let listener = TcpListener::bind(addr).map_err(|e| LiveError::Bind {
            addr: addr.to_string(),
            detail: e.to_string(),
        })?;
        let local = listener.local_addr().map_err(|e| LiveError::Bind {
            addr: addr.to_string(),
            detail: e.to_string(),
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ppm-live".to_string())
            .spawn(move || accept_loop(&listener, &stop_thread, &source, &ring))
            .map_err(|e| LiveError::Bind {
                addr: addr.to_string(),
                detail: format!("cannot spawn accept thread: {e}"),
            })?;
        Ok(LiveServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The actually bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection; if even
        // that fails the listener is already dead and join will return.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    source: &RegistrySource,
    ring: &EventRing,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match conn {
            Ok(stream) => handle_connection(stream, source, ring),
            Err(e) => client_error("accept", &e.to_string()),
        }
    }
}

/// Records a client-side failure: typed counter plus a `Warn` event.
/// Client misbehaviour (disconnects mid-response, garbage requests)
/// must never take down the accept thread.
fn client_error(op: &str, detail: &str) {
    ppm_telemetry::counter("live.client_errors").inc();
    ppm_telemetry::event!(
        Level::Warn,
        "live.client_error",
        "op" => op,
        "detail" => detail,
    );
}

fn handle_connection(mut stream: TcpStream, source: &RegistrySource, ring: &EventRing) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let head = match read_head(&mut stream, MAX_HEAD) {
        Ok(head) => head,
        Err(detail) => {
            client_error("read", &detail);
            // Best-effort 400; the peer may already be gone.
            let _ = write_response(&mut stream, 400, "text/plain", "bad request\n");
            return;
        }
    };
    let (status, content_type, body) = route(&head, source, ring);
    if let Err(detail) = write_response(&mut stream, status, content_type, &body) {
        client_error("write", &detail);
    }
}

/// Dispatches one request line to a route, returning
/// `(status, content-type, body)`.
fn route(
    request_line: &str,
    source: &RegistrySource,
    ring: &EventRing,
) -> (u16, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return (
            405,
            "text/plain",
            format!("method {method} not allowed; this endpoint is GET-only\n"),
        );
    }
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4",
            expo::render_prometheus(&source.snapshot()),
        ),
        "/buildz" => (
            200,
            "application/json",
            buildz::render_buildz(&source.snapshot()),
        ),
        "/eventz" => (200, "application/json", ring.render_json()),
        "/" => (
            200,
            "text/plain",
            "ppm live plane: /metrics /buildz /eventz\n".to_string(),
        ),
        other => (404, "text/plain", format!("no route {other}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::http_get;
    use ppm_obs::Json;
    use std::io::{Read, Write};
    use std::sync::Arc as StdArc;

    fn scoped_server() -> (LiveServer, StdArc<ppm_telemetry::Registry>, EventRing) {
        let registry = StdArc::new(ppm_telemetry::Registry::new());
        let ring = EventRing::new(16);
        let server = LiveServer::start(
            "127.0.0.1:0",
            RegistrySource::Shared(StdArc::clone(&registry)),
            ring.clone(),
        )
        .expect("bind ephemeral port");
        (server, registry, ring)
    }

    #[test]
    fn serves_metrics_buildz_and_eventz() {
        let (server, registry, ring) = scoped_server();
        registry.counter("live.test_hits").add(7);
        {
            let mut writer = ring.clone();
            use ppm_telemetry::{Json, Record, Sink};
            writer.record(&Record::Event {
                name: "t.ring".into(),
                level: Level::Warn,
                fields: vec![("k".into(), Json::from(1u64))],
                depth: 0,
            });
        }
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/metrics", IO_TIMEOUT).expect("scrape metrics");
        assert_eq!(status, 200);
        assert!(body.contains("ppm_live_test_hits 7\n"), "{body}");
        let (status, body) = http_get(&addr, "/buildz", IO_TIMEOUT).expect("scrape buildz");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("buildz is JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-buildz v1")
        );
        let (status, body) = http_get(&addr, "/eventz", IO_TIMEOUT).expect("scrape eventz");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("eventz is JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-eventz v1")
        );
        assert!(body.contains("t.ring"));
    }

    #[test]
    fn unknown_route_is_404_and_post_is_405() {
        let (server, _registry, _ring) = scoped_server();
        let addr = server.addr().to_string();
        let (status, _) = http_get(&addr, "/nope", IO_TIMEOUT).expect("404 response");
        assert_eq!(status, 404);
        // A raw POST through a plain socket.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send");
        let mut text = String::new();
        let _ = stream.read_to_string(&mut text);
        assert!(text.starts_with("HTTP/1.1 405"), "{text}");
    }

    #[test]
    fn garbage_and_disconnects_count_as_client_errors_not_panics() {
        let (server, _registry, _ring) = scoped_server();
        let before = ppm_telemetry::registry()
            .counter("live.client_errors")
            .get();
        // A connection that closes without sending anything.
        drop(TcpStream::connect(server.addr()).expect("connect"));
        // A connection that sends garbage with no request terminator.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"\x00\x01\x02 garbage").expect("send");
        drop(stream);
        // The server must still answer afterwards.
        let addr = server.addr().to_string();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match http_get(&addr, "/buildz", IO_TIMEOUT) {
                Ok((200, _)) => break,
                _ if std::time::Instant::now() > deadline => panic!("server stopped answering"),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let after = ppm_telemetry::registry()
            .counter("live.client_errors")
            .get();
        assert!(after >= before + 2, "before={before} after={after}");
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let (server, _registry, _ring) = scoped_server();
        let taken = server.addr().to_string();
        let err = LiveServer::start(&taken, RegistrySource::Global, EventRing::new(4))
            .expect_err("address in use");
        match err {
            LiveError::Bind { addr, .. } => assert_eq!(addr, taken),
            other => panic!("wrong error: {other:?}"),
        }
        let nonsense =
            LiveServer::start("not-an-address", RegistrySource::Global, EventRing::new(4));
        assert!(matches!(nonsense, Err(LiveError::Bind { .. })));
    }

    #[test]
    fn shutdown_joins_and_stops_accepting() {
        let (mut server, _registry, _ring) = scoped_server();
        let addr = server.addr();
        server.shutdown();
        // The listener is gone: connects are refused (or at least no
        // longer answered).
        let res = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
        assert!(res.is_err(), "server still accepting after shutdown");
    }
}
