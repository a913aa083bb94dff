//! `serve-predict`: client-observed serving. Set-up builds an mcf model
//! (the `ppm build` default), publishes it to a registry under the work
//! directory and starts the real `ppm serve` binary with `--workers 1`,
//! pinned to CPU 0. The benchmark is one closed-loop client pinned to
//! CPU 1 with one request in flight; each request is `GET /predict` at a
//! seed-generated random Table-1 configuration.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppm_core::persist;
use ppm_core::{DesignSpace, ErrorStats, RbfModelBuilder, Response};
use ppm_obs::json::Json;
use ppm_rbf::RbfNetwork;
use ppm_regtree::Dataset;
use ppm_rng::Rng;
use ppm_sim::SimConfig;

use crate::mcf::{build_config, response, HOLDOUT, INSTRUCTIONS, SAMPLE, SETUP_REPEATS};
use crate::stats::{median_of, Samples};
use crate::trace::{Span, Tracer};
use crate::witness::Witness;
use crate::{sys, Ctx, Report};

/// Distinct request configurations cycled through by the client.
const CONFIGS: usize = 1024;
/// Socket budget for every client call.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the server may take to come up.
const READY_TIMEOUT: Duration = Duration::from_secs(30);
/// Traced runs drain `/tracez` after this many requests (the server's
/// ring holds 8192 per shard at the capacity requested below).
const TRACEZ_EVERY: u64 = 4096;
/// Run time between two witness measurements.
const WITNESS_EVERY: Duration = Duration::from_secs(1);

/// A running `ppm serve` child. Dropping it kills and reaps the process.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    fn start(ctx: &Ctx, registry: &Path, pin: bool) -> Result<Server, String> {
        let ppm = ctx.ppm.to_str().ok_or("ppm path is not UTF-8")?;
        let registry = registry.to_str().ok_or("registry path is not UTF-8")?;
        let mut args = vec![
            "serve",
            "127.0.0.1:0",
            "--registry",
            registry,
            "--workers",
            "1",
        ];
        if ctx.trace {
            args.extend(["--trace-sample", "1", "--trace-ring", "65536"]);
        }
        let mut cmd = if pin {
            let mut c = Command::new("taskset");
            c.args(["-c", "0", ppm]);
            c
        } else {
            Command::new(ppm)
        };
        let mut child = cmd
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {ppm}: {e}"))?;
        let pipe = child.stderr.take();
        // Owned by `Server` from here on, so every error path reaps it.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: None,
        };
        let mut lines = BufReader::new(pipe.ok_or("no stderr pipe")?).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("server stderr: {e}"))?;
            if let Some(a) = line.split("listening on http://").nth(1) {
                addr = Some(
                    a.trim()
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("{a}: {e}"))?,
                );
                break;
            }
        }
        // Keep draining so the server never blocks on a full pipe.
        server.stderr = Some(std::thread::spawn(move || for _ in lines {}));
        server.addr = addr.ok_or("server exited before listening")?;
        server.wait_ready()?;
        Ok(server)
    }

    /// Readiness by short connect retries: no fixed sleep.
    fn wait_ready(&mut self) -> Result<(), String> {
        let start = Instant::now();
        loop {
            let mut client = Client::new(self.addr);
            if let Ok(r) = client.get("/readyz", "pb-ready") {
                if r.status == 200 {
                    return Ok(());
                }
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err("server did not become ready".to_string());
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited with {status}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `POST /quitz`, then reap the process (killing it if it lingers).
    fn stop(mut self) -> Result<(), String> {
        let quit = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT).and_then(|mut s| {
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.write_all(b"POST /quitz HTTP/1.1\r\nHost: ppm\r\nContent-Length: 0\r\n\r\n")?;
            let mut sink = Vec::new();
            s.read_to_end(&mut sink).map(|_| ())
        });
        let deadline = Instant::now() + IO_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => break None,
            }
        };
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        quit.map_err(|e| format!("quitz: {e}"))?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("server exited with {s}")),
            None => Err("server did not stop on /quitz".to_string()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One parsed response with its client-side phase times.
struct Reply {
    status: u16,
    head: String,
    body: String,
    connect_ns: u64,
    ttfb_ns: u64,
    body_ns: u64,
    total_ns: u64,
    /// The client's clock at the op's start, for the trace.
    start: Instant,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then_some(v.trim())
        })
    }
}

/// A blocking HTTP/1.1 client that reuses its connection whenever a
/// response does not say `Connection: close`.
struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    connections: u64,
    buf: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            connections: 0,
            buf: Vec::with_capacity(4096),
        }
    }

    /// One request; connect errors are returned, never retried.
    fn get(&mut self, target: &str, trace_id: &str) -> Result<Reply, String> {
        let start = Instant::now();
        let mut connect_ns = 0;
        if self.conn.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)
                .map_err(|e| format!("connect: {e}"))?;
            connect_ns = nanos(start.elapsed());
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            s.set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.connections += 1;
            self.conn = Some(s);
        }
        let stream = self.conn.as_mut().ok_or("no connection")?;
        let sent = Instant::now();
        let request =
            format!("GET {target} HTTP/1.1\r\nHost: ppm\r\nX-Ppm-Trace: {trace_id}\r\n\r\n");
        let result = read_reply(stream, request.as_bytes(), &mut self.buf);
        let end = Instant::now();
        let (first_byte, head_len, close) = match result {
            Ok(r) => r,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        if close {
            self.conn = None;
        }
        let head = String::from_utf8_lossy(&self.buf[..head_len]).into_owned();
        let body = String::from_utf8_lossy(&self.buf[head_len + 4..]).into_owned();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        Ok(Reply {
            status,
            head,
            body,
            connect_ns,
            ttfb_ns: nanos(first_byte.duration_since(sent)),
            body_ns: nanos(end.duration_since(first_byte)),
            total_ns: nanos(end.duration_since(start)),
            start,
        })
    }
}

/// Writes `request` and reads one response into `buf`. Returns the
/// first byte's arrival, the head length, and whether the server closes
/// the connection.
fn read_reply(
    stream: &mut TcpStream,
    request: &[u8],
    buf: &mut Vec<u8>,
) -> Result<(Instant, usize, bool), String> {
    stream
        .write_all(request)
        .map_err(|e| format!("write: {e}"))?;
    buf.clear();
    let mut chunk = [0u8; 4096];
    let mut first_byte = None;
    loop {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before the response ended".to_string());
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let head = String::from_utf8_lossy(&buf[..head_len]).to_ascii_lowercase();
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or("response without Content-Length")?;
        if buf.len() >= head_len + 4 + length {
            buf.truncate(head_len + 4 + length);
            let close = head
                .lines()
                .any(|l| l.replace(' ', "") == "connection:close");
            return Ok((first_byte.unwrap_or_else(Instant::now), head_len, close));
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A request configuration with the prediction `ppm predict` computes
/// for it from the same model file.
struct Target {
    path: String,
    expected: f64,
}

/// The `/predict` query for a configuration (Table-1 parameter names of
/// `ppm serve`).
fn query(c: &SimConfig) -> String {
    format!(
        "/predict?depth={}&rob={}&iq={}&lsq={}&l2-kb={}&l2-lat={}&il1-kb={}&dl1-kb={}&dl1-lat={}",
        c.pipe_depth,
        c.rob_size,
        c.iq_frac,
        c.lsq_frac,
        c.l2_size_kb,
        c.l2_lat,
        c.il1_size_kb,
        c.dl1_size_kb,
        c.dl1_lat
    )
}

/// The unit point `ppm predict` (and the server) derive from a
/// configuration.
fn unit_of(space: &DesignSpace, c: &SimConfig) -> Vec<f64> {
    let actual = [
        f64::from(c.pipe_depth),
        f64::from(c.rob_size),
        c.iq_frac,
        c.lsq_frac,
        f64::from(c.l2_size_kb),
        f64::from(c.l2_lat),
        f64::from(c.il1_size_kb),
        f64::from(c.dl1_size_kb),
        f64::from(c.dl1_lat),
    ];
    space.params().to_unit(&actual)
}

/// The served `"prediction"` of a `/predict` body, checked for a
/// full-fidelity answer.
fn served_prediction(body: &str) -> Result<f64, String> {
    if !body.contains("\"degraded\":false") {
        return Err(format!("degraded answer: {}", body.trim()));
    }
    body.split("\"prediction\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no prediction in {}", body.trim()))
}

/// Everything one set-up leaves behind.
struct Setup {
    server: Server,
    dir: PathBuf,
    network: RbfNetwork,
    stats: ErrorStats,
    build_s: f64,
}

fn setup(ctx: &Ctx, t: &mut Tracer, rep: usize, pin: bool) -> Result<Setup, String> {
    let id = format!("setup{rep}");
    let dir = ctx.work.join(format!("serve-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let space = DesignSpace::paper_table1();
    let builder = RbfModelBuilder::new(space.clone(), build_config(ctx.seed, SAMPLE, ctx.threads));
    let response = response(ctx.seed);
    t.span("setup", &id, |t| {
        let build_start = Instant::now();
        let built = if t.enabled() {
            let (design, disc) = t
                .span("sampling.select", &id, |_| builder.select_sample())
                .map_err(|e| e.to_string())?;
            let y = crate::layers::sim_batch(t, &id, &space, &design, ctx.seed, INSTRUCTIONS)?;
            let data = Dataset::new(design.clone(), y.clone()).map_err(|e| e.to_string())?;
            let trainer = builder.config().trainer.clone().with_threads(ctx.threads);
            crate::layers::extras(t, &id, &data, &trainer, INSTRUCTIONS, ctx.seed, true);
            t.span("core.fit", &id, |_| builder.fit(design, y, disc))
        } else {
            builder.build(&response)
        }
        .map_err(|e| e.to_string())?;
        let test = builder.test_points(&DesignSpace::paper_table2(), HOLDOUT);
        let mut actual = Vec::with_capacity(HOLDOUT);
        for p in &test {
            actual.push(if t.enabled() {
                crate::layers::sim_serial(t, &id, &space, p, ctx.seed, INSTRUCTIONS)?
            } else {
                response.eval(p)
            });
        }
        let build_s = build_start.elapsed().as_secs_f64();

        let model = dir.join("mcf.model");
        let meta: Vec<(String, String)> = [
            ("benchmark", "mcf".to_string()),
            ("metric", "cpi".to_string()),
            ("sample", SAMPLE.to_string()),
            ("instructions", INSTRUCTIONS.to_string()),
            ("seed", ctx.seed.to_string()),
            ("p_min", built.model.p_min.to_string()),
            ("alpha", built.model.alpha.to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        persist::save(&built.model.network, &meta, &model).map_err(|e| e.to_string())?;
        let registry = dir.join("registry");
        ppm_serve::publish(&registry, &model).map_err(|e| e.to_string())?;
        let server = Server::start(ctx, &registry, pin)?;

        // The served model's held-out error, as a client sees it.
        let mut client = Client::new(server.addr);
        let mut served = Vec::with_capacity(HOLDOUT);
        for (i, p) in test.iter().enumerate() {
            let reply = client.get(&query(&space.to_config(p)), &format!("pb-holdout-{i}"))?;
            if reply.status != 200 {
                return Err(format!("held-out request: status {}", reply.status));
            }
            served.push(served_prediction(&reply.body)?);
        }
        let network = persist::load(&model).map_err(|e| e.to_string())?.network;
        Ok(Setup {
            server,
            dir: dir.clone(),
            network,
            stats: ErrorStats::from_predictions(&served, &actual),
            build_s,
        })
    })
}

fn targets(ctx: &Ctx, network: &RbfNetwork, t: &mut Tracer) -> Vec<Target> {
    let space = DesignSpace::paper_table1();
    let mut rng = Rng::seed_from_u64(ppm_rng::derive_seed(ctx.seed, 0x5e7e));
    (0..CONFIGS)
        .map(|_| {
            let u: Vec<f64> = (0..space.dim()).map(|_| rng.unit_f64()).collect();
            let config = space.to_config(&u);
            let unit = unit_of(&space, &config);
            let expected = t.span("rbf.predict", "setup/targets", |_| network.predict(&unit));
            Target {
                path: query(&config),
                expected,
            }
        })
        .collect()
}

/// `/statusz` counters.
fn statusz(addr: SocketAddr) -> Result<Json, String> {
    let reply = Client::new(addr).get("/statusz", "pb-statusz")?;
    Json::parse(&reply.body).map_err(|e| format!("statusz: {e}"))
}

fn counter(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Client-side facts of one traced request, waiting to be joined with
/// the server's `/tracez` record.
struct Pending {
    /// The client's time-to-first-byte span, which the server's hops
    /// nest under.
    ttfb_span: usize,
    send_ns: u64,
    total_ns: u64,
}

/// Server-side hop times of the joined requests (µs).
#[derive(Default)]
struct ServerHops {
    head_read: Vec<f64>,
    queue_wait: Vec<f64>,
    eval: Vec<f64>,
    write: Vec<f64>,
    total: Vec<f64>,
    unaccounted: Vec<f64>,
    /// The highest server sequence number seen, the `/tracez` cursor.
    cursor: Option<u64>,
}

/// Pulls the records of this run's requests from `/tracez` and joins
/// them to the client spans by trace ID.
fn drain_tracez(
    addr: SocketAddr,
    prefix: &str,
    t: &mut Tracer,
    pending: &mut std::collections::HashMap<String, Pending>,
    hops: &mut ServerHops,
) -> Result<(), String> {
    let mut target = format!("/tracez?id_prefix={prefix}");
    if let Some(c) = hops.cursor {
        target.push_str(&format!("&since_seq={c}"));
    }
    let reply = Client::new(addr).get(&target, "pb-tracez")?;
    // The records are scanned in place: `/tracez` documents run to
    // megabytes, and a general JSON parse of them is far slower than
    // the requests being measured.
    for rec in reply.body.split("{\"id\":").skip(1) {
        if let Some(seq) = number_after(rec, "\"seq\":") {
            let seq = seq as u64;
            hops.cursor = Some(hops.cursor.map_or(seq, |c| c.max(seq)));
        }
        let Some(id) = rec.strip_prefix('"').and_then(|r| r.split('"').next()) else {
            continue;
        };
        let Some(p) = pending.remove(id) else {
            continue;
        };
        let span_of = |name: &str| -> Option<(f64, f64)> {
            let at = rec.find(&format!("{{\"name\":\"{name}\","))?;
            let span = &rec[at..];
            Some((
                number_after(span, "\"start_us\":")?,
                number_after(span, "\"dur_us\":")?,
            ))
        };
        let (Some(queue), Some(eval), Some(write), Some(total)) = (
            span_of("queue_wait"),
            span_of("eval"),
            span_of("write"),
            number_after(rec, "\"total_us\":"),
        ) else {
            continue;
        };
        let head_read = (eval.0 - queue.1).max(0.0);
        hops.queue_wait.push(queue.1);
        hops.head_read.push(head_read);
        hops.eval.push(eval.1);
        hops.write.push(write.1);
        hops.total.push(total);
        hops.unaccounted.push(p.total_ns as f64 / 1e3 - total);
        // Server offsets are exact relative to accept; accept is placed
        // at the client's send time.
        let spans = [
            ("serve.queue_wait", 0.0, queue.1),
            ("serve.head_read", queue.1, head_read),
            ("serve.eval", eval.0, eval.1),
            ("serve.write", write.0, write.1),
        ];
        for (name, start_us, dur_us) in spans {
            let start_ns = p.send_ns + (start_us * 1e3) as u64;
            t.record(Span {
                name,
                start_ns,
                end_ns: start_ns + (dur_us * 1e3) as u64,
                parent: Some(p.ttfb_span),
                op: id.to_string(),
            });
        }
    }
    Ok(())
}

/// The number that follows the first `key` in `text`.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The output checks of one `/predict` reply.
fn verify(reply: &Reply, id: &str, expected: f64) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    if reply.header("x-ppm-trace") != Some(id) {
        return Err(format!(
            "trace header {:?} != {id}",
            reply.header("x-ppm-trace")
        ));
    }
    let served = served_prediction(&reply.body)?;
    if served.to_bits() != expected.to_bits() {
        return Err(format!("served {served} != in-process {expected}"));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, t: &mut Tracer, w: &mut Witness) -> Result<Report, String> {
    let mut report = Report::default();
    let pin = ctx.threads >= 2;
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut first_err: Option<ErrorStats> = None;
    let repeats = if t.enabled() { 1 } else { SETUP_REPEATS };
    let mut kept = None;
    for rep in 0..repeats {
        w.measure()?;
        let start = Instant::now();
        let s = setup(ctx, t, rep, pin)?;
        setup_s.push(start.elapsed().as_secs_f64());
        build_s.push(s.build_s);
        if let Some(first) = &first_err {
            if first.mean_pct.to_bits() != s.stats.mean_pct.to_bits() {
                return Err("set-up is not deterministic: repeats disagree".to_string());
            }
        }
        first_err.get_or_insert(s.stats);
        if rep + 1 < repeats {
            let dir = s.dir.clone();
            s.server.stop()?;
            let _ = std::fs::remove_dir_all(dir);
        } else {
            kept = Some(s);
        }
    }
    let s = kept.ok_or("no set-up ran")?;
    let addr = s.server.addr;
    let targets = targets(ctx, &s.network, t);
    let pinned = pin && sys::pin_self(1);
    report.note("pinned", pinned);

    let before = statusz(addr)?;
    let prefix = format!("pb{:x}-", ctx.seed);
    let mut client = Client::new(addr);
    let mut lat = Samples::default();
    let mut phases = [Samples::default(), Samples::default(), Samples::default()];
    let mut pending = std::collections::HashMap::new();
    let mut hops = ServerHops::default();
    let run_start = Instant::now();
    let mut witnessed = run_start;
    let mut n = 0u64;
    while n == 0 || run_start.elapsed() < ctx.run_for() {
        if witnessed.elapsed() >= WITNESS_EVERY {
            w.measure()?;
            witnessed = Instant::now();
        }
        let target = &targets[(n as usize) % CONFIGS];
        let id = format!("{prefix}{n:08x}");
        n += 1;
        report.attempted += 1;
        let reply = match client.get(&target.path, &id) {
            Ok(r) => r,
            Err(e) => {
                report.fail(e);
                continue;
            }
        };
        if let Err(e) = verify(&reply, &id, target.expected) {
            report.fail(e);
            continue;
        }
        lat.push(reply.total_ns as f64 / 1e6);
        if t.enabled() {
            for (k, ns) in [reply.connect_ns, reply.ttfb_ns, reply.body_ns]
                .into_iter()
                .enumerate()
            {
                phases[k].push(ns as f64 / 1e3);
            }
            let start_ns = nanos(reply.start.duration_since(run_start)) + 1;
            let op_span = t.record(Span {
                name: "op",
                start_ns,
                end_ns: start_ns + reply.total_ns,
                parent: None,
                op: id.clone(),
            });
            let send_ns = start_ns + reply.connect_ns;
            let mut ttfb_span = op_span;
            for (name, from, dur) in [
                ("client.connect", start_ns, reply.connect_ns),
                ("client.ttfb", send_ns, reply.ttfb_ns),
                ("client.body", send_ns + reply.ttfb_ns, reply.body_ns),
            ] {
                let span = t.record(Span {
                    name,
                    start_ns: from,
                    end_ns: from + dur,
                    parent: Some(op_span),
                    op: id.clone(),
                });
                if name == "client.ttfb" {
                    ttfb_span = span;
                }
            }
            pending.insert(
                id,
                Pending {
                    ttfb_span,
                    send_ns,
                    total_ns: reply.total_ns,
                },
            );
            if n.is_multiple_of(TRACEZ_EVERY) {
                drain_tracez(addr, &prefix, t, &mut pending, &mut hops)?;
            }
        }
    }
    if t.enabled() {
        drain_tracez(addr, &prefix, t, &mut pending, &mut hops)?;
    }
    let after = statusz(addr)?;
    let rss = sys::peak_rss_mb(&s.server.pid())?;
    let dir = s.dir.clone();
    s.server.stop()?;
    let _ = std::fs::remove_dir_all(dir);

    let stats = first_err.ok_or("no set-up ran")?;
    let conns = client.connections as f64 / report.attempted as f64;
    let p99 = lat.tail_quantile(0.99);
    report.note("op_ms", format!("[{}]", lat.summary()));
    report.note(
        "op_p99_ms",
        p99.map_or("n/a".to_string(), |v| format!("{v}")),
    );
    report.note("conns_per_req", conns);
    report.accuracy(&stats);
    if t.enabled() {
        crate::layers::report(t, &mut report, ctx.threads);
        report.metric("client.connect_us", phases[0].median(), "us");
        report.metric("client.ttfb_us", phases[1].median(), "us");
        report.metric("client.body_us", phases[2].median(), "us");
        report.metric("client.conns_per_req", conns, "ratio");
        report.metric("client.p99_ms", p99.unwrap_or(0.0), "ms");
        report.metric("serve.head_read_us", median_of(&hops.head_read), "us");
        report.metric("serve.queue_wait_us", median_of(&hops.queue_wait), "us");
        report.metric("serve.eval_us", median_of(&hops.eval), "us");
        report.metric("serve.write_us", median_of(&hops.write), "us");
        report.metric("serve.total_us", median_of(&hops.total), "us");
        report.metric("serve.unaccounted_us", median_of(&hops.unaccounted), "us");
        let ok = lat.len() as f64;
        let joined = hops.total.len() as f64;
        report.metric(
            "serve.joined_frac",
            if ok > 0.0 { joined / ok } else { 0.0 },
            "ratio",
        );
        for key in ["shed", "degraded", "deadline_exceeded"] {
            let delta = counter(&after, key) - counter(&before, key);
            report.metric(&format!("serve.{key}"), delta, "count");
        }
        return Ok(report);
    }
    let lane_instr = ((SAMPLE + HOLDOUT) * INSTRUCTIONS) as f64;
    report.times(w, median_of(&setup_s), &lat);
    report.note("sim_minstr_per_s", lane_instr / 1e6 / median_of(&build_s));
    report.metric("peak_rss_mb", rss, "MB");
    report.note("setup_samples", setup_s.len());
    Ok(report)
}
