//! `perfbench`: the ppm benchmark. One run measures one workload for a
//! fixed number of seconds and prints, as its last stdout line, one JSON
//! object `{"correct","attempted","failed","metrics"}`.
//!
//! ```text
//! perfbench --workload <build-mcf|refit-200|serve-predict> --seed <n>
//!           --seconds <s> --trace <0|1> --ppm <ppm binary> --work <dir>
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end metrics, timed with
//! the benchmark's tracing off. With `--trace 1` the run calls each
//! layer's public functions one by one inside spans and reports the
//! per-layer metrics; the spans are written to `<work>/traces/` when the
//! run ends. See `perfbench/README.md` for every metric's definition.

mod layers;
mod mcf;
mod refit;
mod serve;
mod stats;
mod sys;
mod trace;
mod witness;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use stats::Samples;
use trace::Tracer;
use witness::Witness;

/// End-to-end metrics: every workload reports every one of them.
const END_TO_END: &[&str] = &["setup_s", "op_p50_ms", "ok_frac", "peak_rss_mb"];

/// Per-layer metrics (traced runs). A layer a workload never calls
/// reads 0 there.
const PER_LAYER: &[&str] = &[
    "model.err_mean_pct",
    "model.err_max_pct",
    "host.witness_ms",
    "op.traced_p50_ms",
    "op.sim_share",
    "op.fit_share",
    "op.sim_lane_instr",
    "workload.trace_ns_per_instr",
    "sim.batch_ms",
    "sim.batch_ns_per_lane_instr",
    "sim.serial_ns_per_instr",
    "sim.holdout_ms",
    "sim.lane_instr",
    "sim.cycles_sum",
    "sampling.select_ms",
    "sampling.l2star_us",
    "regtree.fit_ms",
    "rbf.grid_ms",
    "rbf.cell_ms",
    "rbf.cells",
    "rbf.centers",
    "exec.grid_efficiency",
    "rbf.predict_us",
    "client.connect_us",
    "client.ttfb_us",
    "client.body_us",
    "client.conns_per_req",
    "client.p99_ms",
    "serve.head_read_us",
    "serve.queue_wait_us",
    "serve.eval_us",
    "serve.write_us",
    "serve.total_us",
    "serve.unaccounted_us",
    "serve.joined_frac",
    "serve.shed",
    "serve.degraded",
    "serve.deadline_exceeded",
];

/// Layer metrics of the serving path with their units; in-process
/// workloads report them as 0.
const SERVE_LAYERS: &[(&str, &str)] = &[
    ("client.connect_us", "us"),
    ("client.ttfb_us", "us"),
    ("client.body_us", "us"),
    ("client.conns_per_req", "ratio"),
    ("client.p99_ms", "ms"),
    ("serve.head_read_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.eval_us", "us"),
    ("serve.write_us", "us"),
    ("serve.total_us", "us"),
    ("serve.unaccounted_us", "us"),
    ("serve.joined_frac", "ratio"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.deadline_exceeded", "count"),
];

/// The settings of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ppm: PathBuf,
    pub work: PathBuf,
    pub threads: usize,
}

impl Ctx {
    pub fn run_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back: op accounting, metrics, and the extra
/// facts printed on the record line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Reports layers the workload never calls as 0.
    pub fn absent(&mut self, layers: &[(&str, &'static str)]) {
        for (name, unit) in layers {
            self.metric(name, 0.0, unit);
        }
    }

    /// Held-out CPI error of the workload's model: deterministic per
    /// seed, so it is a per-layer metric and a note on every record line.
    pub fn accuracy(&mut self, stats: &ppm_core::ErrorStats) {
        self.metric("model.err_mean_pct", stats.mean_pct, "%");
        self.metric("model.err_max_pct", stats.max_pct, "%");
        self.note("model_err_mean_pct", stats.mean_pct);
        self.note("model_err_max_pct", stats.max_pct);
    }

    /// The timed end-to-end metrics from host-time medians of exact
    /// samples, scaled to the reference host speed by the run's witness.
    /// The host-time values go on the record line, with the op rate:
    /// passed ops / summed op time, which follows the host's preemption
    /// tail more than the program (see `STEADINESS.md`).
    pub fn times(&mut self, w: &Witness, setup_s: f64, op_ms: &Samples) {
        let op_p50_ms = op_ms.median();
        let ops_per_s = op_ms.len() as f64 / (op_ms.sum() / 1e3);
        let scale = w.scale();
        self.metric("setup_s", setup_s * scale, "s");
        self.metric("op_p50_ms", op_p50_ms * scale, "ms");
        self.note("host_setup_s", setup_s);
        self.note("host_op_p50_ms", op_p50_ms);
        self.note("host_ops_per_s", ops_per_s);
        self.note("ops_per_s", ops_per_s / scale);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a failed op with its reason (the first few reasons are
    /// kept for the record line).
    pub fn fail(&mut self, reason: impl ToString) {
        self.failed += 1;
        if self.failed <= 5 {
            let reason = reason.to_string();
            eprintln!("[perfbench] op failed: {reason}");
            self.note("failure", reason);
        }
    }
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut kv = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(key) = args.next() {
        let value = args.next().ok_or_else(|| format!("{key} wants a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .map_err(|_| format!("{k} wants a number"))
    };
    let workload = get("--workload")?;
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let ctx = Ctx {
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed wants an unsigned integer".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other}")),
        },
        ppm: PathBuf::from(get("--ppm")?),
        work: PathBuf::from(get("--work")?),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    Ok((workload, ctx))
}

fn run() -> Result<(), String> {
    let (workload, ctx) = parse_args()?;
    // Fingerprint before serve-predict pins this process to one CPU.
    let fp = sys::fingerprint();
    let steal_before = sys::steal_ticks();
    let mut tracer = Tracer::new(ctx.trace);
    let mut w = Witness::start(ctx.threads)?;
    let mut report = match workload.as_str() {
        "build-mcf" => mcf::run(&ctx, &mut tracer, &mut w)?,
        "refit-200" => refit::run(&ctx, &mut tracer, &mut w)?,
        "serve-predict" => serve::run(&ctx, &mut tracer, &mut w)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if report.attempted == 0 {
        return Err("no op completed within the run".to_string());
    }
    let (witness_ms, witness_n) = w.median_ms();
    report.note("witness_ms", format!("[n={witness_n} p50={witness_ms:.6}]"));
    if ctx.trace {
        report.metric("host.witness_ms", witness_ms, "ms");
    } else {
        let ok = (report.attempted - report.failed) as f64 / report.attempted as f64;
        report.metric("ok_frac", ok, "ratio");
    }
    let expected = if ctx.trace { PER_LAYER } else { END_TO_END };
    for name in expected {
        if !report.metrics.contains_key(*name) {
            return Err(format!("{workload} did not report {name}"));
        }
    }
    report
        .metrics
        .retain(|name, _| expected.contains(&name.as_str()));

    if ctx.trace {
        let path = ctx
            .work
            .join("traces")
            .join(format!("{workload}-seed{}.json", ctx.seed));
        tracer
            .write(&path, &workload, ctx.seed)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.note("trace_file", path.display());
    }
    let steal = sys::steal_ticks().saturating_sub(steal_before);
    report.note("steal_ticks", steal);
    print_record(&workload, &ctx, &fp, &report);

    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, (value, unit))) in report.metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        // An empty float sum is -0.0; report it as 0.
        let value = value + 0.0;
        let _ = write!(
            line,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

/// The record line: machine fingerprint, steal, sample counts and the
/// workload's notes, printed before the result line.
fn print_record(workload: &str, ctx: &Ctx, fp: &sys::Fingerprint, report: &Report) {
    let mut s = format!(
        "perfbench record: workload={workload} seed={} seconds={} trace={} nproc={} cpu={:?} kernel={}",
        ctx.seed, ctx.seconds, ctx.trace as u8, fp.nproc, fp.cpu, fp.kernel
    );
    for (k, v) in &report.notes {
        let _ = write!(s, " {k}={v}");
    }
    println!("{s}");
}

fn main() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some(witness::WORKER_FLAG) {
        let threads = args.next().and_then(|n| n.parse().ok()).unwrap_or(1);
        if let Err(e) = witness::worker(threads) {
            eprintln!("perfbench witness: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
