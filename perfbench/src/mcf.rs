//! `build-mcf`: one op is the `ppm build` default pipeline, in process.
//! `RbfModelBuilder::build` over `SimulatorResponse` (181.mcf, 100k
//! instructions, 90 points, 200 LHS candidates, the default trainer grid)
//! followed by the 12 held-out Table-2 points, simulated serially and
//! scored with `BuiltModel::evaluate`. Caches start empty in every op.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ppm_core::SimulatorResponse;
use ppm_core::{BuildConfig, BuiltModel, DesignSpace, ErrorStats, RbfModelBuilder, Response};
use ppm_regtree::Dataset;
use ppm_workload::Benchmark;

use crate::layers;
use crate::stats::{median_of, Samples};
use crate::trace::Tracer;
use crate::witness::Witness;
use crate::{Ctx, Report, SERVE_LAYERS};

/// Simulated instructions per design point (the `ppm build` default).
pub const INSTRUCTIONS: usize = 100_000;
/// Training sample of `ppm build`.
pub const SAMPLE: usize = 90;
/// Held-out points of `ppm build`.
pub const HOLDOUT: usize = 12;
/// Set-up repeats per run of the workloads whose set-up takes seconds;
/// `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Set-up repeats of this workload: its set-up is short (twelve serial
/// simulations), so one slow simulation moves it most.
const MCF_SETUP_REPEATS: usize = 5;

/// The `ppm build` configuration at `sample` points, seeded like
/// `ppm build --seed`, with every thread of the machine.
pub fn build_config(seed: u64, sample: usize, threads: usize) -> BuildConfig {
    let mut config = BuildConfig::default()
        .with_sample_size(sample)
        .with_seed(seed)
        .with_train_threads(threads)
        .with_lhs_candidates(200);
    config.threads = threads;
    config
}

pub fn response(seed: u64) -> SimulatorResponse {
    SimulatorResponse::new(Benchmark::Mcf, INSTRUCTIONS).with_seed(seed)
}

/// What every op must reproduce: the sample and the held-out truth.
struct Reference {
    design: Vec<Vec<f64>>,
    test: Vec<Vec<f64>>,
    holdout: Vec<f64>,
}

fn setup(ctx: &Ctx) -> Result<Reference, String> {
    let builder = RbfModelBuilder::new(
        DesignSpace::paper_table1(),
        build_config(ctx.seed, SAMPLE, ctx.threads),
    );
    let response = response(ctx.seed);
    let (design, _) = builder.select_sample().map_err(|e| e.to_string())?;
    let test = builder.test_points(&DesignSpace::paper_table2(), HOLDOUT);
    let holdout = test.iter().map(|p| response.eval(p)).collect();
    Ok(Reference {
        design,
        test,
        holdout,
    })
}

/// The op: build, then simulate and score the held-out points.
fn op(ctx: &Ctx) -> Result<(BuiltModel, Vec<f64>, ErrorStats), String> {
    let response = response(ctx.seed);
    let builder = RbfModelBuilder::new(
        DesignSpace::paper_table1(),
        build_config(ctx.seed, SAMPLE, ctx.threads),
    );
    let built = builder.build(&response).map_err(|e| e.to_string())?;
    let test = builder.test_points(&DesignSpace::paper_table2(), HOLDOUT);
    let actual: Vec<f64> = test.iter().map(|p| response.eval(p)).collect();
    let stats = built.evaluate(&test, &actual);
    Ok((built, actual, stats))
}

/// The same op with each layer called on its own inside a span.
fn traced_op(
    ctx: &Ctx,
    t: &mut Tracer,
    id: &str,
    reference: &Reference,
) -> Result<(BuiltModel, Vec<f64>, ErrorStats), String> {
    let space = DesignSpace::paper_table1();
    let builder = RbfModelBuilder::new(space.clone(), build_config(ctx.seed, SAMPLE, ctx.threads));
    t.span("op", id, |t| {
        let (design, disc) = t
            .span("sampling.select", id, |_| builder.select_sample())
            .map_err(|e| e.to_string())?;
        let responses = layers::sim_batch(t, id, &space, &design, ctx.seed, INSTRUCTIONS)?;
        let built = t
            .span("core.fit", id, |_| builder.fit(design, responses, disc))
            .map_err(|e| e.to_string())?;
        let mut actual = Vec::with_capacity(HOLDOUT);
        for p in &reference.test {
            actual.push(layers::sim_serial(
                t,
                id,
                &space,
                p,
                ctx.seed,
                INSTRUCTIONS,
            )?);
        }
        let predicted: Vec<f64> = reference
            .test
            .iter()
            .map(|p| t.span("rbf.predict", id, |_| built.predict(p)))
            .collect();
        let stats = ErrorStats::from_predictions(&predicted, &actual);
        Ok((built, actual, stats))
    })
}

pub fn run(ctx: &Ctx, t: &mut Tracer, w: &mut Witness) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut reference = None;
    for _ in 0..if t.enabled() { 1 } else { MCF_SETUP_REPEATS } {
        w.measure()?;
        let start = Instant::now();
        let r = setup(ctx)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(first) = &reference {
            check_same_reference(first, &r)?;
        } else {
            reference = Some(r);
        }
    }
    let reference = reference.ok_or("no set-up ran")?;

    let mut op_ms = Samples::default();
    let mut first_stats: Option<ErrorStats> = None;
    let mut lane_instr = 0.0;
    let run_start = Instant::now();
    let mut n = 0u64;
    while n == 0 || run_start.elapsed() < ctx.run_for() {
        let id = format!("op{n}");
        let start = Instant::now();
        let result = if t.enabled() {
            traced_op(ctx, t, &id, &reference)
        } else {
            op(ctx)
        };
        let elapsed = start.elapsed();
        n += 1;
        report.attempted += 1;
        let (built, actual, stats) = match result {
            Ok(out) => black_box(out),
            Err(e) => {
                report.fail(e);
                continue;
            }
        };
        if let Err(e) = check(ctx, n, &reference, &built, &actual, &stats, &first_stats) {
            report.fail(e);
            continue;
        }
        if t.enabled() {
            let data = Dataset::new(built.design.clone(), built.responses.clone())
                .map_err(|e| e.to_string())?;
            let trainer = build_config(ctx.seed, SAMPLE, ctx.threads)
                .trainer
                .with_threads(ctx.threads);
            layers::extras(t, &id, &data, &trainer, INSTRUCTIONS, ctx.seed, n == 1);
        }
        lane_instr = ((built.design.len() + HOLDOUT) * INSTRUCTIONS) as f64;
        op_ms.push(ms(elapsed));
        first_stats.get_or_insert(stats);
        w.measure()?;
    }

    let stats = first_stats.ok_or("no op passed its checks")?;
    report.accuracy(&stats);
    if t.enabled() {
        layers::report(t, &mut report, ctx.threads);
        report.absent(SERVE_LAYERS);
        return Ok(report);
    }
    let p50 = op_ms.median();
    report.times(w, median_of(&setup_s), &op_ms);
    report.note("sim_minstr_per_s", lane_instr / 1e6 / (p50 / 1e3));
    report.metric("peak_rss_mb", crate::sys::peak_rss_mb("self")?, "MB");
    report.note("op_ms", format!("[{}]", op_ms.summary()));
    report.note("setup_samples", setup_s.len());
    Ok(report)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn check_same_reference(a: &Reference, b: &Reference) -> Result<(), String> {
    if a.design != b.design || a.test != b.test || !bits_eq(&a.holdout, &b.holdout) {
        return Err("set-up is not deterministic: repeats disagree".to_string());
    }
    Ok(())
}

/// The op's output checks: the sample and held-out truth match set-up,
/// two batch lanes (chosen per op) equal their serial simulation bit for
/// bit, and the held-out error is finite and repeats exactly.
fn check(
    ctx: &Ctx,
    n: u64,
    reference: &Reference,
    built: &BuiltModel,
    actual: &[f64],
    stats: &ErrorStats,
    first: &Option<ErrorStats>,
) -> Result<(), String> {
    if !built.quarantined.is_empty() {
        return Err(format!("{} points quarantined", built.quarantined.len()));
    }
    if built.design != reference.design {
        return Err("training sample differs from set-up".to_string());
    }
    if !bits_eq(actual, &reference.holdout) {
        return Err("held-out CPI differs from set-up".to_string());
    }
    let response = response(ctx.seed);
    let lanes = built.design.len() as u64;
    for k in 0..2 {
        let lane = (ctx.seed.wrapping_mul(31).wrapping_add(2 * n + k) % lanes) as usize;
        let serial = response.eval(&built.design[lane]);
        if serial.to_bits() != built.responses[lane].to_bits() {
            return Err(format!(
                "lane {lane}: batch CPI {} != serial CPI {serial}",
                built.responses[lane]
            ));
        }
    }
    if !(stats.mean_pct.is_finite() && stats.max_pct.is_finite()) {
        return Err("held-out error is not finite".to_string());
    }
    if let Some(f) = first {
        if f.mean_pct.to_bits() != stats.mean_pct.to_bits()
            || f.max_pct.to_bits() != stats.max_pct.to_bits()
        {
            return Err("held-out error changed between ops".to_string());
        }
    }
    Ok(())
}

pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
