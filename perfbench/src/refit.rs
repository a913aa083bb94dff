//! `refit-200`: the model-fitting workload. One op is `select_sample` +
//! `RbfModelBuilder::fit` on cached responses + `evaluate` on the test
//! set: the CPU work of `ppm build --resume` over a full checkpoint,
//! without the journal I/O.
//!
//! Set-up simulates, once, a 200-point sample (the paper's largest) and
//! a 50-point Table-2 test set, and fits the reference model. The sample
//! is the one `ppm build` draws with its default seed, simulated on the
//! default trace, in every run: the fit's cost depends on the data (the
//! tree and the centers it selects) by ±20% across seeds, so a seeded
//! sample made the seed, not the program, set the run-to-run spread. The
//! seed draws the test points.

use std::hint::black_box;
use std::time::Instant;

use ppm_core::{BuiltModel, DesignSpace, ErrorStats, RbfModelBuilder, Response};
use ppm_regtree::Dataset;

use crate::layers;
use crate::mcf::{bits_eq, build_config, response, INSTRUCTIONS, SETUP_REPEATS};
use crate::stats::{median_of, Samples};
use crate::trace::Tracer;
use crate::witness::Witness;
use crate::{Ctx, Report, SERVE_LAYERS};

/// Training sample size: the paper's largest.
const SAMPLE: usize = 200;
/// The paper's test-set size.
const TEST: usize = 50;
/// The `ppm build` default seed: it draws the sample and the trace.
const TRAIN_SEED: u64 = 1;

struct Setup {
    design: Vec<Vec<f64>>,
    responses: Vec<f64>,
    test: Vec<Vec<f64>>,
    test_actual: Vec<f64>,
    predicted: Vec<f64>,
    stats: ErrorStats,
    /// Host seconds spent simulating.
    sim_s: f64,
}

fn builder(ctx: &Ctx) -> RbfModelBuilder {
    RbfModelBuilder::new(
        DesignSpace::paper_table1(),
        build_config(TRAIN_SEED, SAMPLE, ctx.threads),
    )
}

/// One batched simulation pass, as `ppm build` runs it.
fn simulate(response: &impl Response, points: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    let values = response
        .eval_many(points)
        .ok_or("the batched simulator declined the sample")?;
    if values.iter().any(|v| !v.is_finite()) {
        return Err("a simulated CPI is not finite".to_string());
    }
    Ok(values)
}

/// Simulates `points` as two batches, one per CPU, started together;
/// traced runs simulate them one after another inside spans. The batched
/// engine gives every lane the same statistics in any batch.
fn simulate_halves(ctx: &Ctx, t: &mut Tracer, points: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    let (lo, hi) = points.split_at(points.len() / 2);
    let (mut y, y_hi) = if t.enabled() {
        let space = DesignSpace::paper_table1();
        (
            layers::sim_batch(t, "setup0", &space, lo, TRAIN_SEED, INSTRUCTIONS)?,
            layers::sim_batch(t, "setup0", &space, hi, TRAIN_SEED, INSTRUCTIONS)?,
        )
    } else if ctx.threads >= 2 {
        let response = response(TRAIN_SEED);
        let (first, second) = std::thread::scope(|s| {
            let other = s.spawn(|| simulate(&response, hi));
            let first = simulate(&response, lo);
            let second = other
                .join()
                .unwrap_or_else(|_| Err("simulation panicked".to_string()));
            (first, second)
        });
        (first?, second?)
    } else {
        let response = response(TRAIN_SEED);
        (simulate(&response, lo)?, simulate(&response, hi)?)
    };
    y.extend(y_hi);
    Ok(y)
}

fn setup(ctx: &Ctx, t: &mut Tracer) -> Result<Setup, String> {
    let builder = builder(ctx);
    // The seed draws the test points, in the training space's units.
    let test = RbfModelBuilder::new(
        DesignSpace::paper_table1(),
        build_config(ctx.seed, SAMPLE, 1),
    )
    .test_points(&DesignSpace::paper_table2(), TEST);
    t.span("setup", "setup0", |t| {
        let id = "setup0";
        let (design, disc) = t
            .span("sampling.select", id, |_| builder.select_sample())
            .map_err(|e| e.to_string())?;
        let points: Vec<Vec<f64>> = design.iter().chain(&test).cloned().collect();
        let sim_start = Instant::now();
        let mut responses = simulate_halves(ctx, t, &points)?;
        let sim_s = sim_start.elapsed().as_secs_f64();
        let test_actual = responses.split_off(design.len());
        let model = t
            .span("core.fit", id, |_| {
                builder.fit(design.clone(), responses.clone(), disc)
            })
            .map_err(|e| e.to_string())?;
        let predicted: Vec<f64> = test
            .iter()
            .map(|p| t.span("rbf.predict", id, |_| model.predict(p)))
            .collect();
        let stats = ErrorStats::from_predictions(&predicted, &test_actual);
        Ok(Setup {
            design,
            responses,
            test,
            test_actual,
            predicted,
            stats,
            sim_s,
        })
    })
}

fn op(
    builder: &RbfModelBuilder,
    s: &Setup,
    t: &mut Tracer,
    id: &str,
) -> Result<(BuiltModel, ErrorStats), String> {
    t.span("op", id, |t| {
        let (design, disc) = t
            .span("sampling.select", id, |_| builder.select_sample())
            .map_err(|e| e.to_string())?;
        if design != s.design {
            return Err("training sample differs from set-up".to_string());
        }
        let built = t
            .span("core.fit", id, |_| {
                builder.fit(design, s.responses.clone(), disc)
            })
            .map_err(|e| e.to_string())?;
        let stats = if t.enabled() {
            let predicted: Vec<f64> = s
                .test
                .iter()
                .map(|p| t.span("rbf.predict", id, |_| built.predict(p)))
                .collect();
            ErrorStats::from_predictions(&predicted, &s.test_actual)
        } else {
            built.evaluate(&s.test, &s.test_actual)
        };
        Ok((built, stats))
    })
}

pub fn run(ctx: &Ctx, t: &mut Tracer, w: &mut Witness) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut sim_s = Vec::new();
    let mut reference: Option<Setup> = None;
    for _ in 0..if t.enabled() { 1 } else { SETUP_REPEATS } {
        w.measure()?;
        let start = Instant::now();
        let s = setup(ctx, t)?;
        setup_s.push(start.elapsed().as_secs_f64());
        sim_s.push(s.sim_s);
        if let Some(first) = &reference {
            if !bits_eq(&first.responses, &s.responses) || !bits_eq(&first.predicted, &s.predicted)
            {
                return Err("set-up is not deterministic: repeats disagree".to_string());
            }
        } else {
            reference = Some(s);
        }
    }
    let s = reference.ok_or("no set-up ran")?;
    let builder = builder(ctx);

    let mut op_ms = Samples::default();
    let run_start = Instant::now();
    let mut n = 0u64;
    while n == 0 || run_start.elapsed() < ctx.run_for() {
        let id = format!("op{n}");
        let start = Instant::now();
        let result = op(&builder, &s, t, &id);
        let elapsed = start.elapsed();
        n += 1;
        report.attempted += 1;
        let (built, stats) = match result {
            Ok(out) => black_box(out),
            Err(e) => {
                report.fail(e);
                continue;
            }
        };
        let predicted: Vec<f64> = s.test.iter().map(|p| built.predict(p)).collect();
        if !bits_eq(&predicted, &s.predicted) {
            report.fail("refitted model predicts differently from the set-up model");
            continue;
        }
        if stats.mean_pct.to_bits() != s.stats.mean_pct.to_bits() {
            report.fail("test error differs from the set-up model's");
            continue;
        }
        if t.enabled() {
            let data = Dataset::new(built.design.clone(), built.responses.clone())
                .map_err(|e| e.to_string())?;
            let trainer = builder.config().trainer.clone().with_threads(ctx.threads);
            layers::extras(t, &id, &data, &trainer, INSTRUCTIONS, TRAIN_SEED, n == 1);
        }
        op_ms.push(elapsed.as_secs_f64() * 1e3);
        w.measure()?;
    }

    report.accuracy(&s.stats);
    if t.enabled() {
        layers::report(t, &mut report, ctx.threads);
        report.absent(SERVE_LAYERS);
        return Ok(report);
    }
    let lane_instr = ((s.design.len() + s.test.len()) * INSTRUCTIONS) as f64;
    report.times(w, median_of(&setup_s), &op_ms);
    report.metric("peak_rss_mb", crate::sys::peak_rss_mb("self")?, "MB");
    report.note("sim_minstr_per_s", lane_instr / 1e6 / median_of(&sim_s));
    report.note("op_ms", format!("[{}]", op_ms.summary()));
    report.note("setup_samples", setup_s.len());
    Ok(report)
}
