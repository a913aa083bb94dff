//! Traced calls into the layers, shared by the workloads, and the
//! per-layer metrics computed from the spans they leave.
//!
//! A traced op calls the layers' public functions one by one. Calls that
//! the pipeline does not make itself — draining a trace alone, refitting
//! one tree or one grid cell — run outside the op span, so the traced op
//! time stays comparable with the untraced one.

use std::hint::black_box;
use std::time::Instant;

use ppm_core::DesignSpace;
use ppm_rbf::{FittedRbf, RbfTrainer};
use ppm_regtree::{Dataset, RegressionTree};
use ppm_sampling::discrepancy::l2_star;
use ppm_sim::{BatchProcessor, Processor, SimStats};
use ppm_workload::{Benchmark, TraceGenerator};

use crate::stats::median_of;
use crate::trace::Tracer;
use crate::Report;

/// Simulates `design` in one batched pass (what
/// `SimulatorResponse::eval_many` runs), recording the lane-instruction
/// and cycle counts. Returns each lane's CPI.
pub fn sim_batch(
    t: &mut Tracer,
    op: &str,
    space: &DesignSpace,
    design: &[Vec<f64>],
    seed: u64,
    instructions: usize,
) -> Result<Vec<f64>, String> {
    let configs: Vec<_> = design.iter().map(|u| space.to_config(u)).collect();
    let batch = BatchProcessor::new(configs).map_err(|e| format!("batch: {e}"))?;
    let stats = t.span("sim.batch", op, |_| {
        batch.run(TraceGenerator::new(Benchmark::Mcf, seed).take(instructions))
    });
    count_sim(t, op, &stats);
    let lane_instr: u64 = stats.iter().map(|s| s.instructions).sum();
    t.add("batch.lane_instr", op, lane_instr as f64);
    stats
        .iter()
        .map(|s| s.checked_cpi().map_err(|e| format!("batch lane: {e}")))
        .collect()
}

/// Simulates one point serially (what `SimulatorResponse::eval` runs).
pub fn sim_serial(
    t: &mut Tracer,
    op: &str,
    space: &DesignSpace,
    unit: &[f64],
    seed: u64,
    instructions: usize,
) -> Result<f64, String> {
    let config = space.to_config(unit);
    let stats = t.span("sim.serial", op, |_| {
        Processor::new(config).run(TraceGenerator::new(Benchmark::Mcf, seed).take(instructions))
    });
    count_sim(t, op, std::slice::from_ref(&stats));
    t.add("serial.instr", op, stats.instructions as f64);
    stats.checked_cpi().map_err(|e| format!("serial: {e}"))
}

fn count_sim(t: &mut Tracer, op: &str, stats: &[SimStats]) {
    for s in stats {
        t.add("sim.lane_instr", op, s.instructions as f64);
        t.add("sim.cycles", op, s.cycles as f64);
    }
}

/// The layer calls a traced run makes once per op outside the op span:
/// the trace drained alone, `l2_star` of the chosen design, one tree per
/// grid `p_min`, the whole grid, and the winning cell. With `sweep`, also
/// every grid cell serially, for the grid pool's efficiency.
pub fn extras(
    t: &mut Tracer,
    op: &str,
    data: &Dataset,
    trainer: &RbfTrainer,
    instructions: usize,
    seed: u64,
    sweep: bool,
) {
    let id = format!("{op}/extra");
    let drained = t.span("workload.trace", &id, |_| {
        TraceGenerator::new(Benchmark::Mcf, seed)
            .take(instructions)
            .count()
    });
    t.add("workload.instr", &id, drained as f64);
    t.span("sampling.l2star", &id, |_| {
        black_box(l2_star(data.points()))
    });
    let mut tree_ns = Vec::new();
    for &p_min in &trainer.p_min_candidates {
        let start = Instant::now();
        t.span("regtree.fit", &id, |_| {
            black_box(RegressionTree::fit(data, p_min))
        });
        tree_ns.push(start.elapsed().as_nanos() as f64);
    }
    let Ok(win) = t.span("rbf.grid", &id, |_| trainer.fit(data)) else {
        return;
    };
    t.add("rbf.centers", &id, win.network.num_centers() as f64);
    t.add(
        "rbf.cells",
        &id,
        (trainer.p_min_candidates.len() * trainer.alpha_candidates.len()) as f64,
    );
    let cell: FittedRbf = t.span("rbf.cell", &id, |_| {
        trainer.fit_fixed(data, win.p_min, win.alpha)
    });
    black_box(cell);
    if sweep {
        // Serial work of the grid: each tree once, plus each cell's
        // subset selection (a fit_fixed call minus its own tree fit).
        let mut serial_ns: f64 = tree_ns.iter().sum();
        for (pi, &p_min) in trainer.p_min_candidates.iter().enumerate() {
            for &alpha in &trainer.alpha_candidates {
                let start = Instant::now();
                black_box(trainer.fit_fixed(data, p_min, alpha));
                serial_ns += (start.elapsed().as_nanos() as f64 - tree_ns[pi]).max(0.0);
            }
        }
        t.add("exec.serial_grid_ns", &id, serial_ns);
    }
}

/// Per-layer metrics from the spans and counts of a traced run.
/// `threads` is the training pool's width.
pub fn report(t: &Tracer, report: &mut Report, threads: usize) {
    let ms = |ns: f64| ns / 1e6;
    let us = |ns: f64| ns / 1e3;
    let ops = t.durations("op");
    let op_total: f64 = ops.iter().sum();
    report.metric("op.traced_p50_ms", ms(median_of(&ops)), "ms");
    let share = |v: f64| if op_total > 0.0 { v / op_total } else { 0.0 };
    report.metric(
        "op.sim_share",
        share(t.total_within("sim.batch", "op") + t.total_within("sim.serial", "op")),
        "ratio",
    );
    report.metric(
        "op.fit_share",
        share(t.total_within("core.fit", "op")),
        "ratio",
    );
    // Each layer's self time within ops and its share of op time.
    for name in t.names() {
        let self_ns = t.self_within(name, "op");
        if self_ns > 0.0 {
            report.note(
                &format!("self.{name}"),
                format!(
                    "{:.3}ms/{:.4}",
                    ms(self_ns) / ops.len() as f64,
                    share(self_ns)
                ),
            );
        }
    }

    // Simulation counts per op where ops simulate, else per set-up.
    let lane_by = t.counts_by_op("sim.lane_instr");
    let cycles_by = t.counts_by_op("sim.cycles");
    let in_ops: Vec<f64> = lane_by
        .iter()
        .filter(|(k, _)| k.starts_with("op"))
        .map(|(_, v)| *v)
        .collect();
    report.metric("op.sim_lane_instr", median_of(&in_ops), "count");
    let phase = if in_ops.is_empty() { "setup" } else { "op" };
    let first = |by: &std::collections::BTreeMap<String, f64>| {
        by.iter()
            .find(|(k, _)| k.starts_with(phase))
            .map_or(0.0, |(_, v)| *v)
    };
    report.metric("sim.lane_instr", first(&lane_by), "count");
    report.metric("sim.cycles_sum", first(&cycles_by), "count");

    let instr = t
        .counts_by_op("workload.instr")
        .values()
        .copied()
        .next()
        .unwrap_or(1.0);
    report.metric(
        "workload.trace_ns_per_instr",
        median_of(&t.durations("workload.trace")) / instr,
        "ns",
    );
    let batch = t.durations("sim.batch");
    report.metric("sim.batch_ms", ms(median_of(&batch)), "ms");
    let batch_instr: f64 = t.counts_by_op("batch.lane_instr").values().sum();
    report.metric(
        "sim.batch_ns_per_lane_instr",
        if batch_instr > 0.0 {
            batch.iter().sum::<f64>() / batch_instr
        } else {
            0.0
        },
        "ns",
    );
    let serial_instr: f64 = t.counts_by_op("serial.instr").values().sum();
    report.metric(
        "sim.serial_ns_per_instr",
        if serial_instr > 0.0 {
            t.total_ns("sim.serial") / serial_instr
        } else {
            0.0
        },
        "ns",
    );
    let holdout: Vec<f64> = per_op_totals(t, "sim.serial");
    report.metric("sim.holdout_ms", ms(median_of(&holdout)), "ms");

    report.metric(
        "sampling.select_ms",
        ms(median_of(&t.durations("sampling.select"))),
        "ms",
    );
    report.metric(
        "sampling.l2star_us",
        us(median_of(&t.durations("sampling.l2star"))),
        "us",
    );
    report.metric(
        "regtree.fit_ms",
        ms(median_of(&t.durations("regtree.fit"))),
        "ms",
    );
    let grid = median_of(&t.durations("rbf.grid"));
    report.metric("rbf.grid_ms", ms(grid), "ms");
    report.metric("rbf.cell_ms", ms(median_of(&t.durations("rbf.cell"))), "ms");
    let first_count = |name: &str| t.counts_by_op(name).values().copied().next().unwrap_or(0.0);
    report.metric("rbf.cells", first_count("rbf.cells"), "count");
    report.metric("rbf.centers", first_count("rbf.centers"), "count");
    let serial_grid = first_count("exec.serial_grid_ns");
    let first_grid = t.durations("rbf.grid").first().copied().unwrap_or(0.0);
    report.metric(
        "exec.grid_efficiency",
        if first_grid > 0.0 {
            serial_grid / first_grid / threads as f64
        } else {
            0.0
        },
        "ratio",
    );
    report.metric(
        "rbf.predict_us",
        us(median_of(&t.durations("rbf.predict"))),
        "us",
    );
}

/// The total duration of spans named `name` per op or set-up (extra
/// calls excluded).
fn per_op_totals(t: &Tracer, name: &str) -> Vec<f64> {
    let mut by_op = std::collections::BTreeMap::<&str, f64>::new();
    for s in t.spans_named(name) {
        if !s.op.contains('/') {
            *by_op.entry(s.op.as_str()).or_insert(0.0) += s.dur_ns() as f64;
        }
    }
    by_op.into_values().collect()
}
