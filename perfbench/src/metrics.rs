//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json`; the tests
//! hold the two in step and check every name against the charset the
//! result format allows.

use std::process::ExitCode;
use std::sync::atomic::Ordering;

use serde_json::{json, Map, Value};

use crate::timed::per;
use crate::workloads::{Kind, Layers, Outcome, PRIORITIES};

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports all of them. `batch_ops_per_s` and the simulated `sim_*`
/// metrics are printed too, but they are not in the result object: they
/// move with the seed by more than any bound the result format allows
/// (a `lifecycle-colo` seed can cost three times another, and a sweep's
/// wall time carries its costliest seed in full), and the byte-for-byte
/// output checks already hold the `sim_*` metrics fixed.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not run reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("ce-faas.keepalive.ttl_calls", "count"),
    ("ce-faas.keepalive.ttl_ns_per_call", "ns"),
    ("ce-faas.keepalive.observe_calls", "count"),
    ("ce-faas.keepalive.observe_ns_per_call", "ns"),
    ("ce-faas.keepalive.busy_share", "ratio"),
    ("ce-serve.autoscale.plan_calls", "count"),
    ("ce-serve.autoscale.plan_ns_per_call", "ns"),
    ("ce-serve.qscale.train_s", "s"),
    ("ce-serve.tracezoo.generate_s", "s"),
    ("ce-serve.sim.run_s", "s"),
    ("ce-serve.sim.self_ns_per_request", "ns"),
    ("ce-cluster.admission.calls", "count"),
    ("ce-cluster.admission.ns_per_call", "ns"),
    ("ce-cluster.sim.self_ns_per_epoch", "ns"),
    ("ce-workflow.start_ns_per_job", "ns"),
    ("ce-workflow.step_ns_per_epoch", "ns"),
    ("ce-pareto.profile_calls", "count"),
    ("ce-pareto.profile_ns_per_call", "ns"),
    ("ce-tuning.plan_calls", "count"),
    ("ce-tuning.plan_ns_per_call", "ns"),
    ("ce-tuning.evaluations", "count"),
    ("ce-baselines.siren.start_s", "s"),
    ("ce-lifecycle.priority.calls", "count"),
    ("ce-lifecycle.priority.ns_per_call", "ns"),
    ("ce-lifecycle.sim.run_s.serve-first", "s"),
    ("ce-lifecycle.sim.run_s.train-first", "s"),
    ("ce-lifecycle.sim.run_s.fair-share", "s"),
    ("ce-lifecycle.sim.run_s.deadline", "s"),
    ("ce-lifecycle.sim.self_ns_per_op", "ns"),
    ("ce-lifecycle.probe_panics", "count"),
    ("ce-faas.warm_hit_ratio", "ratio"),
    ("ce-resilience.attempts_per_request", "ratio"),
    ("ce-resilience.hedge_win_ratio", "ratio"),
    ("ce-topo.edge_share", "ratio"),
    ("ce-lifecycle.epoch_useful_ratio", "ratio"),
    ("ce-lifecycle.stalls_per_request", "ratio"),
    ("ce-chaos.recoveries_per_epoch", "ratio"),
    ("rayon.batch_speedup", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The median of `values` (mean of the middle two for an even count;
/// NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `values` (infinite when empty).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Everything one invocation measured and checked.
pub struct Report {
    kind: Kind,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, String, f64)>,
}

impl Report {
    pub fn new(kind: Kind) -> Self {
        Report {
            kind,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts `ops` attempted simulated operations.
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// A panic or a failed check (outputs that differ from their
    /// reference): one failed operation, and the run is not correct.
    pub fn fail(&mut self, msg: &str) {
        println!("FAILED {}: {msg}", self.kind.name());
        self.failed += 1;
        self.correct = false;
    }

    /// Records and prints one metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name.into(), unit.into(), value));
    }

    /// Prints a free-form line about the run.
    pub fn note(&self, text: &str) {
        println!("note {text}");
    }

    /// Prints the result line and picks the exit code: every declared
    /// metric of the mode must be present and finite, and every check
    /// must have passed.
    pub fn finish(mut self, trace: bool) -> ExitCode {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut out = Map::new();
        for (name, unit) in declared {
            match self.metrics.iter().find(|(n, ..)| n == name) {
                Some((_, _, v)) if v.is_finite() => {
                    out.insert((*name).into(), json!({"value": v, "unit": unit}));
                }
                _ if self.correct => self.fail(&format!("metric {name} was not measured")),
                _ => {}
            }
        }
        let line = json!({
            "correct": self.correct,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(out),
        });
        println!("{line}");
        if self.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Records every per-layer metric of a traced run. `runs` traced runs
/// charged `layers`; `run_s` is their summed host run time.
pub fn layer_metrics(
    report: &mut Report,
    layers: &Layers,
    runs: u64,
    outcome: &Outcome,
    run_s: f64,
) {
    let kind = report.kind;
    let per_run = |count: u64| per(count as f64, runs);
    let secs = |ns: u64| ns as f64 / 1e9;
    // Run time outside the decorated policy calls, per simulated op.
    let self_ns = (run_s * 1e9 - layers.decorated_ns() as f64).max(0.0);
    let self_ns_per_op = per(self_ns, outcome.ops * runs);
    let only = |k: Kind, v: f64| if kind == k { v } else { 0.0 };
    let ttl = &layers.keepalive_ttl;
    let observe = &layers.keepalive_observe;
    let mut m: Vec<(&str, f64)> = vec![
        ("ce-faas.keepalive.ttl_calls", per_run(ttl.calls())),
        ("ce-faas.keepalive.ttl_ns_per_call", ttl.ns_per_call()),
        ("ce-faas.keepalive.observe_calls", per_run(observe.calls())),
        (
            "ce-faas.keepalive.observe_ns_per_call",
            observe.ns_per_call(),
        ),
        (
            "ce-faas.keepalive.busy_share",
            (ttl.ns() + observe.ns()) as f64 / (run_s * 1e9),
        ),
        (
            "ce-serve.autoscale.plan_calls",
            per_run(layers.autoscale_plan.calls()),
        ),
        (
            "ce-serve.autoscale.plan_ns_per_call",
            layers.autoscale_plan.ns_per_call(),
        ),
        (
            "ce-serve.qscale.train_s",
            per(secs(layers.qscale_train.ns()), layers.qscale_train.calls()),
        ),
        (
            "ce-serve.tracezoo.generate_s",
            secs(layers.tracezoo_generate.ns()),
        ),
        (
            "ce-serve.sim.run_s",
            only(Kind::ServeZoo, run_s / runs as f64),
        ),
        (
            "ce-serve.sim.self_ns_per_request",
            only(Kind::ServeZoo, self_ns_per_op),
        ),
        (
            "ce-cluster.admission.calls",
            per_run(layers.admission.calls()),
        ),
        (
            "ce-cluster.admission.ns_per_call",
            layers.admission.ns_per_call(),
        ),
        (
            "ce-cluster.sim.self_ns_per_epoch",
            only(Kind::FleetTrain, self_ns_per_op),
        ),
        (
            "ce-workflow.start_ns_per_job",
            layers.workflow_start.ns_per_call(),
        ),
        (
            "ce-workflow.step_ns_per_epoch",
            layers.workflow_step.ns_per_call(),
        ),
        ("ce-pareto.profile_calls", per_run(layers.profile.calls())),
        (
            "ce-pareto.profile_ns_per_call",
            layers.profile.ns_per_call(),
        ),
        ("ce-tuning.plan_calls", layers.tuning_plan.calls() as f64),
        (
            "ce-tuning.plan_ns_per_call",
            layers.tuning_plan.ns_per_call(),
        ),
        (
            "ce-tuning.evaluations",
            layers.tuning_evaluations.load(Ordering::Relaxed) as f64,
        ),
        ("ce-baselines.siren.start_s", secs(layers.siren_start.ns())),
        (
            "ce-lifecycle.priority.calls",
            per_run(layers.priority.calls()),
        ),
        (
            "ce-lifecycle.priority.ns_per_call",
            layers.priority.ns_per_call(),
        ),
        (
            "ce-lifecycle.sim.self_ns_per_op",
            only(Kind::LifecycleColo, self_ns_per_op),
        ),
    ];
    for (policy, ns) in PRIORITIES.iter().zip(&layers.lifecycle_run_ns) {
        let per_run_s = per(secs(ns.load(Ordering::Relaxed)), runs);
        report.metric(&format!("ce-lifecycle.sim.run_s.{policy}"), "s", per_run_s);
    }
    for ratio in [
        "ce-faas.warm_hit_ratio",
        "ce-resilience.attempts_per_request",
        "ce-resilience.hedge_win_ratio",
        "ce-topo.edge_share",
        "ce-lifecycle.epoch_useful_ratio",
        "ce-lifecycle.stalls_per_request",
        "ce-chaos.recoveries_per_epoch",
    ] {
        let r = outcome.ratios.iter().find(|r| r.name == ratio);
        if let Some(r) = r {
            report.note(&format!(
                "{} = {} over {} {}",
                r.name, r.value, r.base, r.base_desc
            ));
        }
        m.push((ratio, r.map_or(0.0, |r| r.value)));
    }
    for (name, value) in m {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("declared per-layer metric");
        report.metric(name, unit, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_fit_the_result_charset() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} for {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        for k in Kind::ALL {
            assert!(name_ok(k.name()));
        }
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let spec: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_owned(),
                        m["unit"].as_str().unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        // Every declared workload is one this benchmark runs;
        // `serve-zoo` and `lifecycle-colo` run by hand only (see
        // README.md).
        let workloads: Vec<Kind> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| Kind::parse(w["name"].as_str().unwrap()).expect("known workload"))
            .collect();
        let by_hand: Vec<Kind> = Kind::ALL
            .into_iter()
            .filter(|k| !workloads.contains(k))
            .collect();
        assert_eq!(by_hand, [Kind::ServeZoo, Kind::LifecycleColo]);
    }
}
