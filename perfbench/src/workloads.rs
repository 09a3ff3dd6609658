//! The four benchmark workloads, each split into a set-up step (input
//! generation, policy training, constraint profiling) and the measured
//! simulation.
//!
//! Every workload is built only through the simulators' public APIs.
//! With a [`Layers`] recorder attached, the policies a simulator accepts
//! in its constructor are wrapped in the timing decorators of
//! [`crate::timed`] and the public entry points are timed from outside;
//! the simulated outputs must not change.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ce_chaos::FaultSchedule;
use ce_cluster::{ClusterSim, ClusterSpec, FleetSpec};
use ce_lifecycle::{LifecycleSim, LifecycleSpec, TenantSpec};
use ce_models::{AllocationSpace, Environment, Workload};
use ce_obs::Registry;
use ce_pareto::{ParetoProfiler, Profile};
use ce_resilience::{BreakerSpec, HedgePolicy, ResilienceSpec, RetryPolicy};
use ce_serve::{ArrivalModel, ServeSim, ServeSpec};
use ce_sim_core::SimRng;
use ce_storage::StorageKind;
use ce_tuning::{PartitionPlan, ShaSpec};
use ce_workflow::{Constraint, Method, RecoveryPolicy, TrainingExecution, TrainingJob, TuningJob};
use serde_json::{json, Value};

use crate::timed::{per, Meter, TimedAdmission, TimedAutoscaler, TimedKeepAlive, TimedPriority};

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeZoo,
    FleetTrain,
    LifecycleColo,
    PaperMatrix,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ServeZoo,
        Kind::FleetTrain,
        Kind::LifecycleColo,
        Kind::PaperMatrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeZoo => "serve-zoo",
            Kind::FleetTrain => "fleet-train",
            Kind::LifecycleColo => "lifecycle-colo",
            Kind::PaperMatrix => "paper-matrix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// FNV-1a digest of the report JSON at the default seed (42).
    pub fn reference_digest(self) -> &'static str {
        match self {
            Kind::ServeZoo => "9fd709c88e703a98",
            Kind::FleetTrain => "2a1872fa4daaacc4",
            Kind::LifecycleColo => "6b8ddf56495d99c7",
            Kind::PaperMatrix => "14c14819dcf271d2",
        }
    }
}

/// The lifecycle priority policies, swept on the same traffic.
pub const PRIORITIES: [&str; 4] = ["serve-first", "train-first", "fair-share", "deadline"];

/// Host-time meters a traced run charges, one per layer boundary.
#[derive(Default)]
pub struct Layers {
    pub keepalive_ttl: Arc<Meter>,
    pub keepalive_observe: Arc<Meter>,
    pub autoscale_plan: Arc<Meter>,
    pub admission: Arc<Meter>,
    pub priority: Arc<Meter>,
    pub qscale_train: Meter,
    pub tracezoo_generate: Meter,
    pub profile: Meter,
    pub tuning_plan: Meter,
    pub tuning_evaluations: AtomicU64,
    pub workflow_start: Meter,
    pub workflow_step: Meter,
    pub siren_start: Meter,
    /// Host nanoseconds of each lifecycle policy's run, in
    /// [`PRIORITIES`] order.
    pub lifecycle_run_ns: [AtomicU64; 4],
}

impl Layers {
    /// Host nanoseconds spent inside the decorated policy calls.
    pub fn decorated_ns(&self) -> u64 {
        self.keepalive_ttl.ns()
            + self.keepalive_observe.ns()
            + self.autoscale_plan.ns()
            + self.admission.ns()
            + self.priority.ns()
    }
}

/// A work or waste ratio and the count it is taken over.
pub struct Ratio {
    pub name: &'static str,
    pub value: f64,
    pub base: u64,
    pub base_desc: &'static str,
}

/// What one simulation produced.
pub struct Outcome {
    /// The simulated outputs: the digest and equality checks compare
    /// this JSON text byte for byte.
    pub report: String,
    /// Simulated operations (requests, epochs or job cells).
    pub ops: u64,
    /// Every simulated metric that applies: (name, unit, value).
    pub sim: Vec<(&'static str, &'static str, f64)>,
    pub ratios: Vec<Ratio>,
}

/// A workload's generated inputs, ready to simulate.
pub enum Prepared {
    Serve(Box<ServeSim>),
    Fleet(Box<ClusterSim>, Registry),
    Lifecycle(Vec<LifecycleSim>),
    Matrix(Vec<Cell>),
}

/// One paper-matrix job cell.
pub enum Cell {
    Tuning(Method, TuningJob),
    Training(Method, TrainingJob),
}

fn chaos(spec: &str) -> FaultSchedule {
    FaultSchedule::parse(spec).expect("benchmark chaos spec parses")
}

/// Simulated seconds of `serve-zoo` traffic: a quarter hour, so each
/// invocation fits many fresh-process runs.
const SERVE_DURATION_S: f64 = 900.0;

fn serve_spec(seed: u64) -> ServeSpec {
    let zoo = ce_serve::parse_zoo("mixed").expect("zoo preset");
    let resilience = ResilienceSpec {
        timeout_ms: Some(2000.0),
        retry: Some(RetryPolicy::new(2)),
        retry_budget: None,
        hedge: Some(HedgePolicy::parse("p95").expect("hedge spec")),
        breaker: Some(BreakerSpec::new(0.5)),
        brownout: None,
    };
    ServeSpec::new(ArrivalModel::Zoo { spec: zoo }, SERVE_DURATION_S, seed)
        .with_slo_ms(500.0)
        .with_chaos(chaos("crash:0.01@0..inf"))
        .with_resilience(resilience)
        .with_topology(ce_topo::Topology::edge_cloud())
        .with_placement("workload-aware")
}

fn fleet_spec(seed: u64) -> ClusterSpec {
    ClusterSpec::new(FleetSpec::poisson(2000, 120.0, seed), 400)
        .with_job_cap(8)
        .with_chaos(chaos("crash:0.05@0..inf;outage:s3@1800..3600"))
        .with_recovery(RecoveryPolicy::by_name("checkpoint").expect("recovery policy"))
}

/// The lifecycle traffic; `duration_s` is 1200 for the measured sweep
/// and 3600 for the probe.
pub fn lifecycle_spec(seed: u64, duration_s: f64) -> LifecycleSpec {
    LifecycleSpec::new(8, duration_s, seed)
        .with_quota(32)
        .with_job_cap(8)
        .with_rps(4.0)
        .with_drift_mean_s(150.0)
}

/// Generates `kind`'s inputs for `seed`.
pub fn prepare(kind: Kind, seed: u64, layers: Option<&Layers>) -> Prepared {
    match kind {
        Kind::ServeZoo => {
            let train = || ce_serve::parse_autoscaler("qlearn").expect("qlearn");
            let mut autoscaler = match layers {
                Some(l) => l.qscale_train.time(train),
                None => train(),
            };
            let mut keep_alive = ce_faas::parse_keep_alive("histogram").expect("histogram");
            if let Some(l) = layers {
                autoscaler = Box::new(TimedAutoscaler {
                    inner: autoscaler,
                    plan: Arc::clone(&l.autoscale_plan),
                });
                keep_alive = Box::new(TimedKeepAlive {
                    inner: keep_alive,
                    ttl: Arc::clone(&l.keepalive_ttl),
                    observe: Arc::clone(&l.keepalive_observe),
                });
            }
            let sim = ServeSim::new(serve_spec(seed), autoscaler, keep_alive);
            Prepared::Serve(Box::new(sim.with_obs(&Registry::new())))
        }
        Kind::FleetTrain => {
            let spec = fleet_spec(seed);
            // Job-spec generation (profiling the job zoo on first use);
            // the simulator regenerates the same specs inside `run`.
            spec.fleet.generate();
            let mut policy = ce_cluster::policy_by_name("edf").expect("edf policy");
            if let Some(l) = layers {
                policy = Box::new(TimedAdmission {
                    inner: policy,
                    meter: Arc::clone(&l.admission),
                });
            }
            let obs = Registry::new();
            Prepared::Fleet(Box::new(ClusterSim::new(spec, policy).with_obs(&obs)), obs)
        }
        Kind::LifecycleColo => {
            let sims = PRIORITIES
                .iter()
                .map(|name| {
                    let mut policy = ce_lifecycle::priority_by_name(name).expect("priority");
                    if let Some(l) = layers {
                        policy = Box::new(TimedPriority {
                            inner: policy,
                            meter: Arc::clone(&l.priority),
                        });
                    }
                    LifecycleSim::new(lifecycle_spec(seed, 1200.0), policy)
                        .with_obs(&Registry::new())
                })
                .collect();
            Prepared::Lifecycle(sims)
        }
        Kind::PaperMatrix => Prepared::Matrix(matrix_cells(seed, layers)),
    }
}

/// Runs the simulation `prepared` holds.
pub fn execute(prepared: Prepared, layers: Option<&Layers>) -> Outcome {
    match prepared {
        Prepared::Serve(sim) => serve_outcome(sim.run()),
        Prepared::Fleet(sim, obs) => fleet_outcome(sim.run(), &obs),
        Prepared::Lifecycle(sims) => {
            let reports: Vec<_> = sims
                .into_iter()
                .enumerate()
                .map(|(i, sim)| {
                    let start = Instant::now();
                    let report = sim.run();
                    if let Some(l) = layers {
                        l.lifecycle_run_ns[i]
                            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    report
                })
                .collect();
            lifecycle_outcome(&reports)
        }
        Prepared::Matrix(cells) => matrix_outcome(cells),
    }
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("report serializes")
}

fn pct(part: u64, whole: u64) -> f64 {
    per(part as f64 * 100.0, whole)
}

fn ratio(part: u64, whole: u64) -> f64 {
    per(part as f64, whole)
}

/// The `q`-quantile of `values` (nearest rank on the sorted values).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn serve_outcome(r: ce_serve::ServeReport) -> Outcome {
    let edge = r
        .pools
        .iter()
        .find(|p| p.name == "edge")
        .map_or(0, |p| p.requests);
    Outcome {
        report: to_json(&r),
        ops: r.requests,
        sim: vec![
            ("sim_p95_ms", "ms", r.p95_ms),
            ("sim_slo_violation_pct", "%", r.violation_rate() * 100.0),
            ("sim_total_usd", "USD", r.dollars),
            ("sim_usd_per_1m_requests", "USD", r.cost_per_million()),
        ],
        ratios: vec![
            Ratio {
                name: "ce-faas.warm_hit_ratio",
                value: ratio(r.warm_starts, r.warm_starts + r.cold_starts),
                base: r.warm_starts + r.cold_starts,
                base_desc: "instance starts",
            },
            Ratio {
                name: "ce-resilience.attempts_per_request",
                value: ratio(r.attempts, r.requests),
                base: r.requests,
                base_desc: "requests",
            },
            Ratio {
                name: "ce-resilience.hedge_win_ratio",
                value: ratio(r.hedge_wins, r.hedges),
                base: r.hedges,
                base_desc: "hedges",
            },
            Ratio {
                name: "ce-topo.edge_share",
                value: ratio(edge, r.requests),
                base: r.requests,
                base_desc: "requests",
            },
        ],
    }
}

fn fleet_outcome(r: ce_cluster::FleetReport, obs: &Registry) -> Outcome {
    let epochs: u64 = r.jobs.iter().map(|j| u64::from(j.epochs)).sum();
    let mut jct_ms: Vec<f64> = r
        .jobs
        .iter()
        .map(|j| (j.finish_s - j.arrival_s) * 1000.0)
        .collect();
    let mean_jct_s = jct_ms.iter().sum::<f64>() / 1000.0 / jct_ms.len().max(1) as f64;
    let misses = r.jobs.iter().filter(|j| j.qos_violated).count() as u64;
    let recoveries = obs.counter_value("recovery.retries") + obs.counter_value("recovery.restores");
    Outcome {
        report: to_json(&r),
        ops: epochs,
        sim: vec![
            ("sim_p95_ms", "ms", quantile(&mut jct_ms, 0.95)),
            ("sim_slo_violation_pct", "%", r.qos_violation_rate() * 100.0),
            ("sim_total_usd", "USD", r.fleet_dollars),
            (
                "sim_deadline_miss_pct",
                "%",
                pct(misses, r.jobs.len() as u64),
            ),
            ("sim_mean_jct_s", "s", mean_jct_s),
        ],
        ratios: vec![Ratio {
            name: "ce-chaos.recoveries_per_epoch",
            value: ratio(recoveries, epochs),
            base: epochs,
            base_desc: "epochs",
        }],
    }
}

fn lifecycle_outcome(reports: &[ce_lifecycle::LifecycleReport]) -> Outcome {
    let sum =
        |f: &dyn Fn(&ce_lifecycle::LifecycleReport) -> u64| -> u64 { reports.iter().map(f).sum() };
    let tenant_sum = |f: fn(&ce_lifecycle::TenantOutcome) -> u64| -> u64 {
        reports.iter().flat_map(|r| &r.tenants).map(f).sum()
    };
    let requests = sum(&|r| r.requests());
    let epochs = tenant_sum(|t| t.epochs);
    let preempted = sum(&|r| r.preemptions());
    let starts = tenant_sum(|t| t.warm_starts + t.cold_starts);
    let serve_usd: f64 = reports.iter().map(|r| r.serve_dollars()).sum();
    let mut p95: Vec<f64> = reports.iter().map(|r| r.p95_ms).collect();
    p95.sort_by(f64::total_cmp);
    let median_p95 = (p95[1] + p95[2]) / 2.0;
    let runs = sum(&|r| r.train_jobs());
    Outcome {
        report: to_json(&reports),
        ops: requests + epochs,
        sim: vec![
            ("sim_p95_ms", "ms", median_p95),
            (
                "sim_slo_violation_pct",
                "%",
                pct(sum(&|r| r.serve_violations()), requests),
            ),
            (
                "sim_total_usd",
                "USD",
                reports.iter().map(|r| r.total_dollars()).sum(),
            ),
            (
                "sim_usd_per_1m_requests",
                "USD",
                per(serve_usd * 1e6, requests),
            ),
            (
                "sim_deadline_miss_pct",
                "%",
                pct(sum(&|r| r.train_misses()), runs),
            ),
        ],
        ratios: vec![
            Ratio {
                name: "ce-faas.warm_hit_ratio",
                value: ratio(tenant_sum(|t| t.warm_starts), starts),
                base: starts,
                base_desc: "instance starts",
            },
            Ratio {
                name: "ce-lifecycle.epoch_useful_ratio",
                value: ratio(epochs.saturating_sub(preempted), epochs),
                base: epochs,
                base_desc: "epochs dispatched",
            },
            Ratio {
                name: "ce-lifecycle.stalls_per_request",
                value: ratio(sum(&|r| r.quota_stalls), requests),
                base: requests,
                base_desc: "requests",
            },
        ],
    }
}

// ---------------------------------------------------------------------
// paper-matrix
// ---------------------------------------------------------------------

/// Profiles `w` over `space`, charging the call to the pareto meter.
fn profile(
    env: &Environment,
    w: &Workload,
    space: AllocationSpace,
    layers: Option<&Layers>,
) -> Profile {
    let run = || {
        ParetoProfiler::new(env)
            .with_space(space)
            .profile_workload(w)
    };
    match layers {
        Some(l) => l.profile.time(run),
        None => run(),
    }
}

/// The unrestricted grid and each storage restriction the compared
/// methods use, so every method has a feasible reference constraint.
fn method_profiles(env: &Environment, w: &Workload, layers: Option<&Layers>) -> Vec<Profile> {
    [
        AllocationSpace::aws_default(),
        AllocationSpace::aws_default().with_only_storage(StorageKind::S3),
        AllocationSpace::aws_default().with_only_storage(StorageKind::VmPs),
    ]
    .into_iter()
    .map(|s| profile(env, w, s, layers))
    .collect()
}

const BUDGET_SCALE: f64 = 2.0;
const QOS_SCALE: f64 = 1.25;

/// Builds the job cells with the reference constraints of the
/// reproduction's figure harness: budgets at 2× the costliest method's
/// cheapest plan, deadlines at 1.25× the fastest (tuning) or slowest
/// mid-boundary (training) plan.
fn matrix_cells(seed: u64, layers: Option<&Layers>) -> Vec<Cell> {
    let env = Environment::aws_default();
    let sha = ShaSpec::paper_default();
    let training_methods = [
        Method::CeScaling,
        Method::LambdaMl,
        Method::Siren,
        Method::Cirrus,
    ];
    let mut cells = Vec::new();
    for w in Workload::paper_matrix() {
        let profiles = method_profiles(&env, &w, layers);
        let full = profile(&env, &w, AllocationSpace::aws_default(), layers);
        let tuning_budget = profiles
            .iter()
            .map(|p| PartitionPlan::uniform(*p.cheapest().expect("nonempty"), sha).cost())
            .fold(0.0, f64::max)
            * BUDGET_SCALE;
        let tuning_deadline = full
            .points()
            .iter()
            .map(|p| PartitionPlan::uniform(*p, sha).jct(env.max_concurrency))
            .fold(f64::INFINITY, f64::min)
            * QOS_SCALE;
        let curve = ce_ml::curve::CurveParams::for_workload(w.model.family, &w.dataset.name);
        let target = ce_ml::curve::table4_target(w.model.family, &w.dataset.name);
        let epochs = curve.mean_epochs_to(target).expect("target reachable");
        let mid = |p: &Profile| {
            let boundary = p.boundary();
            *boundary[boundary.len() / 2]
        };
        let training_budget = profiles
            .iter()
            .map(|p| mid(p).cost_usd())
            .fold(0.0, f64::max)
            * epochs
            * BUDGET_SCALE;
        let training_deadline =
            profiles.iter().map(|p| mid(p).time_s()).fold(0.0, f64::max) * epochs * QOS_SCALE;
        for constraint in [
            Constraint::Budget(tuning_budget),
            Constraint::Deadline(tuning_deadline),
        ] {
            for method in Method::TUNING {
                let job = TuningJob::new(w.clone(), sha, constraint)
                    .with_seed(seed)
                    .with_obs(&Registry::new());
                cells.push(Cell::Tuning(method, job));
            }
        }
        for constraint in [
            Constraint::Budget(training_budget),
            Constraint::Deadline(training_deadline),
        ] {
            for method in training_methods {
                let job = TrainingJob::new(w.clone(), constraint)
                    .with_seed(seed)
                    .with_obs(&Registry::new());
                cells.push(Cell::Training(method, job));
            }
        }
    }
    cells
}

fn matrix_outcome(cells: Vec<Cell>) -> Outcome {
    let mut rows = Vec::with_capacity(cells.len());
    // (workload, CE JCT, best baseline JCT) per budget-mode tuning row.
    let mut tuning_gain: Vec<(String, f64, f64)> = Vec::new();
    let mut jct_ms = Vec::new();
    let (mut usd, mut violated, mut deadline_cells, mut deadline_misses) = (0.0, 0, 0, 0);
    for cell in cells {
        let (kind, method, workload, constraint, report) = match &cell {
            Cell::Tuning(m, job) => {
                let r = job.run(*m).expect("tuning cell runs");
                let label = job.workload.label();
                if let Constraint::Budget(_) = job.constraint {
                    if !tuning_gain.iter().any(|(w, ..)| *w == label) {
                        tuning_gain.push((label.clone(), f64::NAN, f64::INFINITY));
                    }
                    let row = tuning_gain
                        .iter_mut()
                        .find(|(w, ..)| *w == label)
                        .expect("row");
                    if *m == Method::CeScaling {
                        row.1 = r.jct_s;
                    } else {
                        row.2 = row.2.min(r.jct_s);
                    }
                }
                let v = serde_json::to_value(&r);
                ("tuning", *m, label, job.constraint, v)
            }
            Cell::Training(m, job) => {
                let r = job.run(*m).expect("training cell runs");
                let v = serde_json::to_value(&r);
                ("training", *m, job.workload.label(), job.constraint, v)
            }
        };
        let jct = report["jct_s"].as_f64().expect("jct_s");
        let cost = report["cost_usd"].as_f64().expect("cost_usd");
        let qos = report["qos_violated"] == true;
        jct_ms.push(jct * 1000.0);
        usd += cost;
        violated += u64::from(qos || report["budget_violated"] == true);
        if let Constraint::Deadline(_) = constraint {
            deadline_cells += 1;
            deadline_misses += u64::from(qos);
        }
        rows.push(json!({
            "kind": kind,
            "workload": workload,
            "method": method.label(),
            "constraint": format!("{constraint:?}"),
            "report": report,
        }));
    }
    let cells = rows.len() as u64;
    let mean_jct_s = jct_ms.iter().sum::<f64>() / 1000.0 / jct_ms.len().max(1) as f64;
    let gain = tuning_gain
        .iter()
        .map(|(_, ce, best)| (1.0 - ce / best) * 100.0)
        .fold(f64::NEG_INFINITY, f64::max);
    Outcome {
        report: to_json(&Value::Array(rows)),
        ops: cells,
        sim: vec![
            ("sim_p95_ms", "ms", quantile(&mut jct_ms, 0.95)),
            ("sim_slo_violation_pct", "%", pct(violated, cells)),
            ("sim_total_usd", "USD", usd),
            (
                "sim_deadline_miss_pct",
                "%",
                pct(deadline_misses, deadline_cells),
            ),
            ("sim_mean_jct_s", "s", mean_jct_s),
            ("sim_tuning_jct_gain_pct", "%", gain),
        ],
        ratios: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Standalone replays of the training layers (traced runs only)
// ---------------------------------------------------------------------

/// Replays `kind`'s training and input layers standalone on the job
/// specs `seed` generates, charging `l`'s meters. The simulators run
/// these layers internally, where no decorator can reach them.
pub fn replay_layers(kind: Kind, seed: u64, l: &Layers) {
    match kind {
        Kind::ServeZoo => {
            // The arrival schedule, on the stream the simulator derives
            // for it.
            let spec = serve_spec(seed);
            let mut rng = SimRng::new(seed).derive("serve").derive("arrivals");
            l.tracezoo_generate
                .time(|| spec.arrivals.generate(spec.duration_s, &mut rng));
        }
        Kind::FleetTrain => replay_fleet_jobs(&fleet_spec(seed), l),
        Kind::LifecycleColo => replay_lifecycle_jobs(&lifecycle_spec(seed, 1200.0), l),
        Kind::PaperMatrix => replay_matrix_cells(&matrix_cells(seed, None), l),
    }
}

/// Starts `job` and steps it to completion, charging the calls to the
/// workflow meters (and Siren's start to the baselines meter too).
fn replay(job: TrainingJob, method: Method, l: &Layers) {
    let start = || {
        l.workflow_start
            .time(|| TrainingExecution::start(job, method))
    };
    let started = if method == Method::Siren {
        l.siren_start.time(start)
    } else {
        start()
    };
    let Ok(mut exec) = started else { return };
    while !exec.is_done() {
        if l.workflow_step.time(|| exec.step_epoch()).is_err() {
            break;
        }
    }
}

/// How many fleet jobs the standalone replay steps (a prefix of the
/// generated specs).
const FLEET_REPLAY_JOBS: usize = 100;

fn replay_fleet_jobs(spec: &ClusterSpec, l: &Layers) {
    for job in spec.fleet.generate().iter().take(FLEET_REPLAY_JOBS) {
        let mut tj =
            ce_cluster::arrival::training_job(job, &spec.fleet.env, spec.job_cap.min(spec.quota))
                .with_obs(&Registry::new())
                .with_recovery(spec.recovery);
        if let Some(k) = spec.checkpoint_every {
            tj = tj.with_checkpoint_every(k);
        }
        replay(tj, ce_cluster::arrival::FLEET_METHOD, l);
    }
}

fn replay_lifecycle_jobs(spec: &LifecycleSpec, l: &Layers) {
    let tenants: Vec<TenantSpec> = spec.tenant_specs();
    for t in &tenants {
        let mut job = TrainingJob::new(t.workload.clone(), Constraint::Budget(t.budget_usd))
            .with_seed(t.run_seed(0))
            .with_space(
                AllocationSpace::aws_default().with_max_concurrency(spec.job_cap.min(spec.quota)),
            )
            .with_recovery(RecoveryPolicy::CheckpointResume)
            .with_checkpoint_every(spec.checkpoint_every)
            .with_obs(&Registry::new());
        job.env = spec.env.clone();
        replay(job, Method::CeScaling, l);
    }
}

fn replay_matrix_cells(cells: &[Cell], l: &Layers) {
    for cell in cells {
        match cell {
            Cell::Tuning(method, job) => {
                let job = job.clone().with_obs(&Registry::new());
                if let Ok((_, _, evals)) = l.tuning_plan.time(|| job.plan_for(*method)) {
                    l.tuning_evaluations.fetch_add(evals, Ordering::Relaxed);
                }
            }
            Cell::Training(method, job) => {
                replay(job.clone().with_obs(&Registry::new()), *method, l);
            }
        }
    }
}
