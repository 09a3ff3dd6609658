//! The lifecycle fleet simulator.
//!
//! One `ce_sim_core` event heap drives, per tenant, a request-level
//! serving loop (ce-serve's arrival/autoscaler/keep-alive mechanics)
//! *and* a stepwise training loop (ce-cluster's head-of-line epoch
//! dispatch over `ce_workflow::TrainingExecution`), all leasing workers
//! from one shared [`AccountQuota`]: a dispatched request holds one
//! worker until it completes, a dispatched epoch holds its wave width.
//! The [`PriorityPolicy`] arbitrates contention (see `priority`), and a
//! completed training run publishes a model version that redeploys into
//! the serve stage.
//!
//! # Determinism
//!
//! Same spec + same seed ⇒ byte-identical metrics at any thread count.
//! The event loop itself is sequential; the only parallelism is the
//! per-request jitter pre-draw, whose streams are keyed by tenant and
//! request *index* (`"tenant-serve"/t` then `"request"/i`), so sharding
//! them across threads cannot reorder draws. Chaos draws live on their
//! own `"lifecycle-chaos"` stream and happen only in non-quiet instants
//! with a non-zero rate, so a zero-fault schedule is bit-identical to no
//! schedule. Model-version profiles are keyed by version index on the
//! tenant's `model_seed`, so *when* a retrain finishes never changes
//! *what* it deploys.
//!
//! # Resilience
//!
//! The request-level resilience layer (`ce_resilience`) threads through
//! each tenant's serving loop exactly as in `ce_serve::sim`: attempt 0
//! replays the pre-drawn jitter and base chaos streams draw-for-draw, and
//! attempts `k >= 1` fork fresh streams keyed by (tenant, request,
//! attempt), so a disabled spec is bit-identical to a build without the
//! layer. The lifecycle twist is the shared quota: every retry leases a
//! worker through the same preemption-capable path as a first attempt
//! (a retry can evict a training epoch under `serve-first`), while
//! hedges are opportunistic — they take spare quota but never preempt.
//! Every attempt, including hedge losers, pays the invocation fee.
//!
//! # Topology
//!
//! The fleet runs on a [`ce_topo::Topology`]: each pool owns its own
//! [`AccountQuota`] (the pool's ceiling, falling back to the spec's
//! shared quota), every tenant's serving is pinned to one pool at
//! build time, and each training run is placed independently when it
//! starts — so a retrain can land off-pool from the replicas it will
//! redeploy, in which case the publish pays the link's transfer time
//! and egress dollars on top of the Table-I snapshot cost. Pool
//! classes scale service time, cold starts, epoch walls, and $/GB-s;
//! the pool RTT rides on observed request latency. Preemption is
//! pool-local: a request can only evict an epoch holding workers in
//! *its* pool. The default single neutral pool multiplies by exactly
//! `1.0` and adds exactly `0.0` everywhere, and placement runs on a
//! forked `"topo"` stream the built-in policies never draw from, so
//! default runs are byte-identical to pre-topology builds.

use crate::priority::{PriorityPolicy, QuotaView, VictimView};
use crate::report::{LifecycleReport, TenantOutcome};
use crate::spec::{LifecycleSpec, TenantSpec};
use ce_chaos::{ActiveFaults, CompiledSchedule};
use ce_faas::{parse_keep_alive, AccountQuota, FunctionId, InstancePool};
use ce_obs::{Histogram, Registry};
use ce_resilience::{AttemptOutcome, BreakerState, CircuitBreaker, HedgePolicy, RetryBudget};
use ce_serve::{autoscaler_by_name, Autoscaler, LoadObservation, ScaleDecision};
use ce_sim_core::event::EventQueue;
use ce_sim_core::rng::SimRng;
use ce_sim_core::time::SimTime;
use ce_storage::StorageKind;
use ce_topo::{PlacementRequest, PoolView};
use ce_workflow::{Method, RecoveryPolicy, TrainingExecution, TrainingJob};
use rayon::prelude::*;
use serde_json::json;
use std::collections::VecDeque;

/// Mean request service time, seconds (scaled by the deployed model's
/// profile).
const SERVICE_S: f64 = 0.25;
/// Lognormal sigma of service jitter.
const SERVICE_JITTER: f64 = 0.08;
/// Mean cold-start latency, seconds.
const COLD_START_S: f64 = 1.8;
/// Lognormal sigma of cold-start jitter.
const COLD_START_JITTER: f64 = 0.25;
/// Serving instance memory.
const MEMORY_MB: u32 = 1769;
/// Autoscaler control-loop period, seconds.
const SCALE_TICK_S: f64 = 2.0;
/// $ per invocation (AWS Lambda).
const PER_INVOCATION: f64 = 2e-7;
/// $ per GB-second of execution.
const PER_GB_SECOND: f64 = 1.66667e-5;
/// $ per GB-second of provisioned-but-idle keep-warm time.
const KEEP_WARM_PER_GB_S: f64 = 4.1667e-6;
/// The store requests read model state from (outage target) and
/// publishes write to.
const BACKING: StorageKind = StorageKind::S3;
/// Service-time multiplier while the deployed model is drift-degraded.
const DRIFT_DEGRADE: f64 = 1.5;
/// Service-time multiplier of the stale bootstrap model (version 0);
/// the first published version is what the tenant actually wants to
/// serve.
const STALE_SERVICE_FACTOR: f64 = 1.15;
/// A training wave queued longer than this restarts cold.
const IDLE_EXPIRY_S: f64 = 600.0;

/// Simulation events (heap-ordered by time, FIFO on ties).
enum Ev {
    /// Request `req` of `tenant`'s arrival schedule arrives.
    Arrival { tenant: u32, req: u32 },
    /// A dispatched attempt finishes (ok, crashed, or timeout-killed).
    Done {
        tenant: u32,
        req: u32,
        attempt: u32,
        fid: FunctionId,
        arrival: SimTime,
        busy_s: f64,
        outcome: AttemptOutcome,
    },
    /// The hedge of (`tenant`, `req`) launches if the primary is still
    /// outstanding.
    HedgeFire { tenant: u32, req: u32 },
    /// A backed-off retry of (`tenant`, `req`) relaunches.
    Retry { tenant: u32, req: u32 },
    /// Global autoscaler tick (tenants planned in id order).
    ScaleTick,
    /// `tenant`'s initial training job arrives.
    TrainArrival { tenant: u32 },
    /// `tenant`'s in-flight epoch completes — ignored when `attempt`
    /// is stale (the epoch was preempted after this was scheduled).
    EpochDone { tenant: u32, attempt: u64 },
    /// A preemption/chaos stall elapses; the run re-queues.
    TrainResume { tenant: u32 },
    /// A published model version goes live in the serve stage.
    Redeploy { tenant: u32, version: u32 },
    /// `tenant`'s deployed model drifts.
    Drift { tenant: u32 },
    /// A backing-store outage window ends; parked requests dispatch.
    OutageEnd,
}

/// Where a tenant's training currently stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TrainState {
    /// No run in flight (none yet, done, or failed). Drift can start a
    /// retrain from here.
    Idle,
    /// Queued for epoch dispatch.
    Ready,
    /// An epoch wave is executing.
    Running {
        workers: u32,
        started_s: f64,
        wall_s: f64,
        converged: bool,
    },
    /// Rolling back / waiting out a stall; a `TrainResume` is pending.
    Stalled,
    /// Converged; the publish transfer is in flight (`Redeploy`
    /// pending).
    Publishing,
}

/// Pre-drawn jitter for one request index (see `ce_serve::sim` for why
/// pre-drawing is bit-identical to lazy draws).
#[derive(Clone, Copy)]
struct RequestJitter {
    cold: f64,
    service_cold: f64,
    service_warm: f64,
}

/// Per-run chaos state: the compiled schedule, its dedicated stream,
/// and the monotone dispatch-attempt counter for training crash draws.
struct ChaosState {
    schedule: CompiledSchedule,
    rng: SimRng,
    attempts: u64,
}

/// Resilience bookkeeping for one in-flight request (allocated only
/// when the spec enables the layer).
#[derive(Debug, Default, Clone, Copy)]
struct ReqState {
    /// Attempts dispatched so far (primary + retries + hedge).
    attempts: u32,
    /// Retries scheduled so far.
    retries: u32,
    /// Attempts currently executing.
    outstanding: u32,
    /// The request has a final verdict.
    settled: bool,
    /// The one-shot hedge has launched.
    hedged: bool,
    /// Which attempt index the hedge got (to credit hedge wins).
    hedge_attempt: Option<u32>,
    /// Admitted as the half-open breaker's probe.
    probe: bool,
    /// The most recent failure was a timeout (types the final verdict).
    timed_out_last: bool,
}

/// Per-tenant counters accumulated inline and flushed once.
#[derive(Debug, Default, Clone)]
struct Tally {
    completed: u64,
    failed: u64,
    timed_out: u64,
    shed_throttled: u64,
    shed_overload: u64,
    shed_outage: u64,
    shed_breaker: u64,
    truncated: u64,
    attempts: u64,
    retries: u64,
    hedges: u64,
    hedge_wins: u64,
    degraded: u64,
    cold_starts: u64,
    warm_starts: u64,
    slo_violations: u64,
    drifted_served: u64,
    busy_gb_s: f64,
    idle_gb_s: f64,
    jobs_started: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    deadline_misses: u64,
    preemptions: u64,
    epochs: u64,
    cold_resumes: u64,
    train_dollars: f64,
    drift_events: u64,
    drift_skipped: u64,
    redeploys: u64,
}

/// One tenant's live state: a serve loop and a train loop.
struct TenantState {
    spec: TenantSpec,
    // Serving.
    pool: InstancePool,
    autoscaler: Box<dyn Autoscaler>,
    capacity: u32,
    inflight: u32,
    queue: VecDeque<(u32, SimTime)>,
    arrivals_since_tick: u32,
    arrived: usize,
    jitter: Vec<RequestJitter>,
    rstate: Vec<ReqState>,
    breaker: Option<CircuitBreaker>,
    budget: Option<RetryBudget>,
    version: u32,
    drifted: bool,
    service_factor: f64,
    cold_factor: f64,
    /// The pool the tenant's replicas live in (pinned at build time).
    serve_pool: usize,
    // Training.
    /// The pool the current/latest training run was placed on.
    train_pool: usize,
    exec: Option<TrainingExecution>,
    train: TrainState,
    attempt: u64,
    runs: u32,
    deadline_abs_s: f64,
    queued_since: f64,
    tally: Tally,
}

impl TenantState {
    /// The service-time multiplier requests currently experience.
    fn effective_service_factor(&self) -> f64 {
        if self.drifted {
            self.service_factor * DRIFT_DEGRADE
        } else {
            self.service_factor
        }
    }
}

/// The serving profile model version `version` deploys with: version 0
/// is the slow stale bootstrap; published versions draw a keyed
/// (service, cold-start) factor pair from the tenant's `model_seed`.
fn version_profile(spec: &TenantSpec, version: u32) -> (f64, f64) {
    if version == 0 {
        return (STALE_SERVICE_FACTOR, 1.0);
    }
    let mut rng = SimRng::new(spec.model_seed).derive_idx("model", u64::from(version));
    (rng.uniform_range(0.85, 1.0), rng.uniform_range(1.0, 1.25))
}

/// The lifecycle fleet simulator (see the module docs).
pub struct LifecycleSim {
    spec: LifecycleSpec,
    policy: Box<dyn PriorityPolicy>,
    /// One quota per topology pool, in pool-index order.
    quotas: Vec<AccountQuota>,
    placement: Box<dyn ce_topo::PlacementPolicy>,
    topo_rng: SimRng,
    /// Training runs placed per pool (reported multi-pool only).
    train_runs_by_pool: Vec<u64>,
    /// Off-pool model publishes that crossed a link.
    publish_transfers: u64,
    /// Egress dollars those publishes paid.
    transfer_dollars: f64,
    obs: Registry,
    rng: SimRng,
    chaos: Option<ChaosState>,
    tenants: Vec<TenantState>,
    train_ready: VecDeque<u32>,
    serve_held: u32,
    train_held: u32,
    outage_end_pending: bool,
    util_integral: f64,
    last_event_s: f64,
    quota_stalls: u64,
    latency_h: Option<Histogram>,
    queue_wait_h: Option<Histogram>,
    attempts_h: Option<Histogram>,
}

impl LifecycleSim {
    /// Builds a simulator: generates every tenant's contract and
    /// compiles the fault schedule, all on derived streams.
    ///
    /// # Panics
    /// Panics when the spec names an unknown autoscaler or keep-alive
    /// policy — the CLI validates names before building.
    pub fn new(spec: LifecycleSpec, policy: Box<dyn PriorityPolicy>) -> Self {
        let pool_count = spec.topology.pools.len();
        assert!(
            (1..=256).contains(&pool_count),
            "a lifecycle topology needs 1..=256 pools"
        );
        let rng = SimRng::new(spec.seed).derive("lifecycle-sim");
        // A pure fork: deriving consumes no parent draws, so default
        // runs keep their exact bytes.
        let mut topo_rng = rng.derive("topo");
        let mut placement = ce_topo::parse_placement(&spec.placement)
            .unwrap_or_else(|e| panic!("invalid placement in spec: {e}"));
        let chaos = spec.chaos.as_ref().map(|s| {
            let chaos_rng = rng.derive("lifecycle-chaos");
            ChaosState {
                schedule: s.compile(&chaos_rng),
                rng: chaos_rng,
                attempts: 0,
            }
        });
        let quotas: Vec<AccountQuota> = spec
            .topology
            .pools
            .iter()
            .map(|p| AccountQuota::new(p.quota.unwrap_or(spec.quota)))
            .collect();
        let mut tenants: Vec<TenantState> = spec
            .tenant_specs()
            .into_iter()
            .map(|t| {
                let keep_alive = parse_keep_alive(&spec.keep_alive).expect("known keep-alive");
                let autoscaler = autoscaler_by_name(&spec.autoscaler).expect("known autoscaler");
                TenantState {
                    pool: InstancePool::new().with_keep_alive(keep_alive),
                    autoscaler,
                    capacity: 1,
                    inflight: 0,
                    queue: VecDeque::new(),
                    arrivals_since_tick: 0,
                    arrived: 0,
                    jitter: Vec::new(),
                    rstate: Vec::new(),
                    breaker: spec.resilience.breaker.map(CircuitBreaker::new),
                    budget: spec.resilience.budget(),
                    version: 0,
                    drifted: false,
                    service_factor: STALE_SERVICE_FACTOR,
                    cold_factor: 1.0,
                    serve_pool: 0,
                    train_pool: 0,
                    exec: None,
                    train: TrainState::Idle,
                    attempt: 0,
                    runs: 0,
                    deadline_abs_s: f64::INFINITY,
                    queued_since: 0.0,
                    tally: Tally::default(),
                    spec: t,
                }
            })
            .collect();
        // Pin each tenant's replicas to one pool, in tenant-id order,
        // feeding back the pins so the policy can spread load.
        if pool_count > 1 {
            let mut pinned = vec![0u32; pool_count];
            let req = PlacementRequest {
                compute_s: SERVICE_S,
                transfer_mb: 0.0,
                cold_ms: COLD_START_S * 1e3,
            };
            for st in &mut tenants {
                let views: Vec<PoolView> = spec
                    .topology
                    .pools
                    .iter()
                    .zip(&quotas)
                    .zip(&pinned)
                    .map(|((p, q), &n)| PoolView {
                        rtt_ms: p.rtt_ms,
                        price_factor: p.price_factor,
                        compute_factor: p.compute_factor,
                        cold_factor: p.cold_factor,
                        bandwidth_mbps: f64::INFINITY,
                        inflight: n,
                        queued: 0,
                        capacity: q.limit(),
                        warm_idle: 0,
                        quota: p.quota,
                    })
                    .collect();
                let idx = placement
                    .place(&views, &req, &mut topo_rng)
                    .min(pool_count - 1);
                st.serve_pool = idx;
                st.train_pool = idx;
                pinned[idx] += 1;
            }
        }
        LifecycleSim {
            quotas,
            placement,
            topo_rng,
            train_runs_by_pool: vec![0; pool_count],
            publish_transfers: 0,
            transfer_dollars: 0.0,
            obs: Registry::new(),
            rng,
            chaos,
            tenants,
            train_ready: VecDeque::new(),
            serve_held: 0,
            train_held: 0,
            outage_end_pending: false,
            util_integral: 0.0,
            last_event_s: 0.0,
            quota_stalls: 0,
            latency_h: None,
            queue_wait_h: None,
            attempts_h: None,
            spec,
            policy,
        }
    }

    /// Sends `lifecycle.*` metrics to a shared registry.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.obs = registry.clone();
        self
    }

    /// GB factor of one serving instance.
    fn gb(&self) -> f64 {
        f64::from(MEMORY_MB) / 1024.0
    }

    /// Whether a real substrate (more than one pool) is modeled.
    fn multi_pool(&self) -> bool {
        self.quotas.len() > 1
    }

    /// Workers leased across every pool.
    fn total_in_use(&self) -> u32 {
        self.quotas.iter().map(AccountQuota::in_use).sum()
    }

    /// Combined concurrency ceiling across every pool.
    fn total_limit(&self) -> u32 {
        self.quotas.iter().map(AccountQuota::limit).sum()
    }

    /// What the placement policy sees of each pool when a training run
    /// is placed: live lease counts, queued-train depth, and the link
    /// bandwidth back to `serve_pool` (where the publish must land).
    fn train_views(&self, serve_pool: usize) -> Vec<PoolView> {
        let topo = &self.spec.topology;
        let mut queued = vec![0u32; self.quotas.len()];
        for &tid in &self.train_ready {
            queued[self.tenants[tid as usize].train_pool] += 1;
        }
        topo.pools
            .iter()
            .enumerate()
            .map(|(i, p)| PoolView {
                rtt_ms: p.rtt_ms,
                price_factor: p.price_factor,
                compute_factor: p.compute_factor,
                cold_factor: p.cold_factor,
                bandwidth_mbps: topo.bandwidth_mbps(i, serve_pool),
                inflight: self.quotas[i].in_use(),
                queued: queued[i],
                capacity: self.quotas[i].limit(),
                warm_idle: 0,
                quota: p.quota,
            })
            .collect()
    }

    /// The fault environment at `t` (quiet when no schedule is
    /// attached).
    fn active_faults(&self, t: f64) -> ActiveFaults {
        match &self.chaos {
            None => ActiveFaults::quiet(),
            Some(c) => c.schedule.active_at(t),
        }
    }

    /// What the priority policy sees at `t`.
    fn view(&self, t: f64) -> QuotaView {
        let ready_train_slack_s = self
            .train_ready
            .iter()
            .map(|&tid| self.tenants[tid as usize].deadline_abs_s - t)
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.min(s)))
            });
        QuotaView {
            now_s: t,
            in_use: self.total_in_use(),
            limit: self.total_limit(),
            serve_held: self.serve_held,
            train_held: self.train_held,
            ready_train_slack_s,
        }
    }

    /// Reaps idle-expired instances of `tenant` and bills their
    /// keep-warm time.
    fn reap_warm(&mut self, tenant: usize, now: SimTime) {
        let gb = self.gb();
        let st = &mut self.tenants[tenant];
        for r in st.pool.reap_detailed(now) {
            st.tally.idle_gb_s += r.warm_idle_s() * gb;
        }
    }

    /// Whether the resilience layer is live this run.
    fn resilient(&self) -> bool {
        self.spec.resilience.enabled()
    }

    /// Jitter for attempt `attempt >= 1` of (`tenant`, `req`): the same
    /// draw shape as the pre-drawn attempt-0 jitter, on a fresh stream
    /// forked per (tenant, request, attempt) so it is independent of
    /// event order and of every base stream.
    fn attempt_jitter(&self, tenant: usize, req: u32, attempt: u32) -> RequestJitter {
        let key = self
            .rng
            .derive_idx("tenant-serve", tenant as u64)
            .derive_idx("request", u64::from(req))
            .derive_idx("attempt", u64::from(attempt));
        let mut cold_path = key.clone();
        let cold = cold_path.lognormal_jitter(COLD_START_JITTER);
        let service_cold = cold_path.lognormal_jitter(SERVICE_JITTER);
        let mut warm_path = key;
        let service_warm = warm_path.lognormal_jitter(SERVICE_JITTER);
        RequestJitter {
            cold,
            service_cold,
            service_warm,
        }
    }

    /// Seconds after a primary dispatch at which its hedge launches:
    /// the live fleet-wide p95 of completed end-to-end latency (the SLO
    /// before any completions exist), or the fixed configured delay.
    fn hedge_delay_s(&self, policy: HedgePolicy) -> f64 {
        match policy {
            HedgePolicy::FixedMs(ms) => ms / 1e3,
            HedgePolicy::P95 => {
                self.latency_h
                    .as_ref()
                    .and_then(|h| h.quantile(0.95))
                    .unwrap_or(self.spec.slo_ms)
                    .max(1e-3)
                    / 1e3
            }
        }
    }

    /// Emits a tenant's breaker transition event and state gauge.
    fn note_breaker_transition(
        &self,
        tenant_id: u32,
        from: BreakerState,
        to: BreakerState,
        t: f64,
    ) {
        self.obs.event(
            t,
            "resilience.breaker",
            &[
                ("tenant", json!(tenant_id)),
                ("from", json!(from.name())),
                ("to", json!(to.name())),
            ],
        );
        self.obs
            .gauge(&format!("resilience.breaker_state.t{tenant_id}"))
            .set(to.as_gauge());
    }

    /// Feeds one attempt outcome to `tenant`'s circuit breaker.
    fn feed_breaker(&mut self, tenant: usize, ok: bool, probe: bool, t: f64) {
        let tenant_id = self.tenants[tenant].spec.id;
        let tr = self.tenants[tenant]
            .breaker
            .as_mut()
            .and_then(|br| br.on_outcome(ok, probe, t));
        if let Some(tr) = tr {
            self.note_breaker_transition(tenant_id, tr.from, tr.to, t);
        }
    }

    /// Records a settled request's attempt count.
    fn observe_attempts(&self, attempts: u32) {
        if let Some(h) = &self.attempts_h {
            h.observe(f64::from(attempts));
        }
    }

    /// Applies a scale decision to `tenant`: clamps capacity and
    /// pre-warms any provisioning deficit. Pre-warmed sandboxes do not
    /// hold quota — only dispatched work leases workers.
    fn apply_decision(&mut self, tenant: usize, d: ScaleDecision, now: SimTime) {
        let st = &mut self.tenants[tenant];
        st.capacity = d.capacity.max(1);
        let provisioned = st.inflight + st.pool.warm_count(MEMORY_MB, now);
        if d.warm_target > provisioned {
            st.pool.prewarm(d.warm_target - provisioned, MEMORY_MB, now);
        }
    }

    /// Leases one worker in `tenant`'s serve pool for a request,
    /// preempting a running epoch *in that pool* if the policy allows
    /// (evicting workers elsewhere could not free this pool's quota).
    /// Returns `false` when the request must wait.
    fn acquire_serve_worker(&mut self, tenant: usize, t: f64, events: &mut EventQueue<Ev>) -> bool {
        let pool = self.tenants[tenant].serve_pool;
        if self.quotas[pool].try_acquire(1).is_ok() {
            self.serve_held += 1;
            return true;
        }
        let victims: Vec<VictimView> = self
            .tenants
            .iter()
            .enumerate()
            .filter_map(|(i, st)| match st.train {
                // A converged in-flight epoch is excluded: rolling it
                // back would strand the run un-finishable.
                TrainState::Running {
                    workers,
                    converged: false,
                    ..
                } if st.train_pool == pool => Some(VictimView {
                    tenant: i as u32,
                    workers,
                    slack_s: st.deadline_abs_s - t,
                }),
                _ => None,
            })
            .collect();
        if victims.is_empty() {
            return false;
        }
        let Some(vi) = self.policy.preempt_victim(&victims, &self.view(t)) else {
            return false;
        };
        self.preempt(victims[vi].tenant as usize, t, events);
        if self.quotas[pool].try_acquire(1).is_ok() {
            self.serve_held += 1;
            true
        } else {
            false
        }
    }

    /// Kills `tenant`'s in-flight epoch: the wave's workers return to
    /// the quota, the run rolls back to its latest checkpoint (partial
    /// epoch, restore transfer, and backoff stall all billed by
    /// [`TrainingExecution::inject_worker_loss`]), and a `TrainResume`
    /// fires once the stall elapses.
    fn preempt(&mut self, tenant: usize, t: f64, events: &mut EventQueue<Ev>) {
        let obs = self.obs.clone();
        let st = &mut self.tenants[tenant];
        let TrainState::Running {
            workers,
            started_s,
            wall_s,
            ..
        } = st.train
        else {
            unreachable!("preemption targets a running epoch");
        };
        self.quotas[st.train_pool].release(workers);
        self.train_held -= workers;
        st.attempt += 1;
        let at_fraction = if wall_s > 0.0 {
            ((t - started_s) / wall_s).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let stall = st
            .exec
            .as_mut()
            .expect("running epoch has an execution")
            .inject_worker_loss(at_fraction);
        st.train = TrainState::Stalled;
        st.tally.preemptions += 1;
        obs.counter("lifecycle.preemptions").inc();
        obs.event(
            t,
            "lifecycle.preemption",
            &[
                ("tenant", json!(st.spec.id)),
                ("workers", json!(workers)),
                ("at_fraction", json!(at_fraction)),
                ("stall_s", json!(stall)),
            ],
        );
        events.schedule_at(
            SimTime::from_secs(t + stall),
            Ev::TrainResume {
                tenant: tenant as u32,
            },
        );
    }

    /// Starts training run number `st.runs` for `tenant` (the initial
    /// job or a drift retrain): places it on a pool, sizes its
    /// allocation grid to that pool's ceiling, and queues it for
    /// dispatch.
    fn start_training_run(&mut self, tenant: usize, t: f64) {
        if self.multi_pool() {
            let serve_pool = self.tenants[tenant].serve_pool;
            let views = self.train_views(serve_pool);
            let req = PlacementRequest {
                compute_s: self.tenants[tenant].spec.deadline_span_s,
                transfer_mb: self.tenants[tenant].spec.workload.model.model_mb,
                cold_ms: 0.0,
            };
            let idx = self
                .placement
                .place(&views, &req, &mut self.topo_rng)
                .min(self.quotas.len() - 1);
            self.tenants[tenant].train_pool = idx;
            self.train_runs_by_pool[idx] += 1;
        }
        let cap = self
            .spec
            .job_cap
            .min(self.quotas[self.tenants[tenant].train_pool].limit());
        let (job, deadline_abs_s) = {
            let st = &mut self.tenants[tenant];
            let run = st.runs;
            st.runs += 1;
            st.tally.jobs_started += 1;
            let mut job = TrainingJob::new(
                st.spec.workload.clone(),
                ce_workflow::Constraint::Budget(st.spec.budget_usd),
            )
            .with_seed(st.spec.run_seed(run))
            .with_space(ce_models::AllocationSpace::aws_default().with_max_concurrency(cap))
            .with_recovery(RecoveryPolicy::CheckpointResume)
            .with_checkpoint_every(self.spec.checkpoint_every);
            job.env = self.spec.env.clone();
            (job, t + st.spec.deadline_span_s)
        };
        match TrainingExecution::start(job, Method::CeScaling) {
            Ok(exec) => {
                let st = &mut self.tenants[tenant];
                st.exec = Some(exec);
                st.train = TrainState::Ready;
                st.deadline_abs_s = deadline_abs_s;
                st.queued_since = t;
                self.train_ready.push_back(tenant as u32);
            }
            Err(_) => self.fail_train(tenant, t, 0.0),
        }
    }

    /// Marks `tenant`'s current run failed. Whatever it billed before
    /// failing still counts, and a failed run is a deadline miss.
    fn fail_train(&mut self, tenant: usize, t: f64, cost_usd: f64) {
        let obs = self.obs.clone();
        let price = self.spec.topology.pools[self.tenants[tenant].train_pool].price_factor;
        let st = &mut self.tenants[tenant];
        st.exec = None;
        st.train = TrainState::Idle;
        st.tally.jobs_failed += 1;
        st.tally.deadline_misses += 1;
        st.tally.train_dollars += cost_usd * price;
        obs.counter("lifecycle.train_failed").inc();
        obs.event(
            t,
            "lifecycle.train_failed",
            &[("tenant", json!(st.spec.id)), ("run", json!(st.runs - 1))],
        );
    }

    /// Checks the fault timeline before dispatching the head-of-line
    /// epoch. Returns `true` when chaos intercepted the dispatch: the
    /// run left the queue and a `TrainResume` is scheduled.
    fn train_chaos_intercepts(
        &mut self,
        tenant: usize,
        t: f64,
        events: &mut EventQueue<Ev>,
    ) -> bool {
        let Some(chaos) = self.chaos.as_mut() else {
            return false;
        };
        let active = chaos.schedule.active_at(t);
        if active.is_quiet() {
            return false;
        }
        let st = &mut self.tenants[tenant];
        let kind = st
            .exec
            .as_ref()
            .expect("queued run has an execution")
            .alloc()
            .storage;
        if let Some(until) = active.outage_until(kind) {
            self.train_ready.pop_front();
            st.train = TrainState::Stalled;
            self.obs.counter("lifecycle.chaos_stalls").inc();
            events.schedule_at(
                SimTime::from_secs(until.max(t)),
                Ev::TrainResume {
                    tenant: tenant as u32,
                },
            );
            return true;
        }
        if active.crash_rate > 0.0 {
            let mut draw = chaos.rng.derive_idx("attempt", chaos.attempts);
            chaos.attempts += 1;
            if draw.bernoulli(active.crash_rate) {
                self.train_ready.pop_front();
                let at_fraction = draw.uniform();
                let stall = st
                    .exec
                    .as_mut()
                    .expect("queued run has an execution")
                    .inject_worker_loss(at_fraction);
                st.train = TrainState::Stalled;
                self.obs.counter("lifecycle.chaos_stalls").inc();
                self.obs.counter("lifecycle.chaos_worker_losses").inc();
                events.schedule_at(
                    SimTime::from_secs(t + stall),
                    Ev::TrainResume {
                        tenant: tenant as u32,
                    },
                );
                return true;
            }
        }
        false
    }

    /// Dispatches queued epochs head-of-line while the quota fits them.
    /// A head wave that does not fit stalls the whole queue (skipping
    /// it would starve wide allocations behind narrow ones).
    fn dispatch_trains(&mut self, t: f64, events: &mut EventQueue<Ev>) {
        loop {
            let Some(&tid) = self.train_ready.front() else {
                return;
            };
            let tenant = tid as usize;
            if self.train_chaos_intercepts(tenant, t, events) {
                continue;
            }
            let workers = self.tenants[tenant]
                .exec
                .as_ref()
                .expect("queued run has an execution")
                .alloc()
                .n;
            let pool = self.tenants[tenant].train_pool;
            if let Err(e) = self.quotas[pool].try_acquire(workers) {
                if e.is_structural() {
                    // This wave can never fit the account limit.
                    self.train_ready.pop_front();
                    let cost = self.tenants[tenant]
                        .exec
                        .as_ref()
                        .map_or(0.0, |e| e.report().cost_usd);
                    self.fail_train(tenant, t, cost);
                    continue;
                }
                self.quota_stalls += 1;
                return;
            }
            self.train_ready.pop_front();
            let compute_factor = self.spec.topology.pools[pool].compute_factor;
            let st = &mut self.tenants[tenant];
            let wait = t - st.queued_since;
            if wait > IDLE_EXPIRY_S {
                st.exec
                    .as_mut()
                    .expect("queued run has an execution")
                    .cool_down();
                st.tally.cold_resumes += 1;
            }
            match st
                .exec
                .as_mut()
                .expect("queued run has an execution")
                .step_epoch()
            {
                Ok(step) => {
                    st.attempt += 1;
                    // The pool's silicon class stretches (or shrinks)
                    // the epoch wall; the neutral pool multiplies by
                    // exactly 1.0.
                    let wall_s = step.wall_s * compute_factor;
                    st.train = TrainState::Running {
                        workers,
                        started_s: t,
                        wall_s,
                        converged: step.converged,
                    };
                    st.tally.epochs += 1;
                    self.train_held += workers;
                    self.obs.counter("lifecycle.epochs").inc();
                    events.schedule_at(
                        SimTime::from_secs(t + wall_s),
                        Ev::EpochDone {
                            tenant: tid,
                            attempt: st.attempt,
                        },
                    );
                }
                Err(_) => {
                    // The platform itself refused the wave.
                    self.quotas[pool].release(workers);
                    let cost = st.exec.as_ref().map_or(0.0, |e| e.report().cost_usd);
                    self.fail_train(tenant, t, cost);
                }
            }
        }
    }

    /// A finished run publishes its model: the snapshot transfer and
    /// request cost go on the training bill, and the `Redeploy` fires
    /// when the transfer lands. A run that trained off-pool from the
    /// replicas it redeploys additionally pays the link's transfer
    /// time and egress dollars.
    fn finish_training(&mut self, tenant: usize, t: f64, events: &mut EventQueue<Ev>) {
        let obs = self.obs.clone();
        let train_pool = self.tenants[tenant].train_pool;
        let serve_pool = self.tenants[tenant].serve_pool;
        let price = self.spec.topology.pools[train_pool].price_factor;
        let st = &mut self.tenants[tenant];
        let exec = st.exec.take().expect("finished run has an execution");
        let alloc_kind = exec.alloc().storage;
        let billed = exec.report().cost_usd;
        match exec.finish_quiet() {
            Ok(report) => {
                st.tally.jobs_completed += 1;
                st.tally.train_dollars += report.cost_usd * price;
                let late = t > st.deadline_abs_s;
                if late {
                    st.tally.deadline_misses += 1;
                }
                let model_mb = st.spec.workload.model.model_mb;
                let (mut publish_s, publish_usd) = self
                    .spec
                    .env
                    .storage
                    .get(BACKING)
                    .or_else(|| self.spec.env.storage.get(alloc_kind))
                    .map_or((0.0, 0.0), |s| {
                        (s.transfer_time(model_mb), s.pricing.get_cost(model_mb))
                    });
                st.tally.train_dollars += publish_usd;
                if train_pool != serve_pool {
                    let topo = &self.spec.topology;
                    let (xfer_s, xfer_usd) = topo.transfer(train_pool, serve_pool, model_mb);
                    publish_s += xfer_s;
                    st.tally.train_dollars += xfer_usd;
                    self.publish_transfers += 1;
                    self.transfer_dollars += xfer_usd;
                }
                st.train = TrainState::Publishing;
                let version = st.version + 1;
                obs.counter("lifecycle.train_completed").inc();
                obs.event(
                    t,
                    "lifecycle.train_done",
                    &[
                        ("tenant", json!(st.spec.id)),
                        ("version", json!(version)),
                        ("epochs", json!(report.epochs)),
                        ("cost_usd", json!(report.cost_usd)),
                        ("late", json!(late)),
                    ],
                );
                events.schedule_at(
                    SimTime::from_secs(t + publish_s),
                    Ev::Redeploy {
                        tenant: tenant as u32,
                        version,
                    },
                );
            }
            Err(_) => {
                st.exec = None;
                self.fail_train(tenant, t, billed);
            }
        }
    }

    /// Admits one arrival: shed on a throttle storm, park on a
    /// backing-store outage, otherwise queue (the priority-ordered
    /// drain dispatches it, possibly immediately at the same instant).
    fn handle_arrival(
        &mut self,
        events: &mut EventQueue<Ev>,
        tenant: usize,
        req: u32,
        now: SimTime,
    ) {
        let t = now.as_secs();
        if let Some(b) = &mut self.tenants[tenant].budget {
            b.deposit();
        }
        let active = self.active_faults(t);
        if !active.is_quiet() && active.throttle_rate > 0.0 {
            let chaos = self.chaos.as_ref().expect("non-quiet implies a schedule");
            let mut draw = chaos
                .rng
                .derive_idx("tenant", tenant as u64)
                .derive_idx("request-throttle", u64::from(req));
            if draw.bernoulli(active.throttle_rate) {
                self.tenants[tenant].tally.shed_throttled += 1;
                return;
            }
        }
        // Circuit breaker: while open, doomed dispatches become fast
        // sheds; the first admission after the cooldown is the probe.
        let tenant_id = self.tenants[tenant].spec.id;
        let gate = self.tenants[tenant].breaker.as_mut().map(|br| {
            let before = br.state();
            let admitted = br.allow(t);
            (before, br.state(), admitted)
        });
        if let Some((before, after, admitted)) = gate {
            if before != after {
                self.note_breaker_transition(tenant_id, before, after, t);
            }
            if !admitted {
                self.tenants[tenant].tally.shed_breaker += 1;
                return;
            }
            if after == BreakerState::HalfOpen {
                self.tenants[tenant].rstate[req as usize].probe = true;
            }
        }
        if let Some(resumes_at_s) = active.outage_until(BACKING) {
            // An outage that outlasts the run can never serve the
            // request.
            if resumes_at_s > self.spec.duration_s.max(t) {
                self.tenants[tenant].tally.shed_outage += 1;
                return;
            }
            if self.tenants[tenant].queue.len() >= self.spec.queue_cap {
                self.tenants[tenant].tally.shed_overload += 1;
                return;
            }
            self.tenants[tenant].queue.push_back((req, now));
            if !self.outage_end_pending {
                events.schedule_at(SimTime::from_secs(resumes_at_s), Ev::OutageEnd);
                self.outage_end_pending = true;
            }
            return;
        }
        let queue_cap = self.spec.queue_cap;
        let st = &mut self.tenants[tenant];
        if st.queue.len() >= queue_cap {
            st.tally.shed_overload += 1;
        } else {
            st.queue.push_back((req, now));
        }
    }

    /// Starts the next attempt of request `req` executing at `now` (its
    /// worker lease is already held) and schedules its resolution.
    /// Attempt 0 replays the pre-drawn jitter and base chaos streams;
    /// later attempts fork fresh ones.
    fn dispatch_request(
        &mut self,
        events: &mut EventQueue<Ev>,
        tenant: usize,
        req: u32,
        arrival: SimTime,
        now: SimTime,
    ) {
        let t = now.as_secs();
        let active = self.active_faults(t);
        let attempt = if self.resilient() {
            self.tenants[tenant].rstate[req as usize].attempts
        } else {
            0
        };
        let jit = if attempt == 0 {
            self.tenants[tenant].jitter[req as usize]
        } else {
            self.attempt_jitter(tenant, req, attempt)
        };
        let queue_cap = self.spec.queue_cap;
        let brownout = self.spec.resilience.brownout;
        let node = &self.spec.topology.pools[self.tenants[tenant].serve_pool];
        let (node_compute, node_cold) = (node.compute_factor, node.cold_factor);
        let st = &mut self.tenants[tenant];
        let (fid, cold) = st.pool.acquire_one(MEMORY_MB, now);
        let cold_s = if cold {
            st.tally.cold_starts += 1;
            COLD_START_S * st.cold_factor * node_cold * active.cold_start_factor.max(1.0) * jit.cold
        } else {
            st.tally.warm_starts += 1;
            0.0
        };
        if st.drifted {
            st.tally.drifted_served += 1;
        }
        let service_jit = if cold {
            jit.service_cold
        } else {
            jit.service_warm
        };
        let mut service_s = SERVICE_S * st.effective_service_factor() * node_compute * service_jit;
        // Brownout: above the queue-depth threshold this attempt serves
        // the degraded (cheaper, faster) profile instead of letting the
        // backlog overflow into sheds.
        if let Some(b) = brownout {
            if b.active(st.queue.len(), queue_cap) {
                service_s *= b.degrade_factor;
                st.tally.degraded += 1;
            }
        }
        let mut busy_s = cold_s + service_s;
        let mut outcome = AttemptOutcome::Ok;
        // Mid-request crash: attempt 0 draws on the chaos stream keyed
        // by (tenant, request) — exactly the pre-resilience sequence;
        // attempt k >= 1 forks that stream again by attempt index.
        if !active.is_quiet() && active.crash_rate > 0.0 {
            let chaos = self.chaos.as_ref().expect("non-quiet implies a schedule");
            let base = chaos
                .rng
                .derive_idx("tenant", tenant as u64)
                .derive_idx("request-crash", u64::from(req));
            let mut draw = if attempt == 0 {
                base
            } else {
                base.derive_idx("attempt", u64::from(attempt))
            };
            if draw.bernoulli(active.crash_rate) {
                outcome = AttemptOutcome::Crashed;
                busy_s *= draw.uniform();
            }
        }
        // Timeout: the attempt is killed at the deadline. A crash that
        // would land past the deadline never happens — the kill wins.
        if let Some(tmo_s) = self.spec.resilience.timeout_s() {
            if busy_s > tmo_s {
                busy_s = tmo_s;
                outcome = AttemptOutcome::TimedOut;
            }
        }
        if attempt == 0 {
            if let Some(h) = &self.queue_wait_h {
                h.observe((now - arrival) * 1e3);
            }
        }
        self.tenants[tenant].inflight += 1;
        self.tenants[tenant].tally.attempts += 1;
        if self.resilient() {
            let rs = &mut self.tenants[tenant].rstate[req as usize];
            rs.attempts += 1;
            rs.outstanding += 1;
            // Hedge the primary attempt: the hedge launches once, after
            // the hedge delay, unless the request settles first.
            if attempt == 0 {
                if let Some(policy) = self.spec.resilience.hedge {
                    events.schedule_at(
                        now + self.hedge_delay_s(policy),
                        Ev::HedgeFire {
                            tenant: tenant as u32,
                            req,
                        },
                    );
                }
            }
        }
        events.schedule_at(
            now + busy_s,
            Ev::Done {
                tenant: tenant as u32,
                req,
                attempt,
                fid,
                arrival,
                busy_s,
                outcome,
            },
        );
    }

    /// Dispatches parked requests (tenant-id order) while capacity,
    /// quota, and the fault timeline allow.
    fn drain_serve(&mut self, t: f64, events: &mut EventQueue<Ev>) {
        let active = self.active_faults(t);
        if let Some(resumes_at_s) = active.outage_until(BACKING) {
            // Same rule as admission: an overlapping outage window that
            // outlasts the run can never serve the parked requests.
            if resumes_at_s > self.spec.duration_s.max(t) {
                for st in &mut self.tenants {
                    st.tally.shed_outage += st.queue.len() as u64;
                    st.queue.clear();
                }
                return;
            }
            let any_parked = self.tenants.iter().any(|st| !st.queue.is_empty());
            if any_parked && !self.outage_end_pending {
                events.schedule_at(SimTime::from_secs(resumes_at_s), Ev::OutageEnd);
                self.outage_end_pending = true;
            }
            return;
        }
        let now = SimTime::from_secs(t);
        for tenant in 0..self.tenants.len() {
            if self.tenants[tenant].queue.is_empty() {
                continue;
            }
            self.reap_warm(tenant, now);
            while self.tenants[tenant].inflight < self.tenants[tenant].capacity
                && !self.tenants[tenant].queue.is_empty()
            {
                if !self.acquire_serve_worker(tenant, t, events) {
                    if self.multi_pool() {
                        // Only this tenant's pool is exhausted;
                        // tenants pinned elsewhere may still drain.
                        break;
                    }
                    return;
                }
                let (req, arrival) = self.tenants[tenant]
                    .queue
                    .pop_front()
                    .expect("queue checked non-empty");
                self.dispatch_request(events, tenant, req, arrival, now);
            }
        }
    }

    /// Hands freed capacity to parked requests and queued epochs in the
    /// policy's drain order.
    fn drain_all(&mut self, t: f64, events: &mut EventQueue<Ev>) {
        if self.policy.serve_drains_first(&self.view(t)) {
            self.drain_serve(t, events);
            self.dispatch_trains(t, events);
        } else {
            self.dispatch_trains(t, events);
            self.drain_serve(t, events);
        }
    }

    /// Resolves attempt `attempt` of (`tenant`, `req`) under resilience:
    /// settles the request, lets a sibling attempt race on, or schedules
    /// a budgeted retry.
    #[allow(clippy::too_many_arguments)]
    fn resolve_attempt(
        &mut self,
        events: &mut EventQueue<Ev>,
        tenant: usize,
        req: u32,
        attempt: u32,
        arrival: SimTime,
        outcome: AttemptOutcome,
        t: f64,
    ) {
        let probe = self.tenants[tenant].rstate[req as usize].probe;
        self.feed_breaker(tenant, outcome.is_ok(), probe, t);
        self.tenants[tenant].rstate[req as usize].outstanding -= 1;
        if outcome.is_ok() {
            let rs = self.tenants[tenant].rstate[req as usize];
            if rs.settled {
                return; // a hedge loser finishing after the winner
            }
            self.tenants[tenant].rstate[req as usize].settled = true;
            let st = &mut self.tenants[tenant];
            if rs.hedge_attempt == Some(attempt) {
                st.tally.hedge_wins += 1;
            }
            st.tally.completed += 1;
            // The serve pool's client RTT rides on observed latency
            // (exactly 0.0 on the neutral pool).
            let latency_ms = (SimTime::from_secs(t) - arrival) * 1e3
                + self.spec.topology.pools[st.serve_pool].rtt_ms;
            if let Some(h) = &self.latency_h {
                h.observe(latency_ms);
            }
            if latency_ms > self.spec.slo_ms {
                self.tenants[tenant].tally.slo_violations += 1;
            }
            self.observe_attempts(rs.attempts);
            return;
        }
        self.tenants[tenant].rstate[req as usize].timed_out_last =
            outcome == AttemptOutcome::TimedOut;
        let rs = self.tenants[tenant].rstate[req as usize];
        if rs.settled || rs.outstanding > 0 {
            return; // a sibling attempt may still save the request
        }
        // Retry when the policy has attempts left and the tenant's
        // token-bucket budget funds one; otherwise the failure stands.
        let wants_retry = self
            .spec
            .resilience
            .retry
            .is_some_and(|p| rs.retries < p.max_retries);
        let funded = wants_retry
            && self.tenants[tenant]
                .budget
                .as_mut()
                .is_none_or(RetryBudget::try_withdraw);
        if funded {
            let policy = self.spec.resilience.retry.expect("checked above");
            let retry_no = rs.retries + 1;
            self.tenants[tenant].rstate[req as usize].retries = retry_no;
            self.tenants[tenant].tally.retries += 1;
            // Backoff jitter on a stream forked per (tenant, request,
            // retry): independent of event order and every base stream.
            let mut jrng = self
                .rng
                .derive_idx("tenant-backoff", tenant as u64)
                .derive_idx("request", u64::from(req))
                .derive_idx("retry", u64::from(retry_no));
            let backoff_s = policy.backoff_ms(retry_no, jrng.uniform_range(0.5, 1.5)) / 1e3;
            events.schedule_at(
                SimTime::from_secs(t + backoff_s),
                Ev::Retry {
                    tenant: tenant as u32,
                    req,
                },
            );
        } else {
            self.settle_exhausted(tenant, req);
        }
    }

    /// Settles (`tenant`, `req`) with its last failure mode as the
    /// verdict.
    fn settle_exhausted(&mut self, tenant: usize, req: u32) {
        let rs = self.tenants[tenant].rstate[req as usize];
        self.tenants[tenant].rstate[req as usize].settled = true;
        if rs.timed_out_last {
            self.tenants[tenant].tally.timed_out += 1;
        } else {
            self.tenants[tenant].tally.failed += 1;
        }
        self.observe_attempts(rs.attempts);
    }

    /// Launches the hedge attempt of (`tenant`, `req`) if the primary is
    /// still outstanding, the backing store is up, and the shared quota
    /// has a spare worker. Hedges are opportunistic duplicates: they
    /// never preempt a training epoch, and their compute is billed like
    /// any other attempt.
    fn hedge_fire(&mut self, events: &mut EventQueue<Ev>, tenant: usize, req: u32, now: SimTime) {
        let rs = self.tenants[tenant].rstate[req as usize];
        if rs.settled || rs.hedged || rs.outstanding == 0 {
            return; // already decided, or a retry owns recovery now
        }
        if self
            .active_faults(now.as_secs())
            .outage_until(BACKING)
            .is_some()
        {
            return; // the hedge could not read model state anyway
        }
        if self.quotas[self.tenants[tenant].serve_pool]
            .try_acquire(1)
            .is_err()
        {
            return; // no spare worker, and hedges never preempt
        }
        self.serve_held += 1;
        self.tenants[tenant].rstate[req as usize].hedged = true;
        self.tenants[tenant].rstate[req as usize].hedge_attempt = Some(rs.attempts);
        self.tenants[tenant].tally.hedges += 1;
        let arrival = SimTime::from_secs(self.tenants[tenant].spec.arrival_s[req as usize]);
        self.dispatch_request(events, tenant, req, arrival, now);
    }

    /// Relaunches (`tenant`, `req`) after its backoff: dispatch within
    /// capacity and quota (retries may preempt training, like any
    /// admission), park behind an outage or a busy pool, or let the
    /// failure stand when the queue is full too.
    fn launch_retry(&mut self, events: &mut EventQueue<Ev>, tenant: usize, req: u32, now: SimTime) {
        let t = now.as_secs();
        let arrival = SimTime::from_secs(self.tenants[tenant].spec.arrival_s[req as usize]);
        let active = self.active_faults(t);
        if let Some(resumes_at_s) = active.outage_until(BACKING) {
            if resumes_at_s > self.spec.duration_s.max(t)
                || self.tenants[tenant].queue.len() >= self.spec.queue_cap
            {
                // The retry can never launch: the last failure stands.
                self.settle_exhausted(tenant, req);
                return;
            }
            self.tenants[tenant].queue.push_back((req, arrival));
            if !self.outage_end_pending {
                events.schedule_at(SimTime::from_secs(resumes_at_s), Ev::OutageEnd);
                self.outage_end_pending = true;
            }
            return;
        }
        if self.tenants[tenant].inflight < self.tenants[tenant].capacity
            && self.acquire_serve_worker(tenant, t, events)
        {
            self.dispatch_request(events, tenant, req, arrival, now);
        } else if self.tenants[tenant].queue.len() < self.spec.queue_cap {
            self.tenants[tenant].queue.push_back((req, arrival));
        } else {
            self.settle_exhausted(tenant, req);
        }
    }

    /// Runs the simulation to completion and returns the aggregate
    /// report.
    pub fn run(mut self) -> LifecycleReport {
        if self.tenants.is_empty() {
            return self.finalize(SimTime::ZERO);
        }
        // Pre-draw request jitter off the sequential event loop, keyed
        // by tenant and request index so the batch shards freely.
        for tenant in 0..self.tenants.len() {
            let base = self.rng.derive_idx("tenant-serve", tenant as u64);
            let n = self.tenants[tenant].spec.arrival_s.len() as u64;
            self.tenants[tenant].jitter = (0..n)
                .into_par_iter()
                .map(|req| {
                    let mut cold_path = base.derive_idx("request", req);
                    let cold = cold_path.lognormal_jitter(COLD_START_JITTER);
                    let service_cold = cold_path.lognormal_jitter(SERVICE_JITTER);
                    let mut warm_path = base.derive_idx("request", req);
                    let service_warm = warm_path.lognormal_jitter(SERVICE_JITTER);
                    RequestJitter {
                        cold,
                        service_cold,
                        service_warm,
                    }
                })
                .collect();
        }
        let latency_h = self.obs.histogram("lifecycle.latency_ms");
        latency_h.enable_quantiles();
        let queue_wait_h = self.obs.histogram("lifecycle.queue_wait_ms");
        queue_wait_h.enable_quantiles();
        self.latency_h = Some(latency_h);
        self.queue_wait_h = Some(queue_wait_h);
        if self.spec.resilience.enabled() {
            for st in &mut self.tenants {
                st.rstate = vec![ReqState::default(); st.spec.arrival_s.len()];
            }
            let attempts_h = self.obs.histogram("resilience.attempts");
            attempts_h.enable_quantiles();
            self.attempts_h = Some(attempts_h);
        }

        let mut q: EventQueue<Ev> = EventQueue::with_capacity(1024);
        for tenant in 0..self.tenants.len() {
            let init = self.tenants[tenant].autoscaler.initial();
            self.apply_decision(tenant, init, SimTime::ZERO);
            let st = &self.tenants[tenant];
            if let Some(&first) = st.spec.arrival_s.first() {
                q.schedule_at(
                    SimTime::from_secs(first),
                    Ev::Arrival {
                        tenant: tenant as u32,
                        req: 0,
                    },
                );
            }
            q.schedule_at(
                SimTime::from_secs(st.spec.train_arrival_s),
                Ev::TrainArrival {
                    tenant: tenant as u32,
                },
            );
            for &d in &st.spec.drift_s {
                q.schedule_at(
                    SimTime::from_secs(d),
                    Ev::Drift {
                        tenant: tenant as u32,
                    },
                );
            }
        }
        if self.tenants.iter().any(|st| !st.spec.arrival_s.is_empty()) {
            q.schedule_at(SimTime::from_secs(SCALE_TICK_S), Ev::ScaleTick);
        }

        while let Some((now, ev)) = q.pop() {
            let t = now.as_secs();
            self.util_integral += f64::from(self.total_in_use()) * (t - self.last_event_s);
            self.last_event_s = t;
            match ev {
                Ev::Arrival { tenant, req } => {
                    let tenant = tenant as usize;
                    self.reap_warm(tenant, now);
                    self.tenants[tenant].arrived += 1;
                    self.tenants[tenant].arrivals_since_tick += 1;
                    let next = req as usize + 1;
                    if next < self.tenants[tenant].spec.arrival_s.len() {
                        q.schedule_at(
                            SimTime::from_secs(self.tenants[tenant].spec.arrival_s[next]),
                            Ev::Arrival {
                                tenant: tenant as u32,
                                req: req + 1,
                            },
                        );
                    }
                    self.handle_arrival(&mut q, tenant, req, now);
                    self.drain_all(t, &mut q);
                }
                Ev::Done {
                    tenant,
                    req,
                    attempt,
                    fid,
                    arrival,
                    busy_s,
                    outcome,
                } => {
                    let tenant = tenant as usize;
                    self.reap_warm(tenant, now);
                    self.quotas[self.tenants[tenant].serve_pool].release(1);
                    self.serve_held -= 1;
                    let gb = self.gb();
                    let st = &mut self.tenants[tenant];
                    st.inflight -= 1;
                    st.tally.busy_gb_s += busy_s * gb;
                    if outcome == AttemptOutcome::Crashed {
                        // The instance died mid-request: remove it and
                        // bill its keep-warm time up to the crash.
                        let inst = st.pool.retire(&[fid]).pop().expect("retired instance");
                        let idle_s = ((now - inst.created_at) - inst.busy_s - busy_s).max(0.0);
                        st.tally.idle_gb_s += idle_s * gb;
                    } else {
                        // Ok and timeout-killed attempts hand back a
                        // warm instance.
                        st.pool.release(&[fid], busy_s, now);
                    }
                    if !self.resilient() {
                        // The pre-resilience lifecycle: one attempt per
                        // request, its outcome is the verdict.
                        let st = &mut self.tenants[tenant];
                        if outcome == AttemptOutcome::Crashed {
                            st.tally.failed += 1;
                        } else {
                            st.tally.completed += 1;
                            let latency_ms = (now - arrival) * 1e3
                                + self.spec.topology.pools[st.serve_pool].rtt_ms;
                            if let Some(h) = &self.latency_h {
                                h.observe(latency_ms);
                            }
                            if latency_ms > self.spec.slo_ms {
                                self.tenants[tenant].tally.slo_violations += 1;
                            }
                        }
                    } else {
                        self.resolve_attempt(&mut q, tenant, req, attempt, arrival, outcome, t);
                    }
                    self.drain_all(t, &mut q);
                }
                Ev::HedgeFire { tenant, req } => {
                    let tenant = tenant as usize;
                    self.reap_warm(tenant, now);
                    self.hedge_fire(&mut q, tenant, req, now);
                    self.drain_all(t, &mut q);
                }
                Ev::Retry { tenant, req } => {
                    let tenant = tenant as usize;
                    self.reap_warm(tenant, now);
                    self.launch_retry(&mut q, tenant, req, now);
                    self.drain_all(t, &mut q);
                }
                Ev::ScaleTick => {
                    for tenant in 0..self.tenants.len() {
                        self.reap_warm(tenant, now);
                        let st = &mut self.tenants[tenant];
                        let load = LoadObservation {
                            now_s: t,
                            tick_s: SCALE_TICK_S,
                            inflight: st.inflight,
                            queued: st.queue.len() as u32,
                            warm_idle: st.pool.warm_count(MEMORY_MB, now),
                            arrivals_in_tick: st.arrivals_since_tick,
                            mean_service_s: SERVICE_S
                                * st.effective_service_factor()
                                * self.spec.topology.pools[st.serve_pool].compute_factor,
                        };
                        st.arrivals_since_tick = 0;
                        let decision = st.autoscaler.plan(&load);
                        self.apply_decision(tenant, decision, now);
                    }
                    self.drain_all(t, &mut q);
                    let work_remains = self.tenants.iter().any(|st| {
                        st.arrived < st.spec.arrival_s.len()
                            || st.inflight > 0
                            || !st.queue.is_empty()
                    });
                    if work_remains {
                        q.schedule_in(SCALE_TICK_S, Ev::ScaleTick);
                    }
                }
                Ev::TrainArrival { tenant } => {
                    self.start_training_run(tenant as usize, t);
                    self.drain_all(t, &mut q);
                }
                Ev::EpochDone { tenant, attempt } => {
                    let tenant = tenant as usize;
                    if attempt != self.tenants[tenant].attempt {
                        // Preempted after this completion was scheduled;
                        // the wave's lease was already returned.
                        continue;
                    }
                    let TrainState::Running { workers, .. } = self.tenants[tenant].train else {
                        unreachable!("current attempt implies a running epoch");
                    };
                    self.quotas[self.tenants[tenant].train_pool].release(workers);
                    self.train_held -= workers;
                    let done = self.tenants[tenant]
                        .exec
                        .as_ref()
                        .expect("running epoch has an execution")
                        .is_done();
                    if done {
                        self.finish_training(tenant, t, &mut q);
                    } else {
                        let st = &mut self.tenants[tenant];
                        st.train = TrainState::Ready;
                        st.queued_since = t;
                        self.train_ready.push_back(tenant as u32);
                    }
                    self.drain_all(t, &mut q);
                }
                Ev::TrainResume { tenant } => {
                    let tenant = tenant as usize;
                    let st = &mut self.tenants[tenant];
                    if st.train == TrainState::Stalled {
                        // A run preempted during its last epoch (the
                        // epoch cap) has nothing left to step: the
                        // rollback is billed, so it finishes here.
                        match st.exec.as_ref().map(TrainingExecution::is_done) {
                            Some(true) => self.finish_training(tenant, t, &mut q),
                            Some(false) => {
                                st.train = TrainState::Ready;
                                st.queued_since = t;
                                self.train_ready.push_back(tenant as u32);
                            }
                            None => {}
                        }
                    }
                    self.drain_all(t, &mut q);
                }
                Ev::Redeploy { tenant, version } => {
                    let tenant = tenant as usize;
                    let gb = self.gb();
                    let obs = self.obs.clone();
                    let st = &mut self.tenants[tenant];
                    st.version = version;
                    st.drifted = false;
                    let (service_factor, cold_factor) = version_profile(&st.spec, version);
                    st.service_factor = service_factor;
                    st.cold_factor = cold_factor;
                    // The old version's warm sandboxes cannot serve the
                    // new model: flush them, billing their idle time.
                    for r in st.pool.flush_idle(now) {
                        st.tally.idle_gb_s += r.warm_idle_s() * gb;
                    }
                    st.train = TrainState::Idle;
                    st.tally.redeploys += 1;
                    obs.counter("lifecycle.redeploys").inc();
                    obs.event(
                        t,
                        "lifecycle.redeploy",
                        &[
                            ("tenant", json!(st.spec.id)),
                            ("version", json!(version)),
                            ("service_factor", json!(service_factor)),
                            ("cold_factor", json!(cold_factor)),
                        ],
                    );
                    self.drain_all(t, &mut q);
                }
                Ev::Drift { tenant } => {
                    let tenant = tenant as usize;
                    let obs = self.obs.clone();
                    let st = &mut self.tenants[tenant];
                    if st.train == TrainState::Idle && st.version >= 1 && st.exec.is_none() {
                        st.drifted = true;
                        st.tally.drift_events += 1;
                        obs.counter("lifecycle.drift_events").inc();
                        obs.event(t, "lifecycle.drift", &[("tenant", json!(st.spec.id))]);
                        self.start_training_run(tenant, t);
                    } else {
                        // No model deployed yet, or a retrain is
                        // already in flight.
                        st.tally.drift_skipped += 1;
                    }
                    self.drain_all(t, &mut q);
                }
                Ev::OutageEnd => {
                    self.outage_end_pending = false;
                    self.drain_all(t, &mut q);
                }
            }
        }
        // The heap ran dry with requests still parked: under an outage
        // still in force they could never have served (shed_outage);
        // otherwise the run simply ended first (truncated).
        let outage_at_end = self
            .active_faults(q.now().as_secs())
            .outage_until(BACKING)
            .is_some();
        for st in &mut self.tenants {
            if outage_at_end {
                st.tally.shed_outage += st.queue.len() as u64;
            } else {
                st.tally.truncated += st.queue.len() as u64;
            }
            st.queue.clear();
        }
        let horizon = SimTime::max(q.now(), SimTime::from_secs(self.spec.duration_s));
        self.finalize(horizon)
    }

    /// Drains warm pools, settles unfinished runs, computes the bill,
    /// flushes metrics, and assembles the report.
    fn finalize(mut self, horizon: SimTime) -> LifecycleReport {
        let gb = self.gb();
        let horizon_s = horizon.as_secs();
        let mut outcomes = Vec::with_capacity(self.tenants.len());
        for st in &mut self.tenants {
            for r in st.pool.drain_remaining(horizon) {
                st.tally.idle_gb_s += r.warm_idle_s() * gb;
            }
            // A run still in flight at the horizon: its spend counts,
            // and it is a miss if its deadline already passed.
            if let Some(exec) = st.exec.take() {
                st.tally.train_dollars +=
                    exec.report().cost_usd * self.spec.topology.pools[st.train_pool].price_factor;
                if horizon_s > st.deadline_abs_s {
                    st.tally.deadline_misses += 1;
                }
            }
            let ta = &st.tally;
            let requests = st.spec.arrival_s.len() as u64;
            // Every attempt — hedge losers and failed retries included —
            // pays the invocation fee; attempts == completed + failed
            // when resilience is off.
            let price = self.spec.topology.pools[st.serve_pool].price_factor;
            let serve_dollars = PER_INVOCATION * ta.attempts as f64
                + ta.busy_gb_s * PER_GB_SECOND * price
                + ta.idle_gb_s * KEEP_WARM_PER_GB_S * price;
            outcomes.push(TenantOutcome {
                tenant: st.spec.id,
                workload: st.spec.workload.label(),
                requests,
                completed: ta.completed,
                failed: ta.failed,
                timed_out: ta.timed_out,
                shed_throttled: ta.shed_throttled,
                shed_overload: ta.shed_overload,
                shed_outage: ta.shed_outage,
                shed_breaker: ta.shed_breaker,
                truncated: ta.truncated,
                cold_starts: ta.cold_starts,
                warm_starts: ta.warm_starts,
                slo_violations: ta.slo_violations,
                drifted_served: ta.drifted_served,
                attempts: ta.attempts,
                retries: ta.retries,
                hedges: ta.hedges,
                hedge_wins: ta.hedge_wins,
                degraded: ta.degraded,
                serve_dollars,
                jobs_started: ta.jobs_started,
                jobs_completed: ta.jobs_completed,
                jobs_failed: ta.jobs_failed,
                deadline_misses: ta.deadline_misses,
                preemptions: ta.preemptions,
                epochs: ta.epochs,
                cold_resumes: ta.cold_resumes,
                train_dollars: ta.train_dollars,
                drift_events: ta.drift_events,
                drift_skipped: ta.drift_skipped,
                redeploys: ta.redeploys,
                model_version: st.version,
            });
        }
        let quota_utilization = if horizon_s > 0.0 && self.total_limit() > 0 {
            self.util_integral / (horizon_s * f64::from(self.total_limit()))
        } else {
            0.0
        };
        let quota_peak: u32 = self.quotas.iter().map(AccountQuota::peak).sum();
        let quantile =
            |h: &Option<Histogram>, q: f64| h.as_ref().and_then(|h| h.quantile(q)).unwrap_or(0.0);
        let report = LifecycleReport {
            policy: self.policy.name().to_string(),
            topology: self.spec.topology.name.clone(),
            placement: self.placement.name().to_string(),
            tenants: outcomes,
            makespan_s: horizon_s,
            quota_peak,
            quota_utilization,
            quota_stalls: self.quota_stalls,
            p50_ms: quantile(&self.latency_h, 0.50),
            p95_ms: quantile(&self.latency_h, 0.95),
            p99_ms: quantile(&self.latency_h, 0.99),
        };
        if report.requests() > 0 || report.train_jobs() > 0 {
            let sum = |f: fn(&TenantOutcome) -> u64| -> u64 { report.tenants.iter().map(f).sum() };
            self.obs
                .counter("lifecycle.requests")
                .add(report.requests());
            self.obs
                .counter("lifecycle.completed")
                .add(sum(|t| t.completed));
            self.obs.counter("lifecycle.failed").add(sum(|t| t.failed));
            self.obs
                .counter("lifecycle.shed_throttled")
                .add(sum(|t| t.shed_throttled));
            self.obs
                .counter("lifecycle.shed_overload")
                .add(sum(|t| t.shed_overload));
            self.obs
                .counter("lifecycle.shed_outage")
                .add(sum(|t| t.shed_outage));
            self.obs
                .counter("lifecycle.cold_starts")
                .add(sum(|t| t.cold_starts));
            self.obs
                .counter("lifecycle.warm_starts")
                .add(sum(|t| t.warm_starts));
            self.obs
                .counter("lifecycle.slo_violations")
                .add(sum(|t| t.slo_violations));
            self.obs
                .counter("lifecycle.drifted_served")
                .add(sum(|t| t.drifted_served));
            self.obs
                .counter("lifecycle.jobs_started")
                .add(report.train_jobs());
            self.obs
                .counter("lifecycle.deadline_misses")
                .add(report.train_misses());
            self.obs
                .counter("lifecycle.cold_resumes")
                .add(sum(|t| t.cold_resumes));
            self.obs
                .counter("lifecycle.drift_skipped")
                .add(sum(|t| t.drift_skipped));
            // Truncation can occur without resilience (it replaces the
            // old mislabelled shed_outage); emitted only when non-zero
            // so pre-resilience goldens keep their exact bytes.
            let truncated = sum(|t| t.truncated);
            if truncated > 0 {
                self.obs.counter("lifecycle.truncated").add(truncated);
            }
            // The resilience group is emitted whenever the spec is on,
            // so resilient runs export a stable metric set.
            if self.spec.resilience.enabled() {
                self.obs
                    .counter("lifecycle.timed_out")
                    .add(sum(|t| t.timed_out));
                self.obs
                    .counter("lifecycle.shed_breaker")
                    .add(sum(|t| t.shed_breaker));
                self.obs
                    .counter("resilience.attempts_total")
                    .add(sum(|t| t.attempts));
                self.obs
                    .counter("resilience.retries")
                    .add(sum(|t| t.retries));
                self.obs.counter("resilience.hedges").add(sum(|t| t.hedges));
                self.obs
                    .counter("resilience.hedge_wins")
                    .add(sum(|t| t.hedge_wins));
                self.obs
                    .counter("resilience.degraded")
                    .add(sum(|t| t.degraded));
                for st in &self.tenants {
                    if let Some(br) = &st.breaker {
                        self.obs
                            .gauge(&format!("resilience.breaker_state.t{}", st.spec.id))
                            .set(br.state().as_gauge());
                    }
                }
            }
            self.obs
                .counter("lifecycle.quota_stalls")
                .add(self.quota_stalls);
            self.obs.gauge("lifecycle.makespan_s").set(horizon_s);
            self.obs
                .gauge("lifecycle.serve_dollars")
                .set(report.serve_dollars());
            self.obs
                .gauge("lifecycle.train_dollars")
                .set(report.train_dollars());
            self.obs
                .gauge("lifecycle.total_dollars")
                .set(report.total_dollars());
            self.obs
                .gauge("lifecycle.quota_peak")
                .set(f64::from(quota_peak));
            self.obs
                .gauge("lifecycle.quota_utilization")
                .set(quota_utilization);
            self.obs
                .gauge("lifecycle.serve_violation_rate")
                .set(report.serve_violation_rate());
            self.obs
                .gauge("lifecycle.train_miss_rate")
                .set(report.train_miss_rate());
            // Substrate breakdown — emitted only when a real topology
            // is modeled, so single-pool goldens keep their bytes.
            if self.multi_pool() {
                self.obs.gauge("topo.pools").set(self.quotas.len() as f64);
                let mut tenants_by_pool = vec![0u64; self.quotas.len()];
                for st in &self.tenants {
                    tenants_by_pool[st.serve_pool] += 1;
                }
                for (i, p) in self.spec.topology.pools.iter().enumerate() {
                    self.obs
                        .counter(&format!("topo.tenants.{}", p.name))
                        .add(tenants_by_pool[i]);
                    self.obs
                        .counter(&format!("topo.train_runs.{}", p.name))
                        .add(self.train_runs_by_pool[i]);
                }
                self.obs
                    .counter("topo.publish_transfers")
                    .add(self.publish_transfers);
                self.obs
                    .gauge("topo.transfer_dollars")
                    .set(self.transfer_dollars);
            }
        }
        report
    }
}

/// Runs one lifecycle per seed, fanned out across the deterministic
/// thread pool; results return in `seeds` order with each run's own
/// registry. Each run owns its seed's whole event loop, so parallel
/// execution is bit-identical to sequential.
pub fn run_lifecycle_seeds<F>(seeds: &[u64], build: F) -> Vec<(LifecycleReport, Registry)>
where
    F: Fn(u64) -> LifecycleSim + Send + Sync,
{
    seeds
        .par_iter()
        .map(|&seed| {
            let obs = Registry::new();
            let report = build(seed).with_obs(&obs).run();
            (report, obs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{all_priorities, priority_by_name};
    use ce_chaos::FaultSchedule;
    use ce_resilience::{BreakerSpec, ResilienceSpec, RetryPolicy};

    /// A small, genuinely contended spec: 3 tenants on 12 workers.
    fn tight_spec(seed: u64) -> LifecycleSpec {
        LifecycleSpec::new(3, 120.0, seed)
            .with_quota(12)
            .with_job_cap(8)
            .with_rps(6.0)
            .with_drift_mean_s(60.0)
    }

    /// Every request ends in exactly one verdict, and every dispatch is
    /// an attempt.
    fn assert_partition(t: &TenantOutcome) {
        assert_eq!(
            t.completed
                + t.failed
                + t.timed_out
                + t.shed_throttled
                + t.shed_overload
                + t.shed_outage
                + t.shed_breaker
                + t.truncated,
            t.requests,
            "verdicts partition arrivals: {t:?}"
        );
        assert_eq!(
            t.cold_starts + t.warm_starts,
            t.attempts,
            "every attempt cold- or warm-starts: {t:?}"
        );
    }

    fn run_with(spec: LifecycleSpec, policy: &str) -> (LifecycleReport, String) {
        let registry = Registry::new();
        let policy = priority_by_name(policy).expect("known policy");
        let r = LifecycleSim::new(spec, policy).with_obs(&registry).run();
        (r, registry.export_jsonl())
    }

    #[test]
    fn same_seed_is_deterministic_down_to_the_bytes() {
        let (r1, m1) = run_with(tight_spec(42), "serve-first");
        let (r2, m2) = run_with(tight_spec(42), "serve-first");
        assert_eq!(r1, r2);
        assert_eq!(m1, m2, "metrics must be byte-identical");
        let (r3, _) = run_with(tight_spec(43), "serve-first");
        assert_ne!(r1, r3, "different seed, different run");
    }

    #[test]
    fn thread_count_does_not_change_the_bytes() {
        let (r1, m1) = rayon::with_threads(1, || run_with(tight_spec(7), "fair-share"));
        let (r8, m8) = rayon::with_threads(8, || run_with(tight_spec(7), "fair-share"));
        assert_eq!(r1, r8);
        assert_eq!(m1, m8);
    }

    #[test]
    fn every_request_gets_a_verdict() {
        let (r, _) = run_with(tight_spec(42), "serve-first");
        assert!(
            r.requests() > 500,
            "expected real traffic: {}",
            r.requests()
        );
        for t in &r.tenants {
            assert_eq!(
                t.completed + t.failed + t.shed_throttled + t.shed_overload + t.shed_outage,
                t.requests,
                "verdicts partition arrivals: {t:?}"
            );
            assert_eq!(t.cold_starts + t.warm_starts, t.completed + t.failed);
        }
        assert!(r.total_dollars() > 0.0);
        assert!(r.quota_peak <= 12);
    }

    #[test]
    fn serving_steals_quota_under_serve_first_but_never_under_train_first() {
        let (serve, _) = run_with(tight_spec(42), "serve-first");
        let (train, _) = run_with(tight_spec(42), "train-first");
        assert!(
            serve.preemptions() > 0,
            "a tight quota must force preemptions: {serve:?}"
        );
        assert_eq!(train.preemptions(), 0, "train-first never preempts");
        // The endpoints trade QoS for deadline misses.
        assert!(
            serve.serve_violation_rate() <= train.serve_violation_rate(),
            "serve-first must not serve worse: {} vs {}",
            serve.serve_violation_rate(),
            train.serve_violation_rate()
        );
    }

    #[test]
    fn training_completes_and_redeploys_models() {
        // Generous quota so training finishes fast and drift retrains.
        let spec = LifecycleSpec::new(2, 240.0, 11)
            .with_quota(32)
            .with_rps(2.0)
            .with_drift_mean_s(60.0);
        let (r, _) = run_with(spec, "fair-share");
        let redeploys: u64 = r.tenants.iter().map(|t| t.redeploys).sum();
        assert!(redeploys >= 1, "some model must publish: {r:?}");
        assert!(
            r.tenants.iter().any(|t| t.model_version >= 1),
            "a version must deploy: {r:?}"
        );
    }

    #[test]
    fn zero_fault_chaos_is_bitwise_clean() {
        let clean = run_with(tight_spec(23), "deadline");
        let zero = FaultSchedule::parse("crash:0@0..inf;coldspike:x1@0..inf").unwrap();
        let chaotic = run_with(tight_spec(23).with_chaos(zero), "deadline");
        assert_eq!(clean.0, chaotic.0);
        assert_eq!(clean.1, chaotic.1, "zero-fault chaos must be bit-clean");
    }

    #[test]
    fn chaos_changes_outcomes_but_stays_deterministic() {
        let storm = FaultSchedule::parse("crash:0.3@10..60;throttle:0.2@20..50").unwrap();
        let a = run_with(tight_spec(5).with_chaos(storm.clone()), "serve-first");
        let b = run_with(tight_spec(5).with_chaos(storm), "serve-first");
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        let (clean, _) = run_with(tight_spec(5), "serve-first");
        assert_ne!(a.0, clean, "a real storm must leave a mark");
    }

    #[test]
    fn policies_produce_distinct_frontier_points() {
        // Narrow waves on a wider quota: several epochs run
        // concurrently, so the policies' victim choices and protected
        // shares actually diverge (under one-wave-at-a-time contention
        // every preempting policy picks the same lone victim).
        let spec = |seed| {
            LifecycleSpec::new(3, 120.0, seed)
                .with_quota(16)
                .with_job_cap(4)
                .with_rps(6.0)
                .with_drift_mean_s(60.0)
        };
        let mut points = Vec::new();
        for policy in all_priorities() {
            let name = policy.name();
            let r = LifecycleSim::new(spec(42), policy).run();
            points.push((name, r.frontier_point()));
        }
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                assert_ne!(
                    points[i].1, points[j].1,
                    "{} and {} landed on the same point",
                    points[i].0, points[j].0
                );
            }
        }
    }

    #[test]
    fn multi_seed_runner_matches_sequential_runs() {
        let seeds = [1u64, 2, 3, 4];
        let par = run_lifecycle_seeds(&seeds, |s| {
            LifecycleSim::new(
                tight_spec(s),
                priority_by_name("serve-first").expect("known"),
            )
        });
        for (i, &seed) in seeds.iter().enumerate() {
            let (seq, m) = run_with(tight_spec(seed), "serve-first");
            assert_eq!(par[i].0, seq);
            assert_eq!(par[i].1.export_jsonl(), m);
        }
    }

    #[test]
    fn timeouts_type_the_verdict_per_tenant() {
        let spec = tight_spec(42).with_resilience(ResilienceSpec {
            timeout_ms: Some(100.0),
            ..ResilienceSpec::disabled()
        });
        let (r, metrics) = run_with(spec, "serve-first");
        for t in &r.tenants {
            assert_partition(t);
        }
        let timed_out: u64 = r.tenants.iter().map(|t| t.timed_out).sum();
        assert!(
            timed_out > r.requests() / 2,
            "a 100 ms deadline kills most ~250 ms requests: {r:?}"
        );
        assert!(metrics.contains(r#""name":"lifecycle.timed_out""#));
        assert!(
            r.total_dollars() > 0.0,
            "killed attempts still bill their truncated busy time"
        );
    }

    #[test]
    fn retries_cut_failures_under_a_crash_storm_at_higher_cost() {
        let storm = || FaultSchedule::parse("crash:0.5@10..60").unwrap();
        let (base, _) = run_with(tight_spec(5).with_chaos(storm()), "serve-first");
        let spec = tight_spec(5)
            .with_chaos(storm())
            .with_resilience(ResilienceSpec {
                retry: Some(RetryPolicy::new(2)),
                ..ResilienceSpec::disabled()
            });
        let (r, _) = run_with(spec, "serve-first");
        for t in &r.tenants {
            assert_partition(t);
        }
        let failed = |rep: &LifecycleReport| -> u64 { rep.tenants.iter().map(|t| t.failed).sum() };
        let retries: u64 = r.tenants.iter().map(|t| t.retries).sum();
        assert!(retries > 0, "the storm must trigger retries: {r:?}");
        assert!(
            failed(&r) < failed(&base),
            "retries must save requests: {} vs {}",
            failed(&r),
            failed(&base)
        );
        assert!(
            r.serve_dollars() > base.serve_dollars(),
            "every extra attempt is billed: {} vs {}",
            r.serve_dollars(),
            base.serve_dollars()
        );
    }

    #[test]
    fn hedges_take_spare_quota_but_never_preempt_training() {
        // A generous quota leaves spare workers for hedges; train-first
        // structurally never preempts, so any preemption would be ours.
        let spec = LifecycleSpec::new(2, 120.0, 9)
            .with_quota(64)
            .with_rps(4.0)
            .with_resilience(ResilienceSpec {
                hedge: Some(ce_resilience::HedgePolicy::FixedMs(100.0)),
                ..ResilienceSpec::disabled()
            });
        let (r, _) = run_with(spec, "train-first");
        for t in &r.tenants {
            assert_partition(t);
        }
        let hedges: u64 = r.tenants.iter().map(|t| t.hedges).sum();
        let completed: u64 = r.tenants.iter().map(|t| t.completed).sum();
        let attempts: u64 = r.tenants.iter().map(|t| t.attempts).sum();
        assert!(
            hedges > 0,
            "a 100 ms delay under ~250 ms service hedges: {r:?}"
        );
        assert!(
            attempts > completed,
            "hedge losers are real billed attempts"
        );
        assert_eq!(r.preemptions(), 0, "hedges never evict an epoch");
        assert!(r.quota_peak <= 64, "hedges stay within the shared quota");
    }

    #[test]
    fn breaker_sheds_fast_during_a_total_crash_storm() {
        let storm = FaultSchedule::parse("crash:1@20..80").unwrap();
        let spec = tight_spec(7)
            .with_chaos(storm)
            .with_resilience(ResilienceSpec {
                breaker: Some(BreakerSpec::new(0.5)),
                ..ResilienceSpec::disabled()
            });
        let (r, metrics) = run_with(spec, "serve-first");
        for t in &r.tenants {
            assert_partition(t);
        }
        let shed: u64 = r.tenants.iter().map(|t| t.shed_breaker).sum();
        let failed: u64 = r.tenants.iter().map(|t| t.failed).sum();
        assert!(shed > 0, "every tenant's breaker must trip: {r:?}");
        assert!(
            shed > failed,
            "most doomed dispatches become fast sheds: {shed} vs {failed}"
        );
        assert!(metrics.contains(r#""name":"resilience.breaker""#));
    }

    #[test]
    fn tiny_queue_cap_sheds_overload_instead_of_queueing() {
        let spec = tight_spec(3).with_quota(4).with_queue_cap(2);
        let (r, _) = run_with(spec, "train-first");
        let overload: u64 = r.tenants.iter().map(|t| t.shed_overload).sum();
        assert!(overload > 0, "a 2-slot queue under 6 rps must shed: {r:?}");
        for t in &r.tenants {
            assert_partition(t);
        }
    }

    #[test]
    fn single_pool_topology_is_byte_identical_whatever_the_placement_name() {
        let (base, bm) = run_with(tight_spec(42), "serve-first");
        for placement in ce_topo::placement_names() {
            let spec = tight_spec(42)
                .with_topology(ce_topo::Topology::single())
                .with_placement(placement);
            let (mut r, m) = run_with(spec, "serve-first");
            // The report labels which policy was configured; the label
            // is the only thing allowed to differ single-pool.
            r.placement = base.placement.clone();
            assert_eq!(base, r, "placement {placement} must be inert single-pool");
            assert_eq!(bm, m, "single-pool metrics must keep their bytes");
        }
    }

    #[test]
    fn edge_cloud_lifecycle_is_deterministic_and_splits_the_fleet() {
        let spec = || {
            tight_spec(42)
                .with_topology(ce_topo::Topology::edge_cloud())
                .with_placement("workload-aware")
        };
        let (r1, m1) = run_with(spec(), "serve-first");
        let (r2, m2) = run_with(spec(), "serve-first");
        assert_eq!(r1, r2);
        assert_eq!(m1, m2, "multi-pool runs must stay byte-deterministic");
        assert_eq!(r1.topology, "edge-cloud");
        assert_eq!(r1.placement, "workload-aware");
        for t in &r1.tenants {
            assert_partition(t);
        }
        assert!(m1.contains(r#""name":"topo.pools""#));
        assert!(m1.contains(r#""name":"topo.tenants.edge""#));
        assert!(m1.contains(r#""name":"topo.train_runs.cloud""#));
        let (single, _) = run_with(tight_spec(42), "serve-first");
        assert_ne!(r1, single, "a real substrate must leave a mark");
    }

    #[test]
    fn off_pool_publishes_cross_the_link_and_pay_egress() {
        // Generous pools so training converges: workload-aware pins
        // serving to the idle low-RTT edge and places the wide
        // training waves on the deep cloud, so every publish crosses
        // the edge–cloud link.
        let spec = LifecycleSpec::new(2, 240.0, 11)
            .with_quota(32)
            .with_rps(2.0)
            .with_drift_mean_s(60.0)
            .with_topology(ce_topo::Topology::edge_cloud())
            .with_placement("workload-aware");
        let (r, metrics) = run_with(spec, "fair-share");
        let redeploys: u64 = r.tenants.iter().map(|t| t.redeploys).sum();
        assert!(redeploys >= 1, "some model must publish: {r:?}");
        assert!(
            metrics.contains(r#""name":"topo.publish_transfers""#),
            "multi-pool runs report their transfer tally"
        );
        let transfers: u64 = metrics
            .lines()
            .find(|l| l.contains(r#""name":"topo.publish_transfers""#))
            .and_then(|l| {
                serde_json::from_str::<serde_json::Value>(l)
                    .ok()
                    .and_then(|v| v["value"].as_u64())
            })
            .expect("transfer counter parses");
        assert!(
            transfers >= redeploys,
            "every off-pool publish crosses the link: {transfers} vs {redeploys}"
        );
    }

    /// An hour of 8-tenant serve-first traffic preempts some run during
    /// its capped final epoch. Its resume must finish the run, not queue
    /// a finished execution for another epoch.
    #[test]
    fn run_preempted_on_its_last_epoch_finishes_on_resume() {
        let spec = LifecycleSpec::new(8, 3600.0, 42)
            .with_quota(32)
            .with_job_cap(8)
            .with_rps(4.0)
            .with_drift_mean_s(150.0);
        let (r, _) = run_with(spec, "serve-first");
        assert!(r.preemptions() > 0, "serve-first must preempt: {r:?}");
        for t in &r.tenants {
            assert_partition(t);
            assert!(
                t.jobs_completed + t.jobs_failed <= t.jobs_started,
                "a run ends at most once: {t:?}"
            );
        }
    }

    #[test]
    fn empty_fleet_is_a_no_op() {
        let registry = Registry::new();
        let r = LifecycleSim::new(
            LifecycleSpec::new(0, 100.0, 1),
            priority_by_name("serve-first").expect("known"),
        )
        .with_obs(&registry)
        .run();
        assert_eq!(r.requests(), 0);
        assert_eq!(r.total_dollars(), 0.0);
        assert_eq!(registry.export_jsonl(), "");
    }
}
