//! Timing decorators for the policy trait objects the simulators accept.
//!
//! Each wrapper forwards every trait method — the defaulted ones too —
//! to the wrapped policy and charges the host time of the calls it
//! times to a shared [`Meter`]. Forwarding matters beyond timing: a
//! wrapper that fell back to a trait default (say `dispatch_key`) would
//! silently change which engine or branch the simulator takes.
//!
//! Clones made through `clone_box` share their parent's meters, so the
//! per-pool policy copies a simulator makes all report into one place.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ce_cluster::{Admission, AdmissionPolicy, ClusterView, JobSpec, ReadyJob};
use ce_faas::KeepAlive;
use ce_lifecycle::{PriorityPolicy, QuotaView, VictimView};
use ce_serve::{Autoscaler, LoadObservation, ScaleDecision};
use ce_sim_core::SimTime;

/// Call count and host nanoseconds spent in one layer's calls.
#[derive(Debug, Default)]
pub struct Meter {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Meter {
    /// Runs `f`, charging one call and its elapsed host time.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Calls charged so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Host nanoseconds charged so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean host nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        per(self.ns() as f64, self.calls())
    }
}

/// `total / count`, or 0 for an empty base.
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Times `KeepAlive::ttl_s` and `KeepAlive::observe_arrival`.
#[derive(Debug)]
pub struct TimedKeepAlive {
    pub inner: Box<dyn KeepAlive>,
    pub ttl: Arc<Meter>,
    pub observe: Arc<Meter>,
}

impl KeepAlive for TimedKeepAlive {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ttl_s(&self, now: SimTime) -> f64 {
        self.ttl.time(|| self.inner.ttl_s(now))
    }

    fn observe_arrival(&mut self, now: SimTime) {
        let inner = &mut self.inner;
        self.observe.time(|| inner.observe_arrival(now));
    }

    fn clone_box(&self) -> Box<dyn KeepAlive> {
        Box::new(TimedKeepAlive {
            inner: self.inner.clone_box(),
            ttl: Arc::clone(&self.ttl),
            observe: Arc::clone(&self.observe),
        })
    }
}

/// Times `Autoscaler::plan`; `initial` runs once per pool and is
/// forwarded untimed.
#[derive(Debug)]
pub struct TimedAutoscaler {
    pub inner: Box<dyn Autoscaler>,
    pub plan: Arc<Meter>,
}

impl Autoscaler for TimedAutoscaler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial(&self) -> ScaleDecision {
        self.inner.initial()
    }

    fn plan(&mut self, load: &LoadObservation) -> ScaleDecision {
        let inner = &mut self.inner;
        self.plan.time(|| inner.plan(load))
    }

    fn clone_box(&self) -> Box<dyn Autoscaler> {
        Box::new(TimedAutoscaler {
            inner: self.inner.clone_box(),
            plan: Arc::clone(&self.plan),
        })
    }
}

/// Times every admission and dispatch decision of a fleet policy.
pub struct TimedAdmission {
    pub inner: Box<dyn AdmissionPolicy>,
    pub meter: Arc<Meter>,
}

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&self, job: &JobSpec, view: &ClusterView) -> Admission {
        self.meter.time(|| self.inner.admit(job, view))
    }

    fn pick(&self, ready: &[ReadyJob<'_>], view: &ClusterView) -> Option<usize> {
        self.meter.time(|| self.inner.pick(ready, view))
    }

    fn dispatch_key(&self, job: &ReadyJob<'_>) -> Option<f64> {
        self.meter.time(|| self.inner.dispatch_key(job))
    }
}

/// Times every preemption and drain-order decision of a lifecycle
/// priority policy.
pub struct TimedPriority {
    pub inner: Box<dyn PriorityPolicy>,
    pub meter: Arc<Meter>,
}

impl PriorityPolicy for TimedPriority {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn preempt_victim(&self, victims: &[VictimView], view: &QuotaView) -> Option<usize> {
        self.meter.time(|| self.inner.preempt_victim(victims, view))
    }

    fn serve_drains_first(&self, view: &QuotaView) -> bool {
        self.meter.time(|| self.inner.serve_drains_first(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_models::Workload;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn keep_alive_wrapper_forwards_every_method() {
        let inner = ce_faas::parse_keep_alive("histogram").unwrap();
        let mut bare = inner.clone_box();
        let mut timed = TimedKeepAlive {
            inner,
            ttl: Arc::default(),
            observe: Arc::default(),
        };
        for i in 0..50 {
            let now = t(f64::from(i * i) * 0.7);
            bare.observe_arrival(now);
            timed.observe_arrival(now);
            assert_eq!(bare.ttl_s(now).to_bits(), timed.ttl_s(now).to_bits());
        }
        assert_eq!(timed.name(), bare.name());
        let clone = timed.clone_box();
        assert_eq!(clone.ttl_s(t(1e4)).to_bits(), bare.ttl_s(t(1e4)).to_bits());
        assert_eq!(timed.observe.calls(), 50);
        // The clone charges the parent's meter.
        assert_eq!(timed.ttl.calls(), 51);
    }

    #[test]
    fn autoscaler_wrapper_forwards_every_method() {
        let inner = ce_serve::parse_autoscaler("prewarm").unwrap();
        let mut bare = inner.clone_box();
        let mut timed = TimedAutoscaler {
            inner,
            plan: Arc::default(),
        };
        assert_eq!(timed.name(), bare.name());
        assert_eq!(timed.initial(), bare.initial());
        for i in 0..20u32 {
            let load = LoadObservation {
                now_s: f64::from(i),
                tick_s: 1.0,
                inflight: i % 7,
                queued: i % 3,
                warm_idle: i % 5,
                arrivals_in_tick: i * 2,
                mean_service_s: 0.25,
            };
            assert_eq!(timed.plan(&load), bare.plan(&load));
        }
        assert_eq!(timed.clone_box().name(), bare.name());
        assert_eq!(timed.plan.calls(), 20);
    }

    /// A policy overriding every method with non-default answers, so a
    /// wrapper that fell back to a trait default shows up.
    struct Odd;

    impl AdmissionPolicy for Odd {
        fn name(&self) -> &'static str {
            "odd"
        }
        fn admit(&self, _job: &JobSpec, _view: &ClusterView) -> Admission {
            Admission::Reject
        }
        fn pick(&self, ready: &[ReadyJob<'_>], _view: &ClusterView) -> Option<usize> {
            ready.len().checked_sub(1)
        }
        fn dispatch_key(&self, job: &ReadyJob<'_>) -> Option<f64> {
            Some(-(job.spec.id as f64))
        }
    }

    impl PriorityPolicy for Odd {
        fn name(&self) -> &'static str {
            "odd"
        }
        fn preempt_victim(&self, victims: &[VictimView], _view: &QuotaView) -> Option<usize> {
            victims.len().checked_sub(1)
        }
        fn serve_drains_first(&self, _view: &QuotaView) -> bool {
            false
        }
    }

    #[test]
    fn admission_wrapper_forwards_every_method_including_defaults() {
        let spec = JobSpec {
            id: 3,
            tenant: 0,
            arrival_s: 1.0,
            workload: Workload::lr_higgs(),
            budget_usd: 5.0,
            deadline_s: 60.0,
            seed: 9,
        };
        let view = ClusterView {
            now_s: 1.0,
            quota_in_use: 0,
            quota_limit: 8,
            queue_len: 0,
            running: 0,
        };
        let ready = [
            ReadyJob {
                spec: &spec,
                workers: 2,
                queued_since_s: 1.0,
            },
            ReadyJob {
                spec: &spec,
                workers: 4,
                queued_since_s: 2.0,
            },
        ];
        let timed = TimedAdmission {
            inner: Box::new(Odd),
            meter: Arc::default(),
        };
        assert_eq!(timed.name(), "odd");
        assert_eq!(timed.admit(&spec, &view), Admission::Reject);
        assert_eq!(timed.pick(&ready, &view), Some(1));
        assert_eq!(timed.dispatch_key(&ready[0]), Some(-3.0));
        assert_eq!(timed.meter.calls(), 3);
        // The registry policies: a keyed policy must stay keyed, or the
        // fleet silently drops to the naive scan engine.
        for name in ce_cluster::policy_names() {
            let bare = ce_cluster::policy_by_name(name).unwrap();
            let timed = TimedAdmission {
                inner: ce_cluster::policy_by_name(name).unwrap(),
                meter: Arc::default(),
            };
            assert_eq!(timed.name(), bare.name());
            assert_eq!(timed.dispatch_key(&ready[1]), bare.dispatch_key(&ready[1]));
            assert_eq!(timed.admit(&spec, &view), bare.admit(&spec, &view));
            assert_eq!(timed.pick(&ready, &view), bare.pick(&ready, &view));
        }
    }

    /// Decorated and bare small simulations must report byte-identical
    /// outputs.
    #[test]
    fn decorated_simulators_reproduce_the_bare_outputs() {
        fn json<T: serde::Serialize>(report: &T) -> String {
            serde_json::to_string(report).unwrap()
        }
        let serve = |timed: bool| {
            let spec =
                ce_serve::ServeSpec::new(ce_serve::ArrivalModel::Poisson { rps: 20.0 }, 300.0, 7);
            let mut autoscaler = ce_serve::parse_autoscaler("target").unwrap();
            let mut keep_alive = ce_faas::parse_keep_alive("histogram").unwrap();
            if timed {
                autoscaler = Box::new(TimedAutoscaler {
                    inner: autoscaler,
                    plan: Arc::default(),
                });
                keep_alive = Box::new(TimedKeepAlive {
                    inner: keep_alive,
                    ttl: Arc::default(),
                    observe: Arc::default(),
                });
            }
            let obs = ce_obs::Registry::new();
            json(
                &ce_serve::ServeSim::new(spec, autoscaler, keep_alive)
                    .with_obs(&obs)
                    .run(),
            )
        };
        assert_eq!(serve(true), serve(false));
        let fleet = |timed: bool| {
            let spec =
                ce_cluster::ClusterSpec::new(ce_cluster::FleetSpec::poisson(20, 12.0, 7), 60);
            let mut policy = ce_cluster::policy_by_name("edf").unwrap();
            if timed {
                policy = Box::new(TimedAdmission {
                    inner: policy,
                    meter: Arc::default(),
                });
            }
            let obs = ce_obs::Registry::new();
            json(
                &ce_cluster::ClusterSim::new(spec, policy)
                    .with_obs(&obs)
                    .run(),
            )
        };
        assert_eq!(fleet(true), fleet(false));
        let lifecycle = |timed: bool| {
            let spec = ce_lifecycle::LifecycleSpec::new(2, 300.0, 7).with_quota(8);
            let mut policy = ce_lifecycle::priority_by_name("fair-share").unwrap();
            if timed {
                policy = Box::new(TimedPriority {
                    inner: policy,
                    meter: Arc::default(),
                });
            }
            let obs = ce_obs::Registry::new();
            json(
                &ce_lifecycle::LifecycleSim::new(spec, policy)
                    .with_obs(&obs)
                    .run(),
            )
        };
        assert_eq!(lifecycle(true), lifecycle(false));
    }

    #[test]
    fn priority_wrapper_forwards_every_method_including_defaults() {
        let view = QuotaView {
            now_s: 5.0,
            in_use: 8,
            limit: 8,
            serve_held: 2,
            train_held: 6,
            ready_train_slack_s: Some(-1.0),
        };
        let victims = [
            VictimView {
                tenant: 0,
                workers: 2,
                slack_s: 10.0,
            },
            VictimView {
                tenant: 1,
                workers: 4,
                slack_s: -5.0,
            },
        ];
        let timed = TimedPriority {
            inner: Box::new(Odd),
            meter: Arc::default(),
        };
        assert_eq!(timed.name(), "odd");
        assert_eq!(timed.preempt_victim(&victims, &view), Some(1));
        assert!(!timed.serve_drains_first(&view));
        assert_eq!(timed.meter.calls(), 2);
        for name in ce_lifecycle::priority_names() {
            let bare = ce_lifecycle::priority_by_name(name).unwrap();
            let timed = TimedPriority {
                inner: ce_lifecycle::priority_by_name(name).unwrap(),
                meter: Arc::default(),
            };
            assert_eq!(timed.name(), bare.name());
            assert_eq!(
                timed.preempt_victim(&victims, &view),
                bare.preempt_victim(&victims, &view)
            );
            assert_eq!(
                timed.serve_drains_first(&view),
                bare.serve_drains_first(&view)
            );
        }
    }
}
