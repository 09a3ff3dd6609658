//! The repository benchmark for the CE-scaling simulator.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! ```
//!
//! Runs one workload (see `workloads.rs` and `perfbench/README.md`),
//! checks the simulated outputs, and prints one metric per line followed
//! by a last line holding a JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` wraps the simulators' policies in
//! timing decorators and reports the per-layer metrics.
//!
//! Host time and simulated time are kept apart: every simulated
//! quantity carries the `sim_` prefix.

mod calib;
mod host;
mod metrics;
mod timed;
mod workloads;

use std::panic::AssertUnwindSafe;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::metrics::Report;
use crate::workloads::{Kind, Layers, Outcome};

/// The default workload seed.
const DEFAULT_SEED: u64 = 42;

/// Seeds one invocation simulates: `--seed` and the ones after it.
/// Several seeds keep one seed's unusually cheap or costly traffic
/// from setting the throughput figures alone.
const SEEDS_PER_RUN: u64 = 8;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: time one set-up (and run) in this fresh process.
    sample: Option<SampleMode>,
}

/// What a fresh-process sample times.
#[derive(Clone, Copy, PartialEq)]
enum SampleMode {
    /// Only the set-up.
    Setup,
    /// The set-up and the simulation.
    Run,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut sample) =
        (None, DEFAULT_SEED, 10, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sample" => {
                sample = match value.as_str() {
                    "setup" => Some(SampleMode::Setup),
                    "run" => Some(SampleMode::Run),
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option: {flag}")),
        }
    }
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    let kind = kind.ok_or_else(|| format!("--workload is required ({})", names.join("|")))?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        sample,
    })
}

/// One guarded simulation: its set-up and run wall-clock seconds and
/// its outcome.
struct Sample {
    setup_s: f64,
    run_s: f64,
    outcome: Outcome,
}

/// Runs `f` inside a panic guard; a panic becomes its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| host::panic_message(payload.as_ref()))
}

/// Sets up and runs `kind` on one worker thread, inside a panic guard,
/// timing both by the wall clock.
fn simulate(kind: Kind, seed: u64, layers: Option<&Layers>) -> Result<Sample, String> {
    guarded(|| {
        rayon::with_threads(1, || {
            let start = Instant::now();
            let prepared = workloads::prepare(kind, seed, layers);
            let setup_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let outcome = workloads::execute(prepared, layers);
            Sample {
                setup_s,
                run_s: start.elapsed().as_secs_f64(),
                outcome,
            }
        })
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One line per panic; the guarded runs report the message again.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    if let Some(mode) = args.sample {
        return sample_in_this_process(&args, mode);
    }
    let mut report = Report::new(args.kind);
    println!("host {}", host::stamp(args.kind, args.seed, args.trace));
    let result = if args.trace {
        run_traced(&args, &mut report)
    } else {
        run_end_to_end(&args, &mut report)
    };
    if let Err(e) = result {
        report.fail(&e);
    }
    report.finish(args.trace)
}

/// Fresh-process mode: the set-up, which finds every cache of the
/// simulator cold as a user's process does, and with `SampleMode::Run`
/// the simulation too. Prints what `host::child_setup` and
/// `host::child_run` read.
fn sample_in_this_process(args: &Args, mode: SampleMode) -> ExitCode {
    let sample = if mode == SampleMode::Setup {
        guarded(|| {
            rayon::with_threads(1, || {
                let start = Instant::now();
                drop(workloads::prepare(args.kind, args.seed, None));
                println!("setup_s {}", start.elapsed().as_secs_f64());
            })
        })
    } else {
        let (sample, speed) = calib::bracketed(|| simulate(args.kind, args.seed, None));
        sample.map(|s| {
            println!("speed {speed}");
            println!("setup_s {}", s.setup_s);
            println!("digest {}", host::digest(&s.outcome.report));
            println!("run_s {}", s.run_s);
            println!("ops {}", s.outcome.ops);
            println!("vmhwm_kb {}", host::peak_rss_kb().unwrap_or(0));
        })
    };
    match sample {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            println!("error {e}");
            ExitCode::FAILURE
        }
    }
}

/// The untimed warm-up run: its outputs are the reference every later
/// run of `--seed` must reproduce byte for byte, and at the default
/// seed its digest must match the one kept in the benchmark.
fn warm_up(args: &Args, report: &mut Report) -> Result<Sample, String> {
    let probe_panics = if args.kind == Kind::LifecycleColo {
        lifecycle_probe(args.seed, report)
    } else {
        0
    };
    report.metric("ce-lifecycle.probe_panics", "count", probe_panics as f64);
    let warm = simulate(args.kind, args.seed, None)?;
    report.attempt(warm.outcome.ops);
    if args.seed == DEFAULT_SEED {
        let digest = host::digest(&warm.outcome.report);
        let want = args.kind.reference_digest();
        if digest != want {
            report.fail(&format!("report digest {digest} != reference {want}"));
        }
    }
    Ok(warm)
}

/// The known `ce-lifecycle` panic: the same traffic for one hour under
/// `serve-first`. Untimed and not one of the workload's operations: the
/// panic is printed with its message and returned as a count (1 while
/// the simulator panics, else 0).
fn lifecycle_probe(seed: u64, report: &Report) -> u64 {
    let start = Instant::now();
    let probe = std::panic::catch_unwind(|| {
        let policy = ce_lifecycle::priority_by_name("serve-first").expect("policy");
        ce_lifecycle::LifecycleSim::new(workloads::lifecycle_spec(seed, 3600.0), policy)
            .with_obs(&ce_obs::Registry::new())
            .run()
    });
    match probe {
        Ok(_) => 0,
        Err(payload) => {
            let msg = host::panic_message(payload.as_ref());
            report.note(&format!(
                "probe lifecycle 3600 s serve-first panicked after {:.1} s: {msg}",
                start.elapsed().as_secs_f64()
            ));
            1
        }
    }
}

/// Counts `got`'s operations and checks its digest against `want`.
fn check_digest(report: &mut Report, what: &str, want: &str, got: &Outcome) {
    report.attempt(got.ops);
    let digest = host::digest(&got.report);
    if digest != want {
        report.fail(&format!("{what}: outputs differ ({digest} != {want})"));
    }
}

/// Runs `seeds` as one sweep at `threads` workers; returns its wall
/// time, set-ups included, and the samples in seed order.
fn run_batch(kind: Kind, seeds: &[u64], threads: usize) -> (Duration, Vec<Result<Sample, String>>) {
    let start = Instant::now();
    let samples = rayon::with_threads(threads, || {
        seeds.par_iter().map(|&s| simulate(kind, s, None)).collect()
    });
    (start.elapsed(), samples)
}

/// Checks a batch's samples against the 1-thread digests of the same
/// seeds; returns the operations the batch completed.
fn check_batch(
    report: &mut Report,
    samples: Vec<Result<Sample, String>>,
    digests: &[String],
) -> u64 {
    let mut ops = 0;
    for (sample, want) in samples.into_iter().zip(digests) {
        match sample {
            Ok(s) => {
                check_digest(report, "batch at nproc threads", want, &s.outcome);
                ops += s.outcome.ops;
            }
            Err(e) => report.fail(&e),
        }
    }
    ops
}

/// Repeats `sample`, which returns how long it took, at least `min`
/// times and then while another would still end within `window`.
fn repeat_for(window: Duration, min: usize, mut sample: impl FnMut() -> Duration) {
    let start = Instant::now();
    for n in 1.. {
        let took = sample();
        if n >= min && start.elapsed() + took > window {
            break;
        }
    }
}

/// Set-up-only processes take this fraction of the time (its inverse).
const SETUP_SHARE: u32 = 20;

/// Cold set-ups measured in fresh processes of their own, at least.
const MIN_SETUP_SAMPLES: usize = 24;

/// What the end-to-end run has measured so far.
struct EndToEnd {
    kind: Kind,
    seeds: Vec<u64>,
    /// Each seed's reference digest: the warm-up's for `--seed`, else
    /// the seed's first fresh-process run.
    digests: Vec<String>,
    /// Each seed's fresh-process run seconds, wall-clock and
    /// calibrated, and its operations.
    run_s: Vec<Vec<f64>>,
    calibrated_s: Vec<Vec<f64>>,
    ops: Vec<u64>,
    rss_kb: Vec<f64>,
    /// Cold set-up seconds, and the wall time spent on set-up-only
    /// processes.
    setup_s: Vec<f64>,
    setup_spent: Duration,
    /// Each sweep's operations per wall-clock second.
    batch_rates: Vec<f64>,
    /// The host speed measured around each fresh run.
    speeds: Vec<f64>,
}

impl EndToEnd {
    fn new(kind: Kind, seeds: Vec<u64>, warm: &Sample) -> Self {
        EndToEnd {
            kind,
            digests: vec![host::digest(&warm.outcome.report)],
            run_s: vec![Vec::new(); seeds.len()],
            calibrated_s: vec![Vec::new(); seeds.len()],
            ops: vec![0; seeds.len()],
            seeds,
            rss_kb: Vec::new(),
            setup_s: Vec::new(),
            setup_spent: Duration::ZERO,
            batch_rates: Vec::new(),
            speeds: Vec::new(),
        }
    }

    /// Set-ups alone, each in a fresh process so that the simulator's
    /// caches (the profiler's among them) start cold, the seeds in
    /// turn, until they have taken `share` of the time and there are
    /// at least `min` of them.
    fn cold_setups(&mut self, share: Duration, min: usize) -> Result<(), String> {
        while self.setup_spent < share || self.setup_s.len() < min {
            let start = Instant::now();
            let seed = self.seeds[self.setup_s.len() % self.seeds.len()];
            self.setup_s.push(host::child_setup(self.kind, seed)?);
            self.setup_spent += start.elapsed();
        }
        Ok(())
    }

    /// Sets up and runs seed `i` in a fresh process of its own.
    fn fresh_run(&mut self, report: &mut Report, i: usize) -> Result<(), String> {
        let seed = self.seeds[i];
        let run = host::child_run(self.kind, seed)?;
        report.attempt(run.ops);
        if self.digests.len() == i {
            self.digests.push(run.digest);
        } else if run.digest != self.digests[i] {
            report.fail(&format!(
                "seed {seed} in a fresh process: outputs differ ({} != {})",
                run.digest, self.digests[i]
            ));
        }
        if self.run_s[i].is_empty() {
            self.rss_kb.push(run.rss_kb as f64);
        }
        self.setup_s.push(run.setup_s);
        self.run_s[i].push(run.run_s);
        self.calibrated_s[i].push(run.run_s * run.speed);
        self.speeds.push(run.speed);
        self.ops[i] = run.ops;
        Ok(())
    }

    /// The first `threads` seeds (at least two) as one sweep at
    /// `threads` workers, checked against their 1-thread digests.
    fn sweep(&mut self, report: &mut Report, threads: usize) {
        let n = threads.clamp(2, self.seeds.len());
        let (wall, samples) = run_batch(self.kind, &self.seeds[..n], threads);
        let ops = check_batch(report, samples, &self.digests[..n]);
        self.batch_rates.push(ops as f64 / wall.as_secs_f64());
    }
}

/// `--trace 0`: the end-to-end metrics. The window of `--seconds`
/// includes the warm-up. After it, each seed runs in a fresh process
/// of its own, one after another; then `nproc` of them run as one
/// sweep at `nproc` workers; then further fresh runs, the seeds in
/// turn, fill the window. Set-up-only processes in between take a
/// twentieth of the time.
fn run_end_to_end(args: &Args, report: &mut Report) -> Result<(), String> {
    let started = Instant::now();
    let window = Duration::from_secs(args.seconds.max(1));
    let warm = warm_up(args, report)?;
    let seeds = (0..SEEDS_PER_RUN)
        .map(|i| args.seed.wrapping_add(i))
        .collect();
    let mut e2e = EndToEnd::new(args.kind, seeds, &warm);
    let threads = host::nproc();
    let phase = Instant::now();
    for i in 0..e2e.seeds.len() {
        e2e.fresh_run(report, i)?;
        e2e.cold_setups(phase.elapsed() / SETUP_SHARE, 0)?;
    }
    e2e.sweep(report, threads);
    for i in (0..e2e.seeds.len()).cycle() {
        let slowest = e2e.run_s.iter().flatten().copied().fold(0.0, f64::max);
        if started.elapsed() + Duration::from_secs_f64(slowest) > window {
            break;
        }
        e2e.fresh_run(report, i)?;
        e2e.cold_setups(phase.elapsed() / SETUP_SHARE, 0)?;
    }
    e2e.cold_setups(phase.elapsed() / SETUP_SHARE, MIN_SETUP_SAMPLES)?;

    // Each seed's operations over its median run time, then the median
    // over the seeds, so one seed with unusually costly traffic
    // (lifecycle seeds differ up to threefold) does not set it. Host
    // times are calibrated (see `calib.rs`); set-ups are too short to
    // bracket one by one, so they are scaled by the median host speed.
    let ops_per_s = |times: &[Vec<f64>]| {
        let rates: Vec<f64> = e2e
            .ops
            .iter()
            .zip(times)
            .map(|(&ops, times)| ops as f64 / metrics::median(times))
            .collect();
        metrics::median(&rates)
    };
    let setup_s = metrics::median(&e2e.setup_s);
    let speed = metrics::median(&e2e.speeds);
    report.metric("ops_per_s", "1/s", ops_per_s(&e2e.calibrated_s));
    report.metric("batch_ops_per_s", "1/s", metrics::median(&e2e.batch_rates));
    report.metric("setup_s", "s", setup_s * speed);
    report.metric("peak_rss_mb", "MB", metrics::median(&e2e.rss_kb) / 1024.0);
    for (name, unit, value) in &warm.outcome.sim {
        report.metric(name, unit, *value);
    }
    report.note(&format!(
        "seeds {:?}; operations per seed {:?}; run seconds per seed {:.3?}",
        e2e.seeds, e2e.ops, e2e.run_s
    ));
    report.note(&format!("{} cold set-ups", e2e.setup_s.len()));
    report.note(&format!(
        "median host speed {speed:.4}; uncalibrated: ops_per_s {} setup_s {setup_s}",
        ops_per_s(&e2e.run_s)
    ));
    report.note(&format!("sweep throughput {:.0?}", e2e.batch_rates));
    Ok(())
}

/// `--trace 1`: the per-layer metrics.
fn run_traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let warm = warm_up(args, report)?;
    let warm_digest = host::digest(&warm.outcome.report);
    let layers = Layers::default();
    let window = Duration::from_secs(args.seconds.max(1)) / 2;
    let (mut bare_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut failure = None;
    repeat_for(window, 2, || {
        let start = Instant::now();
        let pair = simulate(args.kind, args.seed, None).and_then(|bare| {
            simulate(args.kind, args.seed, Some(&layers)).map(|traced| (bare, traced))
        });
        match pair {
            Ok((bare, traced)) => {
                check_digest(report, "untraced run", &warm_digest, &bare.outcome);
                report.attempt(traced.outcome.ops);
                if traced.outcome.report != bare.outcome.report {
                    report.fail("traced run: outputs differ from the untraced run");
                }
                bare_s.push(bare.run_s);
                traced_s.push(traced.run_s);
            }
            Err(e) => failure = Some(e),
        }
        start.elapsed()
    });
    if let Some(e) = failure {
        return Err(e);
    }
    workloads::replay_layers(args.kind, args.seed, &layers);

    // Executor: `nproc` seeds at 1 worker against nproc workers.
    let threads = host::nproc();
    let seeds: Vec<u64> = (0..threads.max(2) as u64)
        .map(|i| args.seed.wrapping_add(i))
        .collect();
    let (one_wall, one) = run_batch(args.kind, &seeds, 1);
    let digests = one
        .into_iter()
        .map(|s| s.map(|s| host::digest(&s.outcome.report)))
        .collect::<Result<Vec<_>, _>>()?;
    if digests[0] != warm_digest {
        report.fail("1-thread batch: outputs differ from the reference run");
    }
    let (n_wall, samples) = run_batch(args.kind, &seeds, threads);
    check_batch(report, samples, &digests);

    let runs = traced_s.len() as u64;
    let traced_total_s = traced_s.iter().sum::<f64>();
    metrics::layer_metrics(report, &layers, runs, &warm.outcome, traced_total_s);
    report.metric(
        "rayon.batch_speedup",
        "ratio",
        one_wall.as_secs_f64() / n_wall.as_secs_f64(),
    );
    report.metric(
        "trace.overhead_pct",
        "%",
        (metrics::fastest(&traced_s) / metrics::fastest(&bare_s) - 1.0) * 100.0,
    );
    report.note(&format!("{runs} traced and untraced run pairs"));
    Ok(())
}
