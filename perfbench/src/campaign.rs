//! The two campaign workloads.
//!
//! * `paper-eval` — Glucosym+oref0 at the paper grid, then the Table V
//!   pipeline: `write_store` → `TraceStoreReader` → CAWT learning
//!   (`Zoo::train`) → `replay_store` of Guideline/MPC/CAWOT/CAWT →
//!   scorecard (FPR/FNR/ACC/F1, reaction time, EDR).
//! * `closed-loop` — T1DS+basal-bolus at the paper grid with CAWOT in
//!   the loop and context-dependent mitigation (the Table VII path).
//!
//! The seed permutes the order of patients and initial BGs in the
//! spec, so every seed runs the same 18,970 jobs in another schedule.
//! Traces are stored in canonical grid order, so everything after the
//! campaign, and every recorded expected output, is seed-independent.

use crate::clock::ticks;
use crate::decor::{Layer, TimedController, TimedMonitor, TimedPatient};
use aps_bench::experiments::sample_counts;
use aps_bench::opts::ExpOpts;
use aps_bench::zoo::{MonitorKind, Zoo};
use aps_core::hms::ContextMitigatorConfig;
use aps_core::learning::{learn_thresholds, traces_for_patient, LearnConfig};
use aps_core::mitigation::Mitigator;
use aps_core::monitors::{CawMonitor, HazardMonitor};
use aps_core::scs::Scs;
use aps_fault::CampaignConfig;
use aps_metrics::timing::{early_detection_rate, reaction_time, TimingStats};
use aps_sim::campaign::{
    campaign_jobs, run_campaign_with_workers, CampaignJob, CampaignSpec, MonitorFactory,
    ScenarioCtx,
};
use aps_sim::checkpoint::{spec_hash, trace_digest};
use aps_sim::closed_loop::LoopConfig;
use aps_sim::platform::Platform;
use aps_sim::replay::replay_store;
use aps_sim::session::Session;
use aps_tracestore::{write_store, TraceStoreReader};
use aps_types::SimTrace;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Campaign worker threads: pinned, never detected.
pub const WORKERS: usize = 2;

/// Monitors replayed by `paper-eval`, in Table V order.
pub const REPLAYED: [MonitorKind; 4] = [
    MonitorKind::Guideline,
    MonitorKind::Mpc,
    MonitorKind::Cawot,
    MonitorKind::Cawt,
];

/// SplitMix64: the benchmark's input generator.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5eed_ba5e_0bad_cafe)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Glucosym+oref0 and the Table V pipeline.
    PaperEval,
    /// T1DS+basal-bolus with CAWOT and context mitigation in the loop.
    ClosedLoop,
}

/// One workload's generated input.
pub struct Grid {
    /// Whether CAWOT runs in the loop (with the spec's mitigation).
    pub in_loop_cawot: bool,
    /// The seed-permuted spec that is run.
    pub spec: CampaignSpec,
    /// Its expanded job list.
    pub jobs: Vec<CampaignJob>,
    /// Job index → canonical (unpermuted) grid index.
    pub canon: Vec<usize>,
    /// Hash of the canonical spec (stamped into the store).
    pub canonical_hash: u64,
    /// Control cycles in one campaign.
    pub cycles: u64,
}

impl Grid {
    /// Builds the workload input for `seed`; `smoke` shrinks the grid
    /// to 2 patients × 2 BGs × the quick fault grid.
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Grid {
        let platform = match kind {
            Kind::PaperEval => Platform::GlucosymOref0,
            Kind::ClosedLoop => Platform::T1dsBasalBolus,
        };
        let mut base = CampaignSpec::paper(platform);
        if smoke {
            base.patient_indices = vec![0, 1];
            base.initial_bgs = vec![120.0, 160.0];
            base.faults = CampaignConfig::quick();
        }
        if kind == Kind::ClosedLoop {
            base.mitigate = true;
            base.context_mitigate = true;
        }
        let mut spec = base.clone();
        let mut rng = SplitMix::new(seed);
        rng.shuffle(&mut spec.patient_indices);
        rng.shuffle(&mut spec.initial_bgs);
        let jobs = campaign_jobs(&spec);
        let (np, nb) = (spec.patient_indices.len(), spec.initial_bgs.len());
        let per = jobs.len() / (np * nb);
        let mut canon = Vec::with_capacity(jobs.len());
        for p in &spec.patient_indices {
            let cp = base
                .patient_indices
                .iter()
                .position(|q| q == p)
                .unwrap_or(0);
            for b in &spec.initial_bgs {
                let cb = base.initial_bgs.iter().position(|c| c == b).unwrap_or(0);
                canon.extend((0..per).map(|s| (cp * nb + cb) * per + s));
            }
        }
        let cycles = jobs.len() as u64 * u64::from(spec.steps);
        Grid {
            in_loop_cawot: kind == Kind::ClosedLoop,
            canonical_hash: spec_hash(&base),
            spec,
            jobs,
            canon,
            cycles,
        }
    }

    /// An unpermuted grid over `spec`, without an in-loop monitor.
    pub fn from_spec(spec: CampaignSpec) -> Grid {
        let jobs = campaign_jobs(&spec);
        Grid {
            in_loop_cawot: false,
            canonical_hash: spec_hash(&spec),
            canon: (0..jobs.len()).collect(),
            cycles: jobs.len() as u64 * u64::from(spec.steps),
            spec,
            jobs,
        }
    }

    /// The in-loop monitor factory (CAWOT for `closed-loop`).
    pub fn factory(&self) -> Option<&'static MonitorFactory<'static>> {
        self.in_loop_cawot
            .then_some(&cawot as &MonitorFactory<'static>)
    }
}

/// CAWOT as `Zoo::make(MonitorKind::Cawot)` builds it.
fn cawot(ctx: &ScenarioCtx) -> Box<dyn HazardMonitor> {
    Box::new(CawMonitor::new(
        "cawot",
        Scs::with_default_thresholds(ctx.target),
        ctx.basal,
    ))
}

/// Order-independent fingerprint of a campaign's outputs: the wrapping
/// sum of the per-job `trace_digest`s.
pub fn multiset(digests: &[u64]) -> u64 {
    digests.iter().fold(0u64, |a, &d| a.wrapping_add(d))
}

/// What one campaign execution produced.
pub struct CampaignOut {
    /// Wall seconds.
    pub secs: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// `trace_digest` per job, in job order.
    pub digests: Vec<u64>,
    /// Traces in canonical order, when kept.
    pub traces: Vec<SimTrace>,
    /// Jobs whose trace carries a hazard label.
    pub hazardous: u64,
    /// Jobs whose primary monitor alerted at least once.
    pub alerted: u64,
}

impl CampaignOut {
    fn new(n: usize) -> CampaignOut {
        CampaignOut {
            secs: 0.0,
            cpu_s: 0.0,
            digests: vec![0; n],
            traces: Vec::new(),
            hazardous: 0,
            alerted: 0,
        }
    }

    fn record(&mut self, i: usize, trace: &SimTrace) {
        self.digests[i] = trace_digest(trace);
        self.hazardous += u64::from(trace.is_hazardous());
        self.alerted += u64::from(trace.first_alert().is_some());
    }
}

fn place(slots: &mut [Option<SimTrace>], at: usize, trace: SimTrace) {
    slots[at] = Some(trace);
}

fn collect(slots: Vec<Option<SimTrace>>) -> Vec<SimTrace> {
    slots
        .into_iter()
        .map(|t| t.expect("every job emitted"))
        .collect()
}

/// Runs the campaign through the program's executor
/// (`run_campaign_with_workers`) on `workers` threads.
pub fn run(grid: &Grid, workers: usize, keep: bool) -> CampaignOut {
    let n = grid.jobs.len();
    let mut out = CampaignOut::new(n);
    let mut slots: Vec<Option<SimTrace>> = Vec::new();
    if keep {
        slots.resize_with(n, || None);
    }
    let (t0, c0) = (Instant::now(), crate::clock::process_cpu_s());
    run_campaign_with_workers(&grid.spec, grid.factory(), Some(workers), |i, trace| {
        out.record(i, &trace);
        if keep {
            place(&mut slots, grid.canon[i], trace);
        }
    });
    out.secs = t0.elapsed().as_secs_f64();
    out.cpu_s = crate::clock::process_cpu_s() - c0;
    if keep {
        out.traces = collect(slots);
    }
    out
}

/// Thread-time totals of a traced campaign, in ticks.
#[derive(Debug, Default, Clone)]
pub struct CampaignTicks {
    /// Patient model calls (plus cohort construction).
    pub patient: u64,
    /// Timed patient calls.
    pub patient_calls: u64,
    /// Controller calls.
    pub controller: u64,
    /// Timed controller calls.
    pub controller_calls: u64,
    /// In-loop monitor calls.
    pub monitor: u64,
    /// Timed monitor calls.
    pub monitor_calls: u64,
    /// `label_trace`, re-run on each finished trace.
    pub risk: u64,
    /// Whole jobs: construction, session build and run.
    pub job: u64,
    /// Benchmark-side work per job outside the job (trace clone,
    /// relabel, digest check): tracing overhead, in no layer.
    pub extra: u64,
}

impl CampaignTicks {
    /// Adds another run's totals.
    pub fn add(&mut self, o: &CampaignTicks) {
        self.patient += o.patient;
        self.patient_calls += o.patient_calls;
        self.controller += o.controller;
        self.controller_calls += o.controller_calls;
        self.monitor += o.monitor;
        self.monitor_calls += o.monitor_calls;
        self.risk += o.risk;
        self.job += o.job;
        self.extra += o.extra;
    }
}

/// A traced campaign: its totals, wall time and output check.
pub struct TracedCampaign {
    /// Wall seconds of the whole traced campaign.
    pub secs: f64,
    /// Thread-time totals.
    pub ticks: CampaignTicks,
    /// Jobs whose decorated trace digest differed from the untraced
    /// run's.
    pub mismatches: usize,
    /// Traces in canonical order, when kept.
    pub traces: Vec<SimTrace>,
}

/// Runs every job as a `Session` built from timed patient, controller
/// and monitor decorators, on `workers` threads of the benchmark's own.
/// Construction mirrors the campaign executor's per-job setup, so each
/// trace must equal the untraced run's (`expected` digests, job order).
pub fn run_traced(grid: &Grid, workers: usize, expected: &[u64], keep: bool) -> TracedCampaign {
    let (patient_l, controller_l, monitor_l) = (Layer::new(), Layer::new(), Layer::new());
    let next = AtomicUsize::new(0);
    let n = grid.jobs.len();
    let t0 = Instant::now();
    // Per worker: its totals, mismatches and (canonical index, trace).
    type WorkerOut = (CampaignTicks, usize, Vec<(usize, SimTrace)>);
    let per_thread: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, pl, cl, ml) = (&next, &patient_l, &controller_l, &monitor_l);
                scope.spawn(move || {
                    let mut t = CampaignTicks::default();
                    let mut mismatches = 0;
                    let mut kept = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let trace = traced_job(grid, &grid.jobs[i], pl, cl, ml, &mut t);
                        let x = ticks();
                        let mut relabeled = trace.clone();
                        let r = ticks();
                        aps_risk::label_trace(&mut relabeled, &LoopConfig::default().labels);
                        t.risk += ticks().wrapping_sub(r);
                        if relabeled != trace || trace_digest(&trace) != expected[i] {
                            mismatches += 1;
                        }
                        if keep {
                            kept.push((grid.canon[i], trace));
                        }
                        t.extra += ticks().wrapping_sub(x);
                    }
                    (t, mismatches, kept)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let (patient, patient_calls) = patient_l.get();
    let (controller, controller_calls) = controller_l.get();
    let (monitor, monitor_calls) = monitor_l.get();
    let mut total = CampaignTicks {
        patient,
        patient_calls,
        controller,
        controller_calls,
        monitor,
        monitor_calls,
        ..CampaignTicks::default()
    };
    let mut mismatches = 0;
    let mut slots: Vec<Option<SimTrace>> = Vec::new();
    if keep {
        slots.resize_with(n, || None);
    }
    for (t, m, kept) in per_thread {
        total.add(&t);
        mismatches += m;
        for (at, trace) in kept {
            place(&mut slots, at, trace);
        }
    }
    TracedCampaign {
        secs,
        ticks: total,
        mismatches,
        traces: if keep { collect(slots) } else { Vec::new() },
    }
}

/// One decorated job. Cohort construction (glucose-layer work outside
/// any decorated call) is timed into `t.patient` directly.
fn traced_job(
    grid: &Grid,
    job: &CampaignJob,
    pl: &Arc<Layer>,
    cl: &Arc<Layer>,
    ml: &Arc<Layer>,
    t: &mut CampaignTicks,
) -> SimTrace {
    let spec = &grid.spec;
    let platform = spec.platform;
    let start = ticks();
    let mut cohort = platform.patients();
    t.patient += ticks().wrapping_sub(start);
    let patient = TimedPatient::new(cohort.remove(job.patient_idx), pl);
    let controller = platform.controller_for(&patient);
    let ctx = ScenarioCtx {
        patient: aps_glucose::PatientSim::name(&patient).to_owned(),
        basal: platform.basal_for(&patient),
        target: platform.target(),
        max_rate: platform.max_mitigation_rate(&patient),
    };
    let config = LoopConfig {
        steps: spec.steps,
        initial_bg: job.initial_bg,
        mitigator: (spec.mitigate && !spec.context_mitigate)
            .then(|| Mitigator::paper_default(ctx.max_rate)),
        context_mitigation: (spec.mitigate && spec.context_mitigate)
            .then(|| ContextMitigatorConfig::for_run(ctx.target, ctx.basal, ctx.max_rate)),
        cgm: spec.cgm,
        ..LoopConfig::default()
    };
    let mut builder = Session::builder(platform)
        .patient_sim(Box::new(patient))
        .controller(Box::new(TimedController::new(controller, cl)))
        .config(config);
    if let Some(factory) = grid.factory() {
        builder = builder.monitor(Box::new(TimedMonitor::new(factory(&ctx), ml)));
    }
    if let Some(scenario) = &job.scenario {
        builder = builder.inject(scenario.clone());
    }
    let mut session = builder.build().expect("campaign job builds as a session");
    let trace = session.try_run().expect("campaign job runs");
    drop(session);
    t.job += ticks().wrapping_sub(start);
    trace
}

/// One replayed monitor's Table V row plus timing columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorScore {
    /// Monitor name.
    pub monitor: String,
    /// True positives (tolerance-window samples).
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives.
    pub fn_: u64,
    /// True negatives.
    pub tn: u64,
    /// False-positive rate.
    pub fpr: f64,
    /// False-negative rate.
    pub fnr: f64,
    /// Accuracy.
    pub acc: f64,
    /// F1.
    pub f1: f64,
    /// Traces with a reaction time.
    pub rt_n: usize,
    /// Mean reaction time (minutes).
    pub rt_mean_min: f64,
    /// Early-detection rate.
    pub edr: f64,
}

impl MonitorScore {
    fn of(kind: MonitorKind, traces: &[SimTrace]) -> MonitorScore {
        let c = sample_counts(traces);
        let rts: Vec<f64> = traces.iter().filter_map(reaction_time).collect();
        let rt = TimingStats::from_values(&rts);
        MonitorScore {
            monitor: kind.name().to_owned(),
            tp: c.tp,
            fp: c.fp,
            fn_: c.fn_,
            tn: c.tn,
            fpr: c.fpr(),
            fnr: c.fnr(),
            acc: c.accuracy(),
            f1: c.f1(),
            rt_n: rt.n,
            rt_mean_min: rt.mean,
            edr: early_detection_rate(traces.iter()),
        }
    }

    /// Equal counts, and rates equal to within 1e-9 relative.
    pub fn matches(&self, other: &MonitorScore) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        self.monitor == other.monitor
            && (self.tp, self.fp, self.fn_, self.tn, self.rt_n)
                == (other.tp, other.fp, other.fn_, other.tn, other.rt_n)
            && close(self.fpr, other.fpr)
            && close(self.fnr, other.fnr)
            && close(self.acc, other.acc)
            && close(self.f1, other.f1)
            && close(self.rt_mean_min, other.rt_mean_min)
            && close(self.edr, other.edr)
    }
}

/// One timed stage of a pass: its name, its start as an offset from the
/// pass start, and its duration.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name (`store.write`, `replay.cawt`, ...).
    pub name: String,
    /// Seconds from the pass start to the stage start.
    pub start_s: f64,
    /// Stage duration, seconds.
    pub secs: f64,
}

/// Timings and outputs of the `paper-eval` stages after the campaign.
#[derive(Debug)]
pub struct Downstream {
    origin: Instant,
    /// Every stage, in order.
    pub spans: Vec<Span>,
    /// Store size in bytes.
    pub store_bytes: u64,
    /// Step records in the store.
    pub records: u64,
    /// Table V rows.
    pub scorecard: Vec<MonitorScore>,
    /// Replayed-monitor thread ticks and calls, per monitor (traced).
    pub replay_monitor: [(u64, u64); 4],
    /// L-BFGS-B iterations over every rule fit (traced).
    pub lbfgsb_iterations: u64,
}

impl Downstream {
    fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.spans.push(Span {
            name: name.into(),
            start_s: t.duration_since(self.origin).as_secs_f64(),
            secs: t.elapsed().as_secs_f64(),
        });
        r
    }

    /// Total seconds of the stages named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs)
            .sum()
    }

    /// Total seconds of every replay stage.
    pub fn replay_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with("replay."))
            .map(|s| s.secs)
            .sum()
    }
}

/// The Table V pipeline over a finished campaign (canonical order);
/// span starts are offsets from `origin`. `traced` wraps the replayed
/// monitors in timing decorators and counts optimizer iterations.
pub fn downstream(grid: &Grid, traces: Vec<SimTrace>, traced: bool, origin: Instant) -> Downstream {
    let platform = grid.spec.platform;
    let mut d = Downstream {
        origin,
        spans: Vec::new(),
        store_bytes: 0,
        records: 0,
        scorecard: Vec::new(),
        replay_monitor: [(0, 0); 4],
        lbfgsb_iterations: 0,
    };
    let bytes = d.time("store.write", || {
        write_store(&traces, grid.canonical_hash).expect("in-memory store write")
    });
    d.time("free.traces", || drop(traces));
    d.store_bytes = bytes.len() as u64;
    let reader = d.time("store.open", || {
        TraceStoreReader::from_bytes(bytes).expect("store reopens")
    });
    d.records = reader.total_records();
    let decoded = d.time("store.decode", || reader.read_all());
    let zoo = d.time("learn", || Zoo::train(platform, &ExpOpts::full(), &decoded));
    if traced {
        d.lbfgsb_iterations = d.time("count-iterations", || lbfgsb_iterations(platform, &decoded));
    }
    d.time("free.decoded", || drop(decoded));

    for (k, kind) in REPLAYED.into_iter().enumerate() {
        let name = kind.name().to_lowercase();
        let layer = Layer::new();
        let replayed = d.time(format!("replay.{name}"), || {
            if traced {
                replay_store(&reader, |tr| {
                    Box::new(TimedMonitor::new(zoo.make(kind, &tr.meta.patient), &layer))
                        as Box<dyn HazardMonitor>
                })
            } else {
                replay_store(&reader, |tr| zoo.make(kind, &tr.meta.patient))
            }
        });
        d.replay_monitor[k] = layer.get();
        let row = d.time(format!("score.{name}"), || {
            MonitorScore::of(kind, &replayed)
        });
        d.scorecard.push(row);
        d.time(format!("free.{name}"), || drop(replayed));
    }
    d
}

/// Re-runs the threshold fits `Zoo::train` makes (per patient, then
/// population) and sums their optimizer iterations.
fn lbfgsb_iterations(platform: Platform, traces: &[SimTrace]) -> u64 {
    let cawot = Scs::with_default_thresholds(platform.target());
    let cfg = LearnConfig::default();
    let mut iterations = 0usize;
    let mut basals = Vec::new();
    for p in platform.patients() {
        let basal = platform.basal_for(p.as_ref());
        basals.push(basal.value());
        let subset = traces_for_patient(traces, p.name());
        let (_, fits) = learn_thresholds(&cawot, &subset, basal, &cfg);
        iterations += fits.iter().map(|f| f.iterations).sum::<usize>();
    }
    let mean = aps_types::UnitsPerHour(basals.iter().sum::<f64>() / basals.len().max(1) as f64);
    let (_, fits) = learn_thresholds(&cawot, traces, mean, &cfg);
    iterations += fits.iter().map(|f| f.iterations).sum::<usize>();
    iterations as u64
}
