//! Metric registry, the per-layer ledger, and the result line.

use crate::campaign::{CampaignTicks, Downstream, Span, REPLAYED};
use crate::clock::{self, Overhead};
use crate::stats::{median, Summary};
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit. Pass costs are
/// CPU time, which hypervisor steal does not inflate; the wall-clock
/// figures are per-layer metrics (see README.md, "Noise").
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("campaign_cycles_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The layers of the ledger, in report order.
pub const LAYERS: [&str; 9] = [
    "glucose",
    "controllers",
    "core",
    "risk",
    "sim",
    "tracestore",
    "optim",
    "metrics",
    "service",
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("wall_s", "s"),
    ("campaign_cycles_per_s", "1/s"),
    ("cold_job_p50_s", "s"),
    ("glucose.patient_ns_per_cycle", "ns"),
    ("controllers.controller_ns_per_cycle", "ns"),
    ("core.monitor_ns_per_cycle", "ns"),
    ("sim.engine_self_ns_per_cycle", "ns"),
    ("risk.label_ns_per_trace", "ns"),
    ("sim.parallel_speedup", "ratio"),
    ("sim.jobs", "count"),
    ("sim.cycles", "count"),
    ("sim.failed_jobs", "count"),
    ("failed_ratio", "ratio"),
    ("tracestore.write_s", "s"),
    ("tracestore.bytes_per_record", "B"),
    ("tracestore.open_s", "s"),
    ("tracestore.decode_records_per_s", "1/s"),
    ("optim.learn_s", "s"),
    ("optim.lbfgsb_iterations", "count"),
    ("core.replay_ns_per_cycle.guideline", "ns"),
    ("core.replay_ns_per_cycle.mpc", "ns"),
    ("core.replay_ns_per_cycle.cawot", "ns"),
    ("core.replay_ns_per_cycle.cawt", "ns"),
    ("replay_cycles_per_s", "1/s"),
    ("metrics.score_s", "s"),
    ("service.submit_rtt_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.execute_ms_per_run", "ms"),
    ("service.merge_ms", "ms"),
    ("service.shard_log_read_ms_per_run", "ms"),
    ("service.shard_log_bytes_per_run", "B"),
    ("service.checkpoint_bytes", "B"),
    ("service.cache_lookup_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.resume_rerun_runs", "count"),
    ("service.resume_useful_ratio", "ratio"),
    ("hit_p50_ms", "ms"),
    ("hit_p95_ms", "ms"),
    ("resume_s", "s"),
    ("self_s.glucose", "s"),
    ("self_s.controllers", "s"),
    ("self_s.core", "s"),
    ("self_s.risk", "s"),
    ("self_s.sim", "s"),
    ("self_s.tracestore", "s"),
    ("self_s.optim", "s"),
    ("self_s.metrics", "s"),
    ("self_s.service", "s"),
    ("ledger.layer_sum_s", "s"),
    ("ledger.unattributed_s", "s"),
    ("ledger.untraced_wall_s", "s"),
    ("ledger.traced_wall_s", "s"),
    ("ledger.reconcile_ratio", "ratio"),
    ("ledger.reconcile_ok", "count"),
    ("ledger.trace_overhead_s", "s"),
];

/// How far the layer sum may stray from the untraced wall time before
/// the reconciliation is flagged (the ROADMAP's ±10%).
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// Everything a run measured, and what failed.
pub struct Report {
    workload: String,
    seed: u64,
    values: BTreeMap<String, f64>,
    timings: Vec<(String, Summary)>,
    details: Vec<(String, String)>,
    problems: Vec<String>,
    /// Jobs and requests attempted.
    pub attempted: u64,
    /// Jobs and requests that failed.
    pub failed_ops: u64,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &str, seed: u64) -> Report {
        Report {
            workload: workload.to_owned(),
            seed,
            values: BTreeMap::new(),
            timings: Vec::new(),
            details: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed_ops: 0,
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Records a timing series; its median becomes metric `name`.
    pub fn timing(&mut self, name: &str, values: &[f64]) {
        self.set(name, median(values));
        self.timings.push((name.to_owned(), Summary::of(values)));
    }

    /// Adds a free-form detail for the report on standard error.
    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_owned(), json));
    }

    /// Records one failed check (one failed operation); the pass it
    /// belongs to reports no numbers.
    pub fn fail(&mut self, problem: impl Into<String>) {
        let problem = problem.into();
        eprintln!("perfbench: check failed: {problem}");
        self.problems.push(problem);
        self.failed_ops += 1;
    }

    /// Whether every output check passed (and something was measured).
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.values.contains_key("wall_s")
    }

    fn metric(&self, name: &str, unit: &str) -> String {
        let v = if name == "failed_ratio" {
            self.failed_ops as f64 / self.attempted.max(1) as f64
        } else {
            self.values.get(name).copied().unwrap_or(0.0)
        };
        format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        )
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = list.iter().map(|(n, u)| self.metric(n, u)).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed_ops,
            metrics.join(", ")
        )
    }

    /// The detail report: every value, every timing summary (median,
    /// tail percentile, sample count), and the failed checks.
    pub fn detail_json(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();
        let timings: Vec<String> = self
            .timings
            .iter()
            .map(|(k, s)| format!("\"{k}\": {}", s.json()))
            .collect();
        let details: Vec<String> = self
            .details
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", p.replace('"', "'")))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"values\": {{{}}}, \"timings\": {{{}}}, \
             \"details\": {{{}}}, \"problems\": [{}]}}",
            self.workload,
            self.seed,
            values.join(", "),
            timings.join(", "),
            details.join(", "),
            problems.join(", ")
        )
    }
}

/// A JSON number with every digit (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Thread-time of one campaign split by layer, overhead-compensated,
/// in seconds.
struct Split {
    patient: f64,
    controller: f64,
    monitor: f64,
    risk: f64,
    engine: f64,
    /// Decorator cost and benchmark-side per-job work.
    overhead: f64,
}

fn split(tk: &CampaignTicks, ov: Overhead) -> Split {
    let inner = |t: u64, calls: u64| clock::secs(t) - clock::secs(1) * ov.inner * calls as f64;
    let calls = (tk.patient_calls + tk.controller_calls + tk.monitor_calls) as f64;
    let children = tk.patient + tk.controller + tk.monitor + tk.risk;
    let outer = clock::secs(1) * (ov.total - ov.inner) * calls;
    Split {
        patient: inner(tk.patient, tk.patient_calls).max(0.0),
        controller: inner(tk.controller, tk.controller_calls).max(0.0),
        monitor: inner(tk.monitor, tk.monitor_calls).max(0.0),
        risk: clock::secs(tk.risk),
        engine: (clock::secs(tk.job.saturating_sub(children)) - outer).max(0.0),
        overhead: clock::secs(tk.extra.saturating_sub(tk.risk)) + clock::secs(1) * ov.total * calls,
    }
}

/// One timed phase of the traced pass: a span (name, start offset,
/// duration) with its attribution.
struct Phase {
    name: String,
    /// Seconds from the traced pass start.
    start: f64,
    /// Traced wall seconds.
    traced: f64,
    /// The same phase's wall seconds in an untraced pass.
    untraced: f64,
    /// Seconds attributed to layers.
    layers: f64,
    /// Instrumentation seconds (decorators, benchmark-side checks).
    instrumentation: f64,
}

/// Wall time attributed to layers (self time), built phase by phase.
/// Within a phase each layer gets its measured time; the phase's
/// remainder goes to the layer that owns the phase, less the
/// instrumentation the phase carried.
pub struct Ledger {
    overhead: Overhead,
    self_s: BTreeMap<&'static str, f64>,
    phases: Vec<Phase>,
}

impl Ledger {
    /// An empty ledger (measures the decorator overhead once).
    pub fn new() -> Ledger {
        Ledger {
            overhead: clock::overhead(),
            self_s: LAYERS.iter().map(|l| (*l, 0.0)).collect(),
            phases: Vec::new(),
        }
    }

    fn phase(
        &mut self,
        span: &Span,
        untraced: f64,
        parts: &[(&'static str, f64)],
        instrumentation: f64,
    ) {
        let mut layers = 0.0;
        for &(layer, secs) in parts {
            let secs = secs.max(0.0);
            *self.self_s.entry(layer).or_insert(0.0) += secs;
            layers += secs;
        }
        self.phases.push(Phase {
            name: span.name.clone(),
            start: span.start_s,
            traced: span.secs,
            untraced,
            layers,
            instrumentation,
        });
    }

    /// Per-cycle layer costs of decorated campaigns (thread time).
    pub fn per_cycle(&mut self, tk: &CampaignTicks, cycles: u64, jobs: u64, r: &mut Report) {
        let s = split(tk, self.overhead);
        let per = |x: f64| x * 1e9 / cycles.max(1) as f64;
        r.set("glucose.patient_ns_per_cycle", per(s.patient));
        r.set("controllers.controller_ns_per_cycle", per(s.controller));
        r.set("core.monitor_ns_per_cycle", per(s.monitor));
        r.set("sim.engine_self_ns_per_cycle", per(s.engine));
        r.set("risk.label_ns_per_trace", s.risk * 1e9 / jobs.max(1) as f64);
    }

    /// The traced campaign (`span`) on `workers` threads: thread time
    /// per layer ÷ workers; executor idle goes to `sim`.
    #[allow(clippy::too_many_arguments)]
    pub fn campaign(
        &mut self,
        span: &Span,
        untraced: f64,
        tk: &CampaignTicks,
        workers: usize,
        cycles: u64,
        jobs: u64,
        r: &mut Report,
    ) {
        self.per_cycle(tk, cycles, jobs, r);
        let s = split(tk, self.overhead);
        let w = workers as f64;
        let busy = (clock::secs(tk.job) + clock::secs(tk.extra)) / w;
        self.phase(
            span,
            untraced,
            &[
                ("glucose", s.patient / w),
                ("controllers", s.controller / w),
                ("core", s.monitor / w),
                ("risk", s.risk / w),
                ("sim", s.engine / w + (span.secs - busy).max(0.0)),
            ],
            s.overhead / w,
        );
    }

    /// The `paper-eval` stages after the campaign: traced pass `d`,
    /// untraced pass `u` (which also supplies the stage metrics).
    pub fn downstream(
        &mut self,
        d: &Downstream,
        u: &Downstream,
        replay_workers: usize,
        r: &mut Report,
    ) {
        let scoring: f64 = REPLAYED
            .iter()
            .map(|k| u.secs(&format!("score.{}", k.name().to_lowercase())))
            .sum();
        r.set("tracestore.write_s", u.secs("store.write"));
        r.set(
            "tracestore.bytes_per_record",
            u.store_bytes as f64 / u.records.max(1) as f64,
        );
        r.set("tracestore.open_s", u.secs("store.open"));
        r.set(
            "tracestore.decode_records_per_s",
            u.records as f64 / u.secs("store.decode"),
        );
        r.set("optim.learn_s", u.secs("learn"));
        r.set("optim.lbfgsb_iterations", d.lbfgsb_iterations as f64);
        r.set("metrics.score_s", scoring);
        let rw = replay_workers as f64;
        let ov = self.overhead;
        let decode = d.secs("store.decode");
        for span in &d.spans {
            let untraced = u.secs(&span.name);
            let (layer, stage) = span.name.split_once('.').unwrap_or((&span.name, ""));
            match layer {
                "store" => self.phase(span, untraced, &[("tracestore", span.secs)], 0.0),
                "learn" => self.phase(span, untraced, &[("optim", span.secs)], 0.0),
                "score" => self.phase(span, untraced, &[("metrics", span.secs)], 0.0),
                // Freeing trace vectors: the traces are the simulation's
                // output.
                "free" => self.phase(span, untraced, &[("sim", span.secs)], 0.0),
                "replay" => {
                    let k = REPLAYED
                        .iter()
                        .position(|m| m.name().to_lowercase() == stage)
                        .unwrap_or(0);
                    let (ticks, calls) = d.replay_monitor[k];
                    let monitor =
                        (clock::secs(ticks) - clock::secs(1) * ov.inner * calls as f64).max(0.0);
                    let decor = clock::secs(1) * ov.total * calls as f64 / rw;
                    r.set(
                        &format!("core.replay_ns_per_cycle.{stage}"),
                        monitor * 1e9 / d.records.max(1) as f64,
                    );
                    // Replay materializes every trace from the store once
                    // per monitor: the decode timed serially above, spread
                    // over the replay workers.
                    self.phase(
                        span,
                        untraced,
                        &[
                            ("core", monitor / rw),
                            ("tracestore", decode / rw),
                            ("sim", span.secs - monitor / rw - decode / rw - decor),
                        ],
                        decor,
                    );
                }
                // Counting optimizer iterations is the benchmark's own work.
                _ => self.phase(span, untraced, &[], span.secs),
            }
        }
    }

    /// A service pass: executor phases go to `sim`, the re-encoded
    /// cache publish to `tracestore`, the rest to `service`.
    pub fn service(&mut self, wall: f64, untraced: f64, execute_s: f64, store_s: f64) {
        let span = Span {
            name: "service-pass".into(),
            start_s: 0.0,
            secs: wall,
        };
        self.phase(
            &span,
            untraced,
            &[
                ("sim", execute_s),
                ("tracestore", store_s),
                ("service", wall - execute_s - store_s),
            ],
            0.0,
        );
    }

    /// Writes self times and the reconciliation against the untraced
    /// wall time into `r`, and the phase spans into its detail.
    pub fn finish(&self, traced_wall: f64, untraced_wall: f64, r: &mut Report) {
        let sum: f64 = self.self_s.values().sum();
        for (layer, secs) in &self.self_s {
            r.set(&format!("self_s.{layer}"), *secs);
        }
        let covered: f64 = self.phases.iter().map(|p| p.traced).sum();
        let instrumentation: f64 = self.phases.iter().map(|p| p.instrumentation).sum();
        let ratio = sum / untraced_wall - 1.0;
        r.set("ledger.layer_sum_s", sum);
        r.set("ledger.unattributed_s", (traced_wall - covered).max(0.0));
        r.set("ledger.untraced_wall_s", untraced_wall);
        r.set("ledger.traced_wall_s", traced_wall);
        r.set("ledger.reconcile_ratio", ratio);
        r.set(
            "ledger.reconcile_ok",
            f64::from(u8::from(ratio.abs() <= RECONCILE_TOLERANCE)),
        );
        r.set("ledger.trace_overhead_s", traced_wall - untraced_wall);
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"phase\": \"{}\", \"start_s\": {}, \"traced_s\": {}, \"untraced_s\": {}, \
                     \"layers_s\": {}, \"instrumentation_s\": {}}}",
                    p.name,
                    num(p.start),
                    num(p.traced),
                    num(p.untraced),
                    num(p.layers),
                    num(p.instrumentation)
                )
            })
            .collect();
        r.detail(
            "ledger",
            format!(
                "{{\"tolerance\": {RECONCILE_TOLERANCE}, \"instrumentation_s\": {}, \
                 \"timer_inner_ticks\": {}, \"timer_total_ticks\": {}, \"ns_per_tick\": {}, \
                 \"phases\": [{}]}}",
                num(instrumentation),
                num(self.overhead.inner),
                num(self.overhead.total),
                num(clock::ns_per_tick()),
                phases.join(", ")
            ),
        );
    }
}
