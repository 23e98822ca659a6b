//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <paper-eval|closed-loop|service> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           [--smoke] [--expect-digest <hex>] [--record-expected]
//! ```
//!
//! With `--trace 0` it repeats untraced passes for `--seconds` and
//! prints the end-to-end metrics; with `--trace 1` it then adds a
//! traced pass next to an untraced reference pass and prints the
//! per-layer ledger. The last line of standard output is always
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` next to this crate.

mod campaign;
mod clock;
mod decor;
mod ledger;
mod service;
mod stats;

use aps_sim::campaign::campaign_size;
use campaign::{Grid, Kind, MonitorScore, WORKERS};
use ledger::Report;
use serde::{Deserialize, Serialize};
use stats::median;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Expected full-scale outputs of a campaign workload.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
struct Golden {
    jobs: usize,
    cycles: u64,
    multiset_digest: String,
    hazardous: u64,
    alerted: u64,
    scorecard: Vec<MonitorScore>,
}

/// `expected.json`: the recorded outputs both campaign workloads must
/// reproduce at full scale (seed-independent, see `campaign`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(default)]
struct Expected {
    paper_eval: Golden,
    closed_loop: Golden,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    expect_digest: Option<u64>,
    record_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        expect_digest: None,
        record_expected: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => a.workload = value(i)?,
            "--seed" => a.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value(i)? == "1",
            "--expect-digest" => {
                let v = value(i)?;
                a.expect_digest =
                    Some(u64::from_str_radix(&v, 16).map_err(|e| format!("--expect-digest: {e}"))?)
            }
            "--smoke" => {
                a.smoke = true;
                i += 1;
                continue;
            }
            "--record-expected" => {
                a.record_expected = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if !["paper-eval", "closed-loop", "service"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-eval|closed-loop|service> --seed <n> \
                 --seconds <s> --trace <0|1> [--smoke] [--expect-digest <hex>]"
            );
            std::process::exit(2);
        }
    };
    // Scratch state lives inside the checkout, under a relative path
    // (Unix socket paths are limited to ~107 bytes).
    let work = PathBuf::from(".perfbench_work").join(format!("{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    // Another run finishing at the same moment may remove the empty
    // shared parent between our creating it and our subdirectory.
    let created = (0..3).any(|_| std::fs::create_dir_all(&work).is_ok());
    if !created {
        eprintln!("perfbench: cannot create {}", work.display());
        std::process::exit(2);
    }
    // Calibrating the tick clock spins the CPU for 50 ms, which also
    // lets its clock ramp up before set-up is timed.
    clock::ns_per_tick();
    let report = match args.workload.as_str() {
        "service" => service_workload(&args, &work),
        name => {
            let kind = if name == "paper-eval" {
                Kind::PaperEval
            } else {
                Kind::ClosedLoop
            };
            campaign_workload(&args, kind)
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let Some(report) = report else { return };
    eprintln!("perfbench-detail {}", report.detail_json());
    println!("{}", report.result_json(args.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}

fn expected() -> Expected {
    serde_json::from_str(include_str!("../expected.json")).expect("expected.json parses")
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `f` `SETUP_REPS` times; returns the last result and the
/// per-repetition seconds.
fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), times)
}

/// The full output of one untraced campaign-workload pass.
struct CampaignPass {
    wall_s: f64,
    cpu: clock::CpuClock,
    campaign: campaign::CampaignOut,
    downstream: Option<campaign::Downstream>,
}

/// Checks one pass against the expected outputs and the first pass;
/// returns one message per failed check.
fn check_campaign(
    grid: &Grid,
    kind: Kind,
    golden: Option<&Golden>,
    expect_multiset: u64,
    pass: &CampaignPass,
    first: Option<&CampaignPass>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let out = &pass.campaign;
    if campaign::multiset(&out.digests) != expect_multiset {
        problems.push(format!(
            "campaign digest {:016x} != expected {expect_multiset:016x}",
            campaign::multiset(&out.digests)
        ));
    }
    if let Some(first) = first {
        if first.campaign.digests != out.digests {
            problems.push("campaign output differs between passes".into());
        }
    }
    if let Some(g) = golden {
        if (g.jobs, g.cycles, g.hazardous, g.alerted)
            != (grid.jobs.len(), grid.cycles, out.hazardous, out.alerted)
        {
            problems.push("campaign job/cycle/hazard/alert counts differ from expected".into());
        }
    }
    let Some(d) = pass.downstream.as_ref().filter(|_| kind == Kind::PaperEval) else {
        return problems;
    };
    if d.records != grid.cycles {
        problems.push(format!(
            "store holds {} records, expected {}",
            d.records, grid.cycles
        ));
    }
    for row in &d.scorecard {
        if row.tp + row.fp + row.fn_ + row.tn != d.records {
            problems.push(format!(
                "{} scored {} samples",
                row.monitor,
                row.tp + row.fp + row.fn_ + row.tn
            ));
        }
    }
    if let Some(g) = golden {
        let same = g.scorecard.len() == d.scorecard.len()
            && g.scorecard
                .iter()
                .zip(&d.scorecard)
                .all(|(e, r)| r.matches(e));
        if !same {
            problems.push("Table V scorecard differs from expected".into());
        }
    }
    if let Some(first) = first.and_then(|f| f.downstream.as_ref()) {
        if first.scorecard != d.scorecard {
            problems.push("Table V scorecard differs between passes".into());
        }
    }
    problems
}

fn campaign_pass(grid: &Grid, kind: Kind) -> CampaignPass {
    let c = clock::CpuClock::now();
    let t = Instant::now();
    let mut campaign = campaign::run(grid, WORKERS, kind == Kind::PaperEval);
    let downstream = (kind == Kind::PaperEval)
        .then(|| campaign::downstream(grid, std::mem::take(&mut campaign.traces), false, t));
    CampaignPass {
        wall_s: t.elapsed().as_secs_f64(),
        cpu: clock::CpuClock::now().since(c),
        campaign,
        downstream,
    }
}

fn campaign_workload(args: &Args, kind: Kind) -> Option<Report> {
    let mut r = Report::new(&args.workload, args.seed);
    let (grid, setup_times) = timed_setup(|| {
        let grid = Grid::new(kind, args.seed, args.smoke);
        // The per-job construction every run repeats: cohort and
        // controllers.
        let platform = grid.spec.platform;
        for p in platform.patients() {
            std::hint::black_box(platform.controller_for(p.as_ref()));
        }
        grid
    });
    r.timing("setup_s", &setup_times);

    if args.record_expected {
        let pass = campaign_pass(&grid, kind);
        let g = Golden {
            jobs: grid.jobs.len(),
            cycles: grid.cycles,
            multiset_digest: format!("{:016x}", campaign::multiset(&pass.campaign.digests)),
            hazardous: pass.campaign.hazardous,
            alerted: pass.campaign.alerted,
            scorecard: pass.downstream.map(|d| d.scorecard).unwrap_or_default(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&g).expect("golden serializes")
        );
        return None;
    }

    // Expected outputs: recorded at full scale; at smoke scale the
    // serial executor is the reference.
    let expected = expected();
    let golden = (!args.smoke).then(|| match kind {
        Kind::PaperEval => expected.paper_eval.clone(),
        Kind::ClosedLoop => expected.closed_loop.clone(),
    });
    let mut expect_multiset = match &golden {
        Some(g) => u64::from_str_radix(&g.multiset_digest, 16).unwrap_or(0),
        None => campaign::multiset(&campaign::run(&grid, 1, false).digests),
    };
    if let Some(d) = args.expect_digest {
        expect_multiset = d;
    }

    let start = Instant::now();
    let mut passes: Vec<CampaignPass> = Vec::new();
    loop {
        let pass = campaign_pass(&grid, kind);
        let problems = check_campaign(
            &grid,
            kind,
            golden.as_ref(),
            expect_multiset,
            &pass,
            passes.first(),
        );
        r.attempted += grid.jobs.len() as u64;
        if problems.is_empty() {
            passes.push(pass);
        }
        for p in problems {
            r.fail(p);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let Some(first) = passes.first() else {
        return Some(r);
    };

    let per_pass = |f: fn(&CampaignPass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let walls = per_pass(|p| p.wall_s);
    let camp = per_pass(|p| p.campaign.secs);
    let rates: Vec<f64> = camp.iter().map(|s| grid.cycles as f64 / s).collect();
    let cpu_rates: Vec<f64> = per_pass(|p| p.campaign.cpu_s)
        .iter()
        .map(|s| grid.cycles as f64 / s)
        .collect();
    r.timing("wall_s", &walls);
    r.timing("cpu_s", &per_pass(|p| p.cpu.process_s));
    r.timing("steal_s", &per_pass(|p| p.cpu.steal_s));
    r.timing("cold_job_p50_s", &camp);
    r.set("campaign_cycles_per_s", median(&rates));
    r.set("campaign_cycles_per_cpu_s", median(&cpu_rates));
    r.timing("campaign_s", &camp);
    if kind == Kind::PaperEval {
        let replay: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.downstream.as_ref())
            .map(|d| (campaign::REPLAYED.len() as u64 * d.records) as f64 / d.replay_secs())
            .collect();
        r.set("replay_cycles_per_s", median(&replay));
    }
    r.set("sim.jobs", grid.jobs.len() as f64);
    r.set("sim.cycles", grid.cycles as f64);
    r.set("sim.failed_jobs", 0.0);

    if args.trace {
        traced_campaign(&grid, kind, first, &mut r);
    }
    r.set("peak_rss_mb", peak_rss_mb());
    Some(r)
}

/// The traced half of a `--trace 1` campaign run: the serial campaign
/// (for the speed-up), one more untraced pass as the reference, the
/// traced pass right after it, then the ledger. Comparing adjacent
/// passes keeps the reconciliation clear of slow drifts in machine
/// speed.
fn traced_campaign(grid: &Grid, kind: Kind, first: &CampaignPass, r: &mut Report) {
    let serial = campaign::run(grid, 1, false);
    if serial.digests != first.campaign.digests {
        r.fail("serial campaign differs from the 2-worker campaign");
    }
    let untraced = campaign_pass(grid, kind);
    let expect = campaign::multiset(&first.campaign.digests);
    for problem in check_campaign(grid, kind, None, expect, &untraced, Some(first)) {
        r.fail(problem);
    }
    r.attempted += 2 * grid.jobs.len() as u64;
    r.set("sim.parallel_speedup", serial.secs / untraced.campaign.secs);

    let t = Instant::now();
    let traced = campaign::run_traced(
        grid,
        WORKERS,
        &untraced.campaign.digests,
        kind == Kind::PaperEval,
    );
    let (campaign_s, tk, mismatches) = (traced.secs, traced.ticks.clone(), traced.mismatches);
    let down =
        (kind == Kind::PaperEval).then(|| campaign::downstream(grid, traced.traces, true, t));
    let traced_wall = t.elapsed().as_secs_f64();
    r.attempted += grid.jobs.len() as u64;
    if mismatches > 0 {
        r.fail(format!(
            "{mismatches} decorated sessions changed their trace"
        ));
    }
    if let (Some(d), Some(u)) = (&down, &untraced.downstream) {
        if d.scorecard != u.scorecard {
            r.fail("traced Table V scorecard differs from untraced");
        }
    }
    let replay_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut l = ledger::Ledger::new();
    let span = campaign::Span {
        name: "campaign".into(),
        start_s: 0.0,
        secs: campaign_s,
    };
    l.campaign(
        &span,
        untraced.campaign.secs,
        &tk,
        WORKERS,
        grid.cycles,
        grid.jobs.len() as u64,
        r,
    );
    if let (Some(d), Some(u)) = (&down, &untraced.downstream) {
        l.downstream(d, u, replay_workers, r);
    }
    l.finish(traced_wall, untraced.wall_s, r);
    r.detail("replay_workers", replay_workers.to_string());
}

fn service_workload(args: &Args, work: &Path) -> Option<Report> {
    let mut r = Report::new("service", args.seed);
    let socket = work.join("s.sock");
    let (plan, setup_times) = timed_setup(|| {
        let plan = service::Plan::new(args.seed, args.smoke);
        service::setup_once(work, &socket).expect("daemon set-up");
        plan
    });
    r.timing("setup_s", &setup_times);

    let refs = service::reference(&plan);
    let mut expected: Vec<String> = refs.iter().map(|t| service::digest_of(t)).collect();
    if let Some(d) = args.expect_digest {
        expected[0] = format!("{d:016x}");
    }

    let start = Instant::now();
    let mut passes = Vec::new();
    let mut n = 0;
    loop {
        let data = service::fresh_dir(work, &format!("pass{n}")).expect("pass dir");
        n += 1;
        match service::pass(&plan, &data, &socket, &expected) {
            Ok(p) => {
                r.attempted += p.attempted;
                for problem in &p.problems {
                    r.fail(problem.clone());
                }
                if p.problems.is_empty() {
                    passes.push((p, data));
                }
            }
            Err(e) => {
                r.attempted += 1;
                r.fail(format!("service pass failed: {e}"));
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds && n > usize::from(args.trace) {
            break;
        }
    }
    if passes.len() <= usize::from(args.trace) {
        return Some(r);
    }

    let per_pass = |f: fn(&service::PassOut) -> f64| -> Vec<f64> {
        passes.iter().map(|(p, _)| f(p)).collect()
    };
    let per_cold = |f: fn(&service::ColdJob) -> f64| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|(p, _)| p.cold.iter().map(f))
            .collect()
    };
    let steps = f64::from(plan.cold[0].steps);
    let rates = per_cold(|c| c.runs as f64 / c.total_s);
    let cpu_rates = per_cold(|c| c.runs as f64 / c.cpu_s);
    let hits: Vec<f64> = passes
        .iter()
        .flat_map(|(p, _)| p.hits_ms.iter().copied())
        .collect();
    r.timing("wall_s", &per_pass(|p| p.wall_s));
    r.timing("cpu_s", &per_pass(|p| p.cpu.process_s));
    r.timing("steal_s", &per_pass(|p| p.cpu.steal_s));
    r.timing("cold_job_p50_s", &per_cold(|c| c.total_s));
    r.set("campaign_cycles_per_s", median(&rates) * steps);
    r.set("campaign_cycles_per_cpu_s", median(&cpu_rates) * steps);
    r.timing("hit_ms", &hits);
    r.set("hit_p50_ms", stats::quantile(&hits, 0.5));
    r.set("hit_p95_ms", stats::quantile(&hits, 0.95));
    r.timing("resume_s", &per_pass(|p| p.resume_s));
    r.set(
        "service.submit_rtt_ms",
        median(&per_cold(|c| c.submit_rtt_ms)),
    );
    r.set("service.queue_ms", median(&per_cold(|c| c.queue_ms)));
    r.set(
        "service.execute_ms_per_run",
        median(&per_cold(|c| c.execute_ms_per_run)),
    );
    r.set("service.merge_ms", median(&per_cold(|c| c.merge_ms)));
    let (last, _) = passes.last().expect("non-empty");
    r.set("service.resume_rerun_runs", last.resume_rerun_runs as f64);
    r.set("service.resume_useful_ratio", last.resume_useful_ratio);
    let runs: usize = plan.checked().into_iter().map(campaign_size).sum();
    r.set("sim.jobs", runs as f64);
    r.set("sim.cycles", runs as f64 * steps);
    r.set("sim.failed_jobs", 0.0);

    if args.trace {
        traced_service(&plan, &refs, &passes, &mut r);
    }
    r.set("peak_rss_mb", peak_rss_mb());
    Some(r)
}

/// The traced half of a `--trace 1` service run: files of the first
/// pass, decorated in-process references, and the ledger (the second
/// pass is the traced one).
fn traced_service(
    plan: &service::Plan,
    refs: &[Vec<aps_types::SimTrace>],
    passes: &[(service::PassOut, PathBuf)],
    r: &mut Report,
) {
    // The last pass is the traced one; the pass right before it is its
    // untraced reference.
    let (traced, untraced) = passes.split_last().expect("two passes");
    let untraced_wall = untraced.last().expect("two passes").0.wall_s;
    let (first, data) = &untraced[0];
    match service::files(plan, data, first) {
        Ok(f) => {
            if f.bad_entries > 0 {
                r.fail(format!(
                    "{} cache entries hold the wrong trace count",
                    f.bad_entries
                ));
            }
            r.set(
                "service.shard_log_read_ms_per_run",
                f.shard_log_read_ms_per_run,
            );
            r.set("service.shard_log_bytes_per_run", f.shard_log_bytes_per_run);
            r.set("service.checkpoint_bytes", f.checkpoint_bytes as f64);
            r.set("service.cache_lookup_ms", f.cache_lookup_ms);
            r.set("service.cache_hits", f.cache_hits as f64);
            r.set("service.cache_misses", f.cache_misses as f64);
        }
        Err(e) => r.fail(format!("reading service files failed: {e}")),
    }

    // Decorated sessions must reproduce each reference campaign.
    let mut tk = campaign::CampaignTicks::default();
    let (mut cycles, mut jobs) = (0u64, 0u64);
    for (spec, traces) in plan.checked().into_iter().zip(refs) {
        let grid = Grid::from_spec(spec.clone());
        let digests: Vec<u64> = traces
            .iter()
            .map(aps_sim::checkpoint::trace_digest)
            .collect();
        let traced = campaign::run_traced(&grid, 1, &digests, false);
        if traced.mismatches > 0 {
            r.fail(format!(
                "{} decorated sessions changed their trace",
                traced.mismatches
            ));
        }
        tk.add(&traced.ticks);
        cycles += grid.cycles;
        jobs += grid.jobs.len() as u64;
    }
    // The cache publish re-encoded outside-in: the same traces through
    // the same store encoder.
    let t = Instant::now();
    for traces in &refs[..plan.cold.len()] {
        std::hint::black_box(aps_tracestore::write_store(traces, 0).expect("store encodes"));
    }
    let store_s = t.elapsed().as_secs_f64();

    let (traced, _) = traced;
    let mut l = ledger::Ledger::new();
    l.per_cycle(&tk, cycles, jobs, r);
    let execute: f64 = traced.cold.iter().map(|c| c.execute_s).sum();
    l.service(traced.wall_s, untraced_wall, execute, store_s);
    l.finish(traced.wall_s, untraced_wall, r);
}
