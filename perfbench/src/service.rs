//! The `service` workload: one client drives an in-process
//! `run_daemon` on a fresh data directory per pass.
//!
//! A pass submits a seed-generated sequence of small cold campaigns
//! with distinct specs (cache misses: executor, checkpoints, shard
//! logs, merge, cache publish), resubmits earlier specs between them
//! (cache hits over the wire), and finally submits one more cold job
//! that the daemon abandons through `ServiceConfig::interrupt_after`
//! (a deterministic stand-in for SIGKILL). A fresh daemon on the same
//! directory then resumes it to `JobDone`.

use crate::campaign::{SplitMix, WORKERS};
use aps_service::job::{read_shard_log, JobManifest};
use aps_service::{run_daemon, Client, Event, ResultCache, ServiceConfig, ServiceError};
use aps_sim::campaign::{campaign_size, run_campaign_serial, CampaignSpec};
use aps_sim::checkpoint::{from_hex, spec_hash, AggregatePartials, CampaignCheckpoint};
use aps_sim::platform::Platform;
use aps_types::SimTrace;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shards requested per submission.
pub const SHARDS: usize = 2;

/// The seed-generated request sequence of one pass.
pub struct Plan {
    /// Cold campaigns, in submission order (distinct specs).
    pub cold: Vec<CampaignSpec>,
    /// After cold job `j`, the earlier cold jobs to resubmit.
    pub hits: Vec<Vec<usize>>,
    /// The campaign that is interrupted and resumed.
    pub resumed: CampaignSpec,
    /// Lifetime executions after which the first daemon stops.
    pub interrupt_after: usize,
}

impl Plan {
    /// Builds the plan for `seed`; `smoke` shrinks it.
    ///
    /// Every seed runs the same seven campaigns, patient `i` at the
    /// `i`-th initial BG, so every seed does the same work; the seed
    /// shuffles which one is submitted when, which one is interrupted,
    /// and which earlier job each hit resubmits.
    pub fn new(seed: u64, smoke: bool) -> Plan {
        let mut rng = SplitMix::new(seed);
        let bgs = aps_glucose::patients::initial_bg_values();
        let mut pairs: Vec<(usize, f64)> = bgs.iter().copied().enumerate().collect();
        rng.shuffle(&mut pairs);
        let (n_cold, hits_per_gap, steps) = if smoke { (2, 5, 40) } else { (6, 40, 150) };
        let spec = |(p, bg): (usize, f64)| CampaignSpec {
            patient_indices: vec![p],
            initial_bgs: vec![bg],
            steps,
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let cold: Vec<CampaignSpec> = pairs[..n_cold].iter().copied().map(spec).collect();
        let hits = (0..n_cold)
            .map(|j| (0..hits_per_gap).map(|_| rng.below(j + 1)).collect())
            .collect();
        let resumed = spec(pairs[n_cold]);
        let executed: usize = cold.iter().map(campaign_size).sum();
        let interrupt_after = executed + campaign_size(&resumed) / 3;
        Plan {
            cold,
            hits,
            resumed,
            interrupt_after,
        }
    }

    /// Every spec whose `JobDone` digest a pass checks: the cold jobs,
    /// then the resumed one.
    pub fn checked(&self) -> Vec<&CampaignSpec> {
        self.cold
            .iter()
            .chain(std::iter::once(&self.resumed))
            .collect()
    }
}

/// The campaign digest a `JobDone` must carry for `traces`
/// (`AggregatePartials` over the outcomes in job order).
pub fn digest_of(traces: &[SimTrace]) -> String {
    let mut partials = AggregatePartials::default();
    for t in traces {
        partials.fold_completed(t);
    }
    partials.digest
}

/// In-process references: `run_campaign_serial` of every checked spec.
pub fn reference(plan: &Plan) -> Vec<Vec<SimTrace>> {
    plan.checked()
        .into_iter()
        .map(|s| run_campaign_serial(s, None))
        .collect()
}

/// Client-side timings of one cold job.
#[derive(Debug, Clone, Default)]
pub struct ColdJob {
    /// Submit sent → `JobDone` received, seconds.
    pub total_s: f64,
    /// Process CPU seconds (daemon and client) over the same interval.
    pub cpu_s: f64,
    /// Submit round trip, ms.
    pub submit_rtt_ms: f64,
    /// Submitted → first observed `Progress`, ms.
    pub queue_ms: f64,
    /// First `Progress` → last `ShardDone`, ms per run.
    pub execute_ms_per_run: f64,
    /// First `Progress` → last `ShardDone`, seconds.
    pub execute_s: f64,
    /// Last `ShardDone` → `JobDone`, ms.
    pub merge_ms: f64,
    /// Runs in the campaign.
    pub runs: usize,
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Whole pass, seconds.
    pub wall_s: f64,
    /// One entry per cold job.
    pub cold: Vec<ColdJob>,
    /// Cache-hit resubmission round trips, ms.
    pub hits_ms: Vec<f64>,
    /// Fresh daemon start → `JobDone` of the resumed job, seconds.
    pub resume_s: f64,
    /// Runs of the resumed job executed more than once.
    pub resume_rerun_runs: usize,
    /// Runs the resumed job needed ÷ runs executed for it.
    pub resume_useful_ratio: f64,
    /// Requests sent plus campaign runs executed.
    pub attempted: u64,
    /// Failed checks: wrong `JobDone` digests, missed or spurious hits.
    pub problems: Vec<String>,
    /// CPU and steal seconds over the pass.
    pub cpu: crate::clock::CpuClock,
    /// Cold-job and resumed-job ids, in [`Plan::checked`] order.
    pub jobs: Vec<String>,
}

fn io_err(path: &Path, e: std::io::Error) -> ServiceError {
    ServiceError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// A daemon running `run_daemon` on its own thread.
struct Daemon(JoinHandle<Result<(), ServiceError>>);

fn start(socket: &Path, data: &Path, interrupt_after: Option<usize>) -> Daemon {
    let mut config = ServiceConfig::new(socket, data);
    config.workers = Some(WORKERS);
    config.interrupt_after = interrupt_after;
    Daemon(std::thread::spawn(move || run_daemon(config)))
}

impl Daemon {
    fn join(self) -> Result<(), ServiceError> {
        self.0.join().unwrap_or_else(|_| {
            Err(ServiceError::Remote {
                code: "panic".into(),
                detail: "daemon thread panicked".into(),
            })
        })
    }
}

/// Connects, retrying for up to ~10 s while the daemon binds its socket.
fn connect(socket: &Path) -> Result<Client, ServiceError> {
    let mut last = None;
    for _ in 0..10_000 {
        match Client::connect(socket) {
            Ok(c) => return Ok(c),
            Err(e) => last = Some(e),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(last.expect("at least one attempt"))
}

/// Event timestamps of one subscription.
#[derive(Default)]
struct Watched {
    first_progress: Option<Instant>,
    last_shard: Option<Instant>,
    done: Option<(Instant, String, String)>,
}

/// Subscribes to `job` and reads events until `JobDone` or `Closing`.
fn watch(socket: &Path, job: &str) -> Result<Watched, ServiceError> {
    let mut events = connect(socket)?.subscribe(job)?;
    let mut w = Watched::default();
    loop {
        match events.next_event()? {
            Event::Progress { .. } => {
                w.first_progress.get_or_insert_with(Instant::now);
            }
            Event::ShardDone { .. } => w.last_shard = Some(Instant::now()),
            Event::JobDone { state, digest, .. } => {
                w.done = Some((Instant::now(), state, digest));
                return Ok(w);
            }
            Event::Closing => return Ok(w),
        }
    }
}

/// Runs one pass on a fresh data dir `data` and socket `socket`,
/// checking every `JobDone` digest against `expected`
/// ([`Plan::checked`] order).
pub fn pass(
    plan: &Plan,
    data: &Path,
    socket: &Path,
    expected: &[String],
) -> Result<PassOut, ServiceError> {
    let mut out = PassOut::default();
    let c0 = crate::clock::CpuClock::now();
    let t0 = Instant::now();
    let daemon = start(socket, data, Some(plan.interrupt_after));
    let mut client = connect(socket)?;
    for (j, spec) in plan.cold.iter().enumerate() {
        let (sent, cpu) = (Instant::now(), crate::clock::process_cpu_s());
        let sub = client.submit(spec.clone(), SHARDS, 0, "0")?;
        let submitted = Instant::now();
        let w = watch(socket, &sub.job)?;
        let cpu_s = crate::clock::process_cpu_s() - cpu;
        out.attempted += 2 + sub.total_jobs as u64;
        let (done_at, state, digest) =
            w.done
                .clone()
                .unwrap_or((submitted, String::new(), String::new()));
        if sub.cached || state != "done" || digest != expected[j] {
            out.problems.push(format!(
                "cold job {j}: cached {}, state `{state}`, digest {digest} (expected {})",
                sub.cached, expected[j]
            ));
        }
        let first = w.first_progress.unwrap_or(submitted);
        let last = w.last_shard.unwrap_or(done_at);
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        out.cold.push(ColdJob {
            total_s: done_at.duration_since(sent).as_secs_f64(),
            cpu_s,
            submit_rtt_ms: ms(sent, submitted),
            queue_ms: ms(submitted, first),
            execute_ms_per_run: ms(first, last) / sub.total_jobs.max(1) as f64,
            execute_s: ms(first, last) / 1e3,
            merge_ms: ms(last, done_at),
            runs: sub.total_jobs,
        });
        out.jobs.push(sub.job);
        for &h in &plan.hits[j] {
            let t = Instant::now();
            let hit = client.submit(plan.cold[h].clone(), SHARDS, 0, "0")?;
            out.hits_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            if !hit.cached || hit.job != out.jobs[h] {
                out.problems
                    .push(format!("resubmitted job {h} was not a cache hit"));
            }
        }
    }

    // The interrupted job: the daemon stops itself mid-campaign (it may
    // be gone before a subscription could reach it, so the manifest it
    // saved on the way out is read instead).
    let sub = client.submit(plan.resumed.clone(), SHARDS, 0, "0")?;
    drop(client);
    daemon.join()?;
    out.attempted += 1;
    let dir = JobManifest::dir(&data.join("jobs"), &sub.job);
    let interrupted = JobManifest::load(&dir)?;
    if interrupted.is_terminal() {
        out.problems
            .push("the interrupted job finished before the interrupt".into());
    }
    // Runs the checkpoints preserved across the interrupt.
    let preserved: usize = (0..SHARDS)
        .filter_map(|s| CampaignCheckpoint::load(&JobManifest::ckpt_path(&dir, s)).ok())
        .map(|c| c.completed.count())
        .sum();

    // A fresh daemon on the same directory resumes it.
    let t = Instant::now();
    let daemon = start(socket, data, None);
    let w = watch(socket, &sub.job)?;
    out.resume_s = t.elapsed().as_secs_f64();
    let mut client = connect(socket)?;
    client.shutdown()?;
    drop(client);
    daemon.join()?;
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu = crate::clock::CpuClock::now().since(c0);
    out.attempted += 2 + sub.total_jobs as u64;
    let digest_ok = w
        .done
        .as_ref()
        .is_some_and(|(_, state, d)| state == "done" && Some(d) == expected.last());
    if !digest_ok {
        out.problems
            .push("the resumed job did not finish with the reference digest".into());
    }
    // Runs executed for the job by both daemons.
    let executed = interrupted.executed_jobs + sub.total_jobs.saturating_sub(preserved);
    out.resume_rerun_runs = interrupted.executed_jobs.saturating_sub(preserved);
    out.resume_useful_ratio = sub.total_jobs as f64 / executed.max(1) as f64;
    out.jobs.push(sub.job);
    Ok(out)
}

/// Figures read from the data directory after a pass.
#[derive(Debug, Clone, Default)]
pub struct Files {
    /// `read_shard_log` over every finished cold-job log, ms per run.
    pub shard_log_read_ms_per_run: f64,
    /// Shard-log bytes per run.
    pub shard_log_bytes_per_run: f64,
    /// Checkpoint bytes, summed over every cold-job shard.
    pub checkpoint_bytes: u64,
    /// `ResultCache::lookup` of every cold job, ms (median).
    pub cache_lookup_ms: f64,
    /// `CacheStats::hits`.
    pub cache_hits: usize,
    /// `CacheStats::misses`.
    pub cache_misses: usize,
    /// Cached stores whose trace count was wrong.
    pub bad_entries: usize,
}

/// Reads the finished pass's shard logs, checkpoints and cache.
pub fn files(plan: &Plan, data: &Path, out: &PassOut) -> Result<Files, ServiceError> {
    let mut f = Files::default();
    let cache = ResultCache::open(data)?;
    let (mut read_s, mut runs, mut log_bytes) = (0.0, 0usize, 0u64);
    let mut lookups = Vec::new();
    for (spec, job) in plan.cold.iter().zip(&out.jobs) {
        let dir = JobManifest::dir(&data.join("jobs"), job);
        let manifest = JobManifest::load(&dir)?;
        for shard in 0..manifest.shards {
            let log = JobManifest::log_path(&dir, shard);
            let t = Instant::now();
            let lines = read_shard_log(&log)?;
            read_s += t.elapsed().as_secs_f64();
            runs += lines.len();
            log_bytes += std::fs::metadata(&log).map_err(|e| io_err(&log, e))?.len();
            let ckpt = JobManifest::ckpt_path(&dir, shard);
            f.checkpoint_bytes += std::fs::metadata(&ckpt)
                .map_err(|e| io_err(&ckpt, e))?
                .len();
        }
        let key = from_hex(job).unwrap_or(0);
        let t = Instant::now();
        let entry = cache.lookup(key, spec_hash(spec));
        lookups.push(t.elapsed().as_secs_f64() * 1e3);
        if entry.map_or(0, |r| r.len()) != campaign_size(spec) {
            f.bad_entries += 1;
        }
    }
    f.shard_log_read_ms_per_run = read_s * 1e3 / runs.max(1) as f64;
    f.shard_log_bytes_per_run = log_bytes as f64 / runs.max(1) as f64;
    f.cache_lookup_ms = crate::stats::median(&lookups);
    let stats = cache.load_stats();
    f.cache_hits = stats.hits;
    f.cache_misses = stats.misses;
    Ok(f)
}

/// A fresh, empty directory `root/name`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, ServiceError> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
    Ok(dir)
}

/// Set-up of one pass's service side: a fresh data dir, a daemon that
/// binds and answers one status request, then a clean shutdown.
pub fn setup_once(root: &Path, socket: &Path) -> Result<(), ServiceError> {
    let data = fresh_dir(root, "setup")?;
    let daemon = start(socket, &data, None);
    let mut client = connect(socket)?;
    client.status("")?;
    client.shutdown()?;
    drop(client);
    daemon.join()?;
    let _ = std::fs::remove_dir_all(&data);
    Ok(())
}
