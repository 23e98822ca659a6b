//! On-disk job state: the per-job manifest and the per-shard result
//! log.
//!
//! A job directory (`<data>/jobs/<id>/`) holds:
//!
//! * `manifest.json` — the versioned [`JobManifest`], written with the
//!   same atomic tmp+rename idiom as campaign checkpoints, so a killed
//!   daemon always restarts from a coherent view;
//! * `shard-<k>.ckpt.json` — the existing versioned
//!   `CampaignCheckpoint` for shard `k`, written by
//!   `run_campaign_resumable` itself (the service invents no new
//!   checkpoint format);
//! * `shard-<k>.log.jsonl` — one [`LogLine`] per emitted job outcome,
//!   flushed from the emission sink *before* the checkpoint that
//!   covers it can be written. The sink runs ahead of the checkpoint,
//!   so the log always holds at least as many lines as the
//!   checkpoint's completed count — resume truncates the log to the
//!   checkpoint and re-runs the remainder, keeping the merged result
//!   bit-identical to an uninterrupted run.

use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use crate::ServiceError;
use aps_sim::campaign::CampaignSpec;
use aps_types::SimTrace;

/// Manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// Queued, waiting for the scheduler.
pub const STATE_QUEUED: &str = "queued";
/// Claimed by the scheduler (also the on-disk state of a job whose
/// daemon was killed — the restart rescan re-queues it).
pub const STATE_RUNNING: &str = "running";
/// All shards complete, results merged.
pub const STATE_DONE: &str = "done";
/// An internal error stopped the job (detail in the manifest).
pub const STATE_FAILED: &str = "failed";
/// Cancelled by request; terminal.
pub const STATE_CANCELLED: &str = "cancelled";

/// Serde view of one job, persisted as `manifest.json` and returned
/// verbatim by `Status`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct JobManifest {
    /// Manifest schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Job id: hex content-address of (spec hash, seed, code hash).
    pub job: String,
    /// The submitted campaign spec (absent only in corrupt files).
    pub spec: Option<CampaignSpec>,
    /// Campaign spec fingerprint (hex u64).
    pub spec_hash: String,
    /// Seed lane of the cache key (hex u64).
    pub seed: String,
    /// Requested shard count.
    pub shards: usize,
    /// Scheduling priority (higher first).
    pub priority: u32,
    /// Lifecycle state: one of the `STATE_*` constants.
    pub state: String,
    /// `true` when the result came from the content-addressed cache
    /// with zero executor work.
    pub cached: bool,
    /// Total jobs in the campaign grid.
    pub total_jobs: usize,
    /// Jobs actually executed for this submission (0 on a cache hit;
    /// resumed restarts count only the jobs run after the restart).
    pub executed_jobs: usize,
    /// Completed jobs across all merged shards.
    pub completed_jobs: usize,
    /// Failed jobs across all merged shards.
    pub failed_jobs: usize,
    /// Shards that have fully completed.
    pub shards_done: usize,
    /// Campaign digest (hex u64) once terminal; byte-equal to the
    /// uninterrupted serial run's digest.
    pub digest: String,
    /// Human-readable detail for `failed` / `cancelled`.
    pub detail: String,
}

impl JobManifest {
    /// Directory of this job under `jobs_dir`.
    pub fn dir(jobs_dir: &Path, job: &str) -> PathBuf {
        jobs_dir.join(job)
    }

    /// Path of shard `k`'s checkpoint file.
    pub fn ckpt_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.ckpt.json"))
    }

    /// Path of shard `k`'s result log.
    pub fn log_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.log.jsonl"))
    }

    /// Loads a manifest from `dir/manifest.json`.
    pub fn load(dir: &Path) -> Result<JobManifest, ServiceError> {
        let path = dir.join("manifest.json");
        let text = std::fs::read_to_string(&path).map_err(|e| ServiceError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        let manifest: JobManifest =
            serde_json::from_str(&text).map_err(|e| ServiceError::Corrupt {
                path: path.display().to_string(),
                detail: e.to_string(),
            })?;
        if manifest.version > MANIFEST_VERSION {
            return Err(ServiceError::Corrupt {
                path: path.display().to_string(),
                detail: format!(
                    "manifest version {} newer than supported {MANIFEST_VERSION}",
                    manifest.version
                ),
            });
        }
        Ok(manifest)
    }

    /// Atomically writes the manifest to `dir/manifest.json`
    /// (tmp + rename, the checkpoint idiom).
    pub fn save(&self, dir: &Path) -> Result<(), ServiceError> {
        std::fs::create_dir_all(dir).map_err(|e| ServiceError::Io {
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        let path = dir.join("manifest.json");
        let tmp = dir.join("manifest.json.tmp");
        let text = serde_json::to_string_pretty(self).map_err(|e| ServiceError::Corrupt {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        let io = |p: &Path| {
            let p = p.display().to_string();
            move |e: std::io::Error| ServiceError::Io {
                path: p.clone(),
                detail: e.to_string(),
            }
        };
        std::fs::write(&tmp, text).map_err(io(&tmp))?;
        std::fs::rename(&tmp, &path).map_err(io(&path))
    }

    /// `true` for `done`/`failed`/`cancelled`.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self.state.as_str(),
            STATE_DONE | STATE_FAILED | STATE_CANCELLED
        )
    }
}

/// One emitted job outcome in a shard result log. A completed job
/// carries its full trace; a failed one carries the rendered error
/// exactly as the campaign ledger/digest saw it, so replaying the log
/// reproduces the campaign digest bit-identically.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct LogLine {
    /// Index of the job within its shard.
    pub job_index: usize,
    /// The trace, for completed jobs.
    pub trace: Option<SimTrace>,
    /// Rendered error message, for failed jobs (empty otherwise).
    pub error: String,
    /// Attempts consumed, for failed jobs.
    pub attempts: u32,
}

/// Append-mode shard log writer; every line is flushed before the
/// write returns, so the log never lags the checkpoint.
pub struct ShardLogWriter {
    out: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
}

impl ShardLogWriter {
    /// Opens `path` for appending (creating it if absent).
    pub fn append(path: &Path) -> Result<ShardLogWriter, ServiceError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| ServiceError::Io {
                path: path.display().to_string(),
                detail: e.to_string(),
            })?;
        Ok(ShardLogWriter {
            out: std::io::BufWriter::new(file),
            path: path.to_path_buf(),
        })
    }

    /// Appends one line and flushes it to the OS.
    pub fn push(&mut self, line: &LogLine) -> Result<(), ServiceError> {
        let io = |e: std::io::Error| ServiceError::Io {
            path: self.path.display().to_string(),
            detail: e.to_string(),
        };
        let text = serde_json::to_string(line).map_err(|e| ServiceError::Corrupt {
            path: self.path.display().to_string(),
            detail: e.to_string(),
        })?;
        self.out.write_all(text.as_bytes()).map_err(io)?;
        self.out.write_all(b"\n").map_err(io)?;
        self.out.flush().map_err(io)
    }
}

/// Reads every parseable line of a shard log, stopping at the first
/// torn/corrupt line (a crash can tear only the final line, because
/// each push is flushed whole).
pub fn read_shard_log(path: &Path) -> Result<Vec<LogLine>, ServiceError> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(ServiceError::Io {
                path: path.display().to_string(),
                detail: e.to_string(),
            })
        }
    };
    let mut lines = Vec::new();
    for raw in std::io::BufReader::new(file).lines() {
        let raw = match raw {
            Ok(r) => r,
            Err(_) => break,
        };
        if raw.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<LogLine>(&raw) {
            Ok(line) => lines.push(line),
            Err(_) => break,
        }
    }
    Ok(lines)
}

/// Rewrites the shard log to exactly `lines` (atomic tmp + rename).
/// Used on resume to drop emissions past the checkpoint frontier
/// before the executor re-runs them.
pub fn truncate_shard_log(path: &Path, lines: &[LogLine]) -> Result<(), ServiceError> {
    let tmp = path.with_extension("jsonl.tmp");
    let io = |p: &Path| {
        let p = p.display().to_string();
        move |e: std::io::Error| ServiceError::Io {
            path: p.clone(),
            detail: e.to_string(),
        }
    };
    let mut text = String::new();
    for line in lines {
        let rendered = serde_json::to_string(line).map_err(|e| ServiceError::Corrupt {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        text.push_str(&rendered);
        text.push('\n');
    }
    std::fs::write(&tmp, text).map_err(io(&tmp))?;
    std::fs::rename(&tmp, path).map_err(io(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_atomically() {
        let dir = std::env::temp_dir().join("aps_service_job_test");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = JobManifest {
            version: MANIFEST_VERSION,
            job: String::from("00000000deadbeef"),
            spec_hash: String::from("00000000deadbeef"),
            seed: String::from("0"),
            shards: 3,
            priority: 1,
            state: String::from(STATE_QUEUED),
            total_jobs: 62,
            ..JobManifest::default()
        };
        manifest.save(&dir).unwrap();
        let back = JobManifest::load(&dir).unwrap();
        assert_eq!(back, manifest);
        assert!(!dir.join("manifest.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_manifest_version_is_rejected() {
        let dir = std::env::temp_dir().join("aps_service_job_test_v");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = JobManifest {
            version: MANIFEST_VERSION + 1,
            ..JobManifest::default()
        };
        manifest.save(&dir).unwrap();
        assert!(matches!(
            JobManifest::load(&dir),
            Err(ServiceError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_log_survives_a_torn_final_line() {
        let dir = std::env::temp_dir().join("aps_service_log_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.log.jsonl");
        let mut w = ShardLogWriter::append(&path).unwrap();
        for i in 0..3 {
            w.push(&LogLine {
                job_index: i,
                error: format!("err {i}"),
                attempts: 1,
                ..LogLine::default()
            })
            .unwrap();
        }
        drop(w);
        // Simulate a crash mid-append: a torn, unparseable last line.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"{\"job_index\": 3, \"tr").unwrap();
        drop(file);

        let lines = read_shard_log(&path).unwrap();
        assert_eq!(lines.len(), 3, "torn tail is dropped, prefix kept");

        // Resume truncates to the checkpoint frontier (here: 2).
        truncate_shard_log(&path, &lines[..2]).unwrap();
        let lines = read_shard_log(&path).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].error, "err 1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_trace_log_line_round_trips() {
        // One faulty 150-step run: a ~30 KB line, mostly object keys.
        let spec = CampaignSpec {
            patient_indices: vec![0],
            initial_bgs: vec![120.0],
            ..CampaignSpec::quick(aps_sim::platform::Platform::GlucosymOref0)
        };
        let trace = aps_sim::campaign::CampaignStream::new(&spec, None)
            .nth(1)
            .unwrap();
        assert_eq!(trace.len(), 150);
        let line = LogLine {
            job_index: 1,
            trace: Some(trace),
            ..LogLine::default()
        };
        let text = serde_json::to_string(&line).unwrap();
        assert!(text.len() > 20_000, "line is {} bytes", text.len());
        assert_eq!(serde_json::from_str::<LogLine>(&text).unwrap(), line);

        let dir = std::env::temp_dir().join("aps_service_full_line_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.log.jsonl");
        ShardLogWriter::append(&path).unwrap().push(&line).unwrap();
        assert_eq!(read_shard_log(&path).unwrap(), vec![line]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_reads_as_empty() {
        let path = std::env::temp_dir().join("aps_service_no_such_log.jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(read_shard_log(&path).unwrap().is_empty());
    }
}
