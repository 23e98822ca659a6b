//! Trace-store read throughput: JSONL full-text deserialization vs
//! the columnar binary store, on the same quick-campaign corpus.
//!
//! Three store variants bracket the cost: full materialization
//! (drop-in replacement for the JSONL path), record iteration without
//! owning the traces (replay-shaped access), and raw column copies
//! (dataset-shaped access). `repro convert --gen-quick --verify` runs
//! the same comparison as a one-shot and records the numbers in
//! results/convert_verify.json.
//!
//! `shard_log_read` decodes the same 31 runs as a campaign-service
//! shard log (one JSON `LogLine` per run), the read the daemon does on
//! merge and on resume.

use aps_service::job::{read_shard_log, LogLine, ShardLogWriter};
use aps_sim::campaign::{run_campaign, CampaignSpec};
use aps_sim::io::{read_jsonl, write_jsonl};
use aps_sim::platform::Platform;
use aps_tracestore::{write_store, F64Column, TraceStoreReader};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_trace_store(c: &mut Criterion) {
    let spec = CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![120.0],
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    };
    let traces = run_campaign(&spec, None);
    let mut jsonl = Vec::new();
    write_jsonl(&traces, &mut jsonl).expect("JSONL encode");
    let store = write_store(&traces, 0).expect("store encode");
    let reader = TraceStoreReader::from_bytes(store.clone()).expect("store open");
    let dir = std::env::temp_dir().join(format!("aps_bench_shard_log_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");
    let log_path = dir.join("shard-0.log.jsonl");
    let mut log = ShardLogWriter::append(&log_path).expect("shard log");
    for (job_index, trace) in traces.iter().enumerate() {
        log.push(&LogLine {
            job_index,
            trace: Some(trace.clone()),
            ..LogLine::default()
        })
        .expect("shard log append");
    }
    drop(log);

    let mut group = c.benchmark_group("trace_store_read");
    group.sample_size(10);
    group.bench_function("jsonl_read_all", |b| {
        b.iter(|| black_box(read_jsonl(black_box(&jsonl[..])).expect("decode").len()))
    });
    group.bench_function("shard_log_read", |b| {
        b.iter(|| black_box(read_shard_log(black_box(&log_path)).expect("decode").len()))
    });
    group.bench_function("store_open_and_read_all", |b| {
        b.iter(|| {
            let r = TraceStoreReader::from_bytes(black_box(store.clone())).expect("open");
            black_box(r.read_all().len())
        })
    });
    group.bench_function("store_iter_records", |b| {
        b.iter(|| {
            let mut steps = 0usize;
            for view in reader.iter() {
                steps += view.records().count();
            }
            black_box(steps)
        })
    });
    group.bench_function("store_copy_columns", |b| {
        let mut bg = Vec::new();
        let mut commanded = Vec::new();
        b.iter(|| {
            let mut acc = 0.0f64;
            for view in reader.iter() {
                view.copy_f64_column(F64Column::Bg, &mut bg);
                view.copy_f64_column(F64Column::Commanded, &mut commanded);
                acc += bg.last().copied().unwrap_or(0.0);
            }
            black_box(acc)
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_trace_store);
criterion_main!(benches);
