//! Reduced-scale smoke runs of the benchmark binary (`--smoke`):
//! every metric `BENCHMARK.json` names is printed with its unit, the
//! output checks fire on a deliberately wrong expected digest, and the
//! traced run computes the ledger reconciliation.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-eval", "closed-loop", "service"];

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name/unit")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs the smoke benchmark; returns the exit code, the parsed last
/// line of standard output, and standard error (for failure messages).
fn run(workload: &str, trace: bool, extra: &[&str]) -> (i32, Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let result = serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("{workload}: last line `{last}` is not JSON: {e}\n{stderr}"));
    (out.status.code().unwrap_or(-1), result, stderr)
}

fn metric(result: &Value, name: &str) -> (f64, String) {
    let m = result
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"));
    let value = m
        .get("value")
        .and_then(Value::as_f64)
        .expect("numeric value");
    let unit = m
        .get("unit")
        .and_then(Value::as_str)
        .expect("unit")
        .to_owned();
    (value, unit)
}

fn assert_declared_metrics(result: &Value, list: &str, workload: &str) {
    let printed = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let declared = declared(list);
    assert_eq!(
        printed.len(),
        declared.len(),
        "{workload}: {list} metric count"
    );
    for (name, unit) in &declared {
        let (value, printed_unit) = metric(result, name);
        assert_eq!(&printed_unit, unit, "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for w in WORKLOADS {
        let (code, result, stderr) = run(w, false, &[]);
        assert_eq!(code, 0, "{w}: exit code\n{stderr}");
        assert_eq!(
            result.get("correct").and_then(Value::as_bool),
            Some(true),
            "{w}"
        );
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{w}");
        assert_declared_metrics(&result, "end_to_end", w);
        for (name, _) in declared("end_to_end") {
            assert!(metric(&result, &name).0 > 0.0, "{w}: {name} must not be 0");
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_reconcile() {
    for w in WORKLOADS {
        let (code, result, stderr) = run(w, true, &[]);
        assert_eq!(code, 0, "{w}: exit code\n{stderr}");
        assert_eq!(
            result.get("correct").and_then(Value::as_bool),
            Some(true),
            "{w}"
        );
        assert_declared_metrics(&result, "per_layer", w);
        let sum = metric(&result, "ledger.layer_sum_s").0;
        let untraced = metric(&result, "ledger.untraced_wall_s").0;
        let ratio = metric(&result, "ledger.reconcile_ratio").0;
        assert!(sum > 0.0 && untraced > 0.0, "{w}: ledger not computed");
        assert!(
            (ratio - (sum / untraced - 1.0)).abs() < 1e-9,
            "{w}: reconciliation"
        );
        assert!(metric(&result, "sim.cycles").0 > 0.0, "{w}: cycle count");
    }
}

#[test]
fn a_wrong_expected_digest_fails_the_run() {
    for w in WORKLOADS {
        let (code, result, _) = run(w, false, &["--expect-digest", "0123456789abcdef"]);
        assert_ne!(code, 0, "{w}: a failed check must not exit 0");
        assert_eq!(
            result.get("correct").and_then(Value::as_bool),
            Some(false),
            "{w}"
        );
        assert!(
            result.get("failed").and_then(Value::as_u64).unwrap_or(0) >= 1,
            "{w}"
        );
    }
}
