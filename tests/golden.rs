//! Golden oracle: the exact bits the closed-loop engine must keep
//! producing.
//!
//! `GOLDEN.json` (repository root) pins two families of values:
//!
//! * the fault-tolerant campaign digest (`CampaignReport::digest`, a
//!   rolling hash over every outcome in job order) for both platforms ×
//!   the `quick` and `extended` grids × three in-loop arms: no monitor,
//!   CAWOT with Algorithm-1 mitigation, and CAWOT with the
//!   context-dependent mitigation policy;
//! * per platform, the `trace_digest` of one `Session` that exercises
//!   announced and unannounced meals, an exercise bout, a fault, a
//!   three-monitor bank driving mitigation, and an observer — plus how
//!   many records the observer saw.
//!
//! Every value is recomputed here and compared with the committed
//! file. On a mismatch the test prints the recomputed JSON. The file
//! changes only together with a documented behaviour change; it is
//! never edited to make this test pass.

use aps_repro::prelude::*;
use aps_repro::sim::checkpoint::{to_hex, trace_digest};
use serde_json::{Map, Value};

/// CAWOT with guideline-default thresholds, built per run.
fn cawot(ctx: &ScenarioCtx) -> Box<dyn HazardMonitor> {
    Box::new(CawMonitor::new(
        "cawot",
        Scs::with_default_thresholds(ctx.target),
        ctx.basal,
    ))
}

fn campaign_digests() -> Map {
    let arms: [(&str, bool, bool); 3] = [
        ("no-monitor", false, false),
        ("cawot+algorithm1", true, false),
        ("cawot+context", true, true),
    ];
    let mut out = Map::new();
    for platform in Platform::ALL {
        for (scale, base) in [
            ("quick", CampaignSpec::quick(platform)),
            ("extended", CampaignSpec::extended(platform)),
        ] {
            for (arm, monitored, context) in arms {
                let spec = CampaignSpec {
                    mitigate: monitored,
                    context_mitigate: context,
                    ..base.clone()
                };
                let factory: Option<&MonitorFactory<'_>> = monitored.then_some(&cawot as _);
                let ft = run_campaign_ft(&spec, factory, &CampaignOptions::default())
                    .expect("no checkpointing, so no I/O error");
                let mut entry = Map::new();
                entry.insert("jobs".into(), Value::Num(ft.report.total_jobs as f64));
                entry.insert("digest".into(), Value::Str(ft.report.digest));
                out.insert(format!("{platform:?}/{scale}/{arm}"), Value::Object(entry));
            }
        }
    }
    out
}

fn session_digests() -> Map {
    let mut out = Map::new();
    for platform in Platform::ALL {
        let patient = platform.patient(1).expect("cohort member 1");
        let config = LoopConfig {
            mitigator: Some(Mitigator::paper_default(
                platform.max_mitigation_rate(patient.as_ref()),
            )),
            meals: vec![Meal::new(Step(15), 30.0), Meal::announced(Step(70), 25.0)],
            exercise: vec![ExerciseBout::new(Step(100), 0.6, 45.0)],
            ..LoopConfig::default()
        };
        let mut observed = 0usize;
        let trace = Session::builder(platform)
            .patient(1)
            .monitor_spec(MonitorSpec::Cawot)
            .monitor_spec(MonitorSpec::Guideline)
            .monitor_spec(MonitorSpec::RiskIndex)
            .inject(FaultScenario::new("rate", FaultKind::Max, Step(40), 24))
            .config(config)
            .observer(|_| observed += 1)
            .run()
            .expect("valid session");
        let mut entry = Map::new();
        entry.insert(
            "trace_digest".into(),
            Value::Str(to_hex(trace_digest(&trace))),
        );
        entry.insert("observed_records".into(), Value::Num(observed as f64));
        out.insert(format!("{platform:?}"), Value::Object(entry));
    }
    out
}

#[test]
fn engine_output_matches_the_golden_oracle() {
    let mut recomputed = Map::new();
    recomputed.insert("campaigns".into(), Value::Object(campaign_digests()));
    recomputed.insert("sessions".into(), Value::Object(session_digests()));
    let recomputed = Value::Object(recomputed);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/GOLDEN.json");
    let committed: Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|json| serde_json::from_str(&json).ok())
        .unwrap_or_default();
    assert!(
        committed == recomputed,
        "engine output differs from GOLDEN.json; recomputed:\n{}",
        serde_json::to_string_pretty(&recomputed).unwrap_or_default()
    );
}
