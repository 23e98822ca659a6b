//! The closed-loop engine, run as a lockstep block of lanes.
//!
//! Every run in the crate goes through one per-cycle loop
//! (`run_block_engine`): a [`Session`](crate::session::Session) or a
//! positional [`closed_loop::run`](crate::closed_loop::run) is a
//! one-lane block over its own [`PatientSim`], each job of the scalar
//! and fault-tolerant campaign executors a one-lane block
//! ([`run_block::<1>`](run_block)), and the batched executor steps
//! blocks of up to [`BATCH_LANES`] jobs together. In a campaign block
//! each job becomes a lane of a structure-of-arrays patient bank
//! ([`aps_glucose::bergman::BatchedBergman`] /
//! [`aps_glucose::dalla_man::BatchedDallaMan`]), the physics
//! integrates all lanes with per-lane loops over flat arrays (the
//! shape the auto-vectorizer turns into SIMD), and the per-cycle
//! components — controller, CGM, pump, monitors, injector, mitigation,
//! trace recording — run per lane.
//!
//! # Bit-identity
//!
//! A job's trace does not depend on the width of the block it runs in:
//! [`run_block`] produces, lane for lane, the same bytes as
//! [`run_campaign_serial`](crate::campaign::run_campaign_serial)'s
//! one-lane blocks (pinned by `tests/batched_equivalence.rs`;
//! `tests/golden.rs` pins both the campaign and the session path to
//! committed digests). Lanes are arithmetically independent — no horizontal reductions,
//! no lane-crossing terms — and every batched physics expression keeps
//! the scalar patient models' operation order, so IEEE-754 determinism
//! carries the equivalence. A lane whose ODE state diverges to NaN/∞
//! fails its end-of-cycle finiteness check, surfaces as that job's
//! [`SimError::NonFinite`], and — because nothing crosses lanes —
//! never poisons its lane-mates.

use crate::campaign::{
    campaign_jobs, worker_count, CampaignJob, CampaignSpec, MonitorFactory, ScenarioCtx,
};
use crate::closed_loop::LoopConfig;
use crate::executor::run_ordered;
use crate::outcome::SimError;
use aps_controllers::Controller;
use aps_core::hms::{ContextMitigator, ContextMitigatorConfig};
use aps_core::mitigation::Mitigator;
use aps_core::monitors::{HazardMonitor, MonitorInput};
use aps_fault::FaultInjector;
use aps_glucose::bergman::BatchedBergman;
use aps_glucose::dalla_man::BatchedDallaMan;
use aps_glucose::patients::CohortPatient;
use aps_glucose::pump::Pump;
use aps_glucose::sensor::Cgm;
use aps_glucose::{BatchedPatientSim, PatientSim};
use aps_types::{
    AlertTrack, ControlAction, Hazard, MgDl, SimTrace, Step, StepRecord, TraceMeta, UnitsPerHour,
    CONTROL_CYCLE_MINUTES,
};
use std::convert::Infallible;

/// Lane width of the batched campaign executor.
///
/// Eight f64 lanes fill one AVX-512 register or two AVX2 / NEON
/// registers per state component — wide enough that the per-lane
/// stage loops vectorize profitably, narrow enough that a block's
/// scratch stays resident in L1 and ragged campaign tails waste few
/// lanes.
pub const BATCH_LANES: usize = 8;

/// Where the scenario's target variable sits in the control loop.
enum FaultRoute {
    /// Actuator command, perturbed after the controller decision.
    Rate,
    /// CGM input, perturbed before the decision.
    Glucose,
    /// Controller-internal variable, by name.
    Internal(String),
}

/// The per-lane harness: everything a closed-loop run needs besides
/// the physics, which lives in the shared lane bank. The parts are
/// borrowed, so a [`Session`](crate::session::Session) can lend the
/// parts it owns and run again, and a campaign block lends the parts
/// [`build_lane`] made for the length of the block.
struct Lane<'a> {
    controller: &'a mut dyn Controller,
    /// Ordered: index 0 is the primary monitor, whose verdicts drive
    /// mitigation and fill [`StepRecord::alert`].
    monitors: Vec<&'a mut dyn HazardMonitor>,
    /// The injector, its target's route and its legitimate bounds,
    /// resolved once per run.
    fault: Option<(&'a mut FaultInjector, FaultRoute, f64, f64)>,
    config: &'a LoopConfig,
    observer: Option<&'a mut dyn FnMut(&StepRecord)>,
    cgm: Cgm,
    pump: Pump,
    ctx_mitigator: Option<ContextMitigator>,
    trace: SimTrace,
    /// One verdict stream per monitor.
    streams: Vec<Vec<Option<Hazard>>>,
    prev_commanded: UnitsPerHour,
    dead: Option<SimError>,
}

impl<'a> Lane<'a> {
    /// Per-run setup: reset components, resolve the fault route and
    /// bounds once, preallocate the trace and verdict streams.
    ///
    /// An unknown fault-target name injects with unbounded range (the
    /// legacy positional API's behaviour);
    /// [`SessionBuilder`](crate::session::SessionBuilder) rejects such
    /// a target before the engine sees it.
    fn new(
        controller: &'a mut dyn Controller,
        mut monitors: Vec<&'a mut dyn HazardMonitor>,
        injector: Option<&'a mut FaultInjector>,
        config: &'a LoopConfig,
        observer: Option<&'a mut dyn FnMut(&StepRecord)>,
        patient_name: &str,
    ) -> Lane<'a> {
        controller.reset();
        for m in monitors.iter_mut() {
            m.reset();
        }
        let mut meta = TraceMeta {
            patient: patient_name.to_owned(),
            initial_bg: config.initial_bg,
            ..TraceMeta::default()
        };
        let fault = injector.map(|inj| {
            inj.reset();
            meta.fault_name = inj.scenario().name();
            meta.fault_start = Some(inj.scenario().start);
            let target = &inj.scenario().target;
            let (lo, hi) = controller
                .state_vars()
                .iter()
                .find(|v| v.name == *target)
                .map(|v| (v.min, v.max))
                .unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
            let route = match target.as_str() {
                "rate" => FaultRoute::Rate,
                "glucose" => FaultRoute::Glucose,
                _ => FaultRoute::Internal(target.clone()),
            };
            (inj, route, lo, hi)
        });
        // Preallocated records: the recording path never reallocates.
        let trace = SimTrace::with_capacity(meta, config.steps as usize);
        let streams = monitors
            .iter()
            .map(|_| Vec::with_capacity(config.steps as usize))
            .collect();
        // Action classification compares against the previous
        // *commanded* rate (the paper's u1..u4 alphabet is over the
        // controller's command stream). The seed compared against the
        // previous *delivered* rate, so pump quantization (e.g. 4.29
        // commanded vs 4.30 delivered) misclassified a steady max-rate
        // fault as `DecreaseInsulin` every cycle and no SCS rule could
        // ever fire.
        let prev_commanded = UnitsPerHour(controller.basal_rate().value());
        Lane {
            controller,
            monitors,
            fault,
            config,
            observer,
            cgm: Cgm::new(config.cgm),
            pump: Pump::new(config.pump),
            ctx_mitigator: config.context_mitigation.map(ContextMitigator::new),
            trace,
            streams,
            prev_commanded,
            dead: None,
        }
    }
}

/// One campaign job's owned closed-loop parts: its freshly reset cohort
/// patient, loaded into the block's bank, and the rest, lent to the
/// engine as a [`Lane`] for the length of the block.
struct JobParts {
    patient: CohortPatient,
    controller: Box<dyn Controller>,
    monitor: Option<Box<dyn HazardMonitor>>,
    injector: Option<FaultInjector>,
    config: LoopConfig,
    patient_name: String,
}

impl JobParts {
    fn lane(&mut self) -> Lane<'_> {
        Lane::new(
            self.controller.as_mut(),
            self.monitor
                .iter_mut()
                .map(|m| m.as_mut() as &mut dyn HazardMonitor)
                .collect(),
            self.injector.as_mut(),
            &self.config,
            None,
            &self.patient_name,
        )
    }
}

/// Builds one campaign job's parts: the one place a job's run is
/// constructed.
fn build_lane(
    spec: &CampaignSpec,
    job: &CampaignJob,
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> JobParts {
    let platform = spec.platform;
    let mut patient = platform
        .concrete_patient(job.patient_idx)
        .unwrap_or_else(|| panic!("patient index {} out of cohort range", job.patient_idx));
    let controller = platform.controller_for(patient.as_dyn());
    let ctx = ScenarioCtx {
        patient: patient.as_dyn().name().to_owned(),
        basal: platform.basal_for(patient.as_dyn()),
        target: platform.target(),
        max_rate: platform.max_mitigation_rate(patient.as_dyn()),
    };
    let monitor = monitor_factory.map(|f| f(&ctx));
    let injector = job.scenario.clone().map(FaultInjector::new);
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
    patient.as_dyn_mut().reset(MgDl(config.initial_bg));
    JobParts {
        patient,
        controller,
        monitor,
        injector,
        config,
        patient_name: ctx.patient,
    }
}

/// Runs a block of up to `LANES` campaign jobs in lockstep, returning
/// one result per job in job order. Every campaign executor runs its
/// jobs through here: the scalar ones as one-job blocks
/// (`run_block::<1>`), the batched one [`BATCH_LANES`] jobs at a time.
/// A job's trace does not depend on the block width (pinned by
/// `tests/batched_equivalence.rs`).
///
/// Ragged blocks (fewer jobs than lanes) load the first job's patient
/// into the unused lanes and step them at a zero insulin rate; padding
/// lanes have no harness and their physics is discarded.
///
/// # Panics
///
/// Panics when `jobs` is empty, longer than `LANES`, or names a
/// patient index outside the platform's cohort.
pub fn run_block<const LANES: usize>(
    spec: &CampaignSpec,
    jobs: &[CampaignJob],
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> Vec<Result<SimTrace, SimError>> {
    assert!(!jobs.is_empty(), "empty lockstep block");
    assert!(
        jobs.len() <= LANES,
        "block of {} jobs exceeds {LANES} lanes",
        jobs.len()
    );
    let mut parts: Vec<JobParts> = jobs
        .iter()
        .map(|job| build_lane(spec, job, monitor_factory))
        .collect();
    // A padding lane loads a real parameter set (instead of the bank's
    // zeroed defaults), so its ODE arithmetic stays finite and no
    // spurious NaNs ride along in the block.
    let patient = |l: usize| &parts.get(l).unwrap_or(&parts[0]).patient;
    match parts[0].patient {
        CohortPatient::Bergman(_) => {
            let mut bank = BatchedBergman::<LANES>::new();
            for l in 0..LANES {
                match patient(l) {
                    CohortPatient::Bergman(bp) => bank.load_lane(l, bp),
                    CohortPatient::DallaMan(_) => {
                        unreachable!("one platform yields one patient model")
                    }
                }
            }
            run_block_engine(&mut bank, parts.iter_mut().map(JobParts::lane).collect())
        }
        CohortPatient::DallaMan(_) => {
            let mut bank = BatchedDallaMan::<LANES>::new();
            for l in 0..LANES {
                match patient(l) {
                    CohortPatient::DallaMan(dp) => bank.load_lane(l, dp),
                    CohortPatient::Bergman(_) => {
                        unreachable!("one platform yields one patient model")
                    }
                }
            }
            run_block_engine(&mut bank, parts.iter_mut().map(JobParts::lane).collect())
        }
    }
}

/// A scalar patient seen as a one-lane bank, so a single run of any
/// [`PatientSim`] — custom models included — goes through the same
/// engine as a campaign block.
struct SoloPatient<'a>(&'a mut dyn PatientSim);

impl BatchedPatientSim<1> for SoloPatient<'_> {
    fn bg(&self, _lane: usize) -> MgDl {
        self.0.bg()
    }

    fn step_all(&mut self, rates: &[UnitsPerHour; 1], minutes: f64) {
        self.0.step(rates[0], minutes);
    }

    fn ingest(&mut self, _lane: usize, carbs_g: f64) {
        self.0.ingest(carbs_g);
    }

    fn exert(&mut self, _lane: usize, intensity: f64, duration_min: f64) {
        self.0.exert(intensity, duration_min);
    }

    fn lane_is_finite(&self, _lane: usize) -> bool {
        self.0.state_is_finite()
    }
}

/// Runs one closed loop over borrowed parts as a one-lane block: the
/// path of [`Session::try_run`](crate::session::Session::try_run) and
/// the positional [`closed_loop::run`](crate::closed_loop::run).
///
/// The monitors are ordered (index 0 is the primary); with none the
/// loop is monitor-free and `monitor_tracks` stays empty.
pub(crate) fn run_solo<'a>(
    patient: &mut dyn PatientSim,
    controller: &'a mut dyn Controller,
    monitors: Vec<&'a mut dyn HazardMonitor>,
    injector: Option<&'a mut FaultInjector>,
    config: &'a LoopConfig,
    observer: Option<&'a mut dyn FnMut(&StepRecord)>,
) -> Result<SimTrace, SimError> {
    patient.reset(MgDl(config.initial_bg));
    let lane = Lane::new(
        controller,
        monitors,
        injector,
        config,
        observer,
        patient.name(),
    );
    let mut results = run_block_engine(&mut SoloPatient(patient), vec![lane]);
    // One lane in, one result out.
    results.remove(0)
}

/// The closed-loop engine — the only one in the crate. One physics
/// step advances every lane of the bank at once; between physics steps
/// each live lane runs its control cycle in one fixed order: meals and
/// exercise, CGM, fault injection, controller, monitor bank,
/// mitigation, pump, recording, observer.
///
/// The engine is *checked*: after every physics step it tests each
/// live lane's finiteness and turns a diverged lane into
/// [`SimError::NonFinite`] instead of letting NaN poison its trace
/// (physiological floors are `f64::max`-style and would silently
/// absorb it). A dead lane is skipped from then on, and the cycle loop
/// stops once every lane is dead.
fn run_block_engine<const LANES: usize>(
    bank: &mut dyn BatchedPatientSim<LANES>,
    mut lanes: Vec<Lane<'_>>,
) -> Vec<Result<SimTrace, SimError>> {
    // Steps are spec-level, identical across a block's lanes.
    let steps = lanes[0].config.steps;
    for s in 0..steps {
        let step = Step(s);
        // Dead and padding lanes ride along the physics step at a zero
        // rate (non-finite state is absorbing, zero-rate padding is
        // finite) without any lane-crossing arithmetic.
        let mut delivered = [UnitsPerHour(0.0); LANES];
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.dead.is_some() {
                continue;
            }
            for meal in lane.config.meals.iter().filter(|m| m.step == step) {
                bank.ingest(l, meal.carbs_g);
                if meal.announced {
                    lane.controller.announce_meal(meal.carbs_g);
                }
            }
            for bout in lane.config.exercise.iter().filter(|b| b.step == step) {
                bank.exert(l, bout.intensity, bout.duration_min);
            }
            let true_bg = bank.bg(l);
            let reading = lane.cgm.sample(true_bg);

            // Fault injection on the controller's input/internal
            // variables.
            if let Some((inj, route, lo, hi)) = lane.fault.as_mut() {
                let (lo, hi) = (*lo, *hi);
                match route {
                    // Output faults are applied after the decision below.
                    FaultRoute::Rate => {}
                    FaultRoute::Glucose => {
                        let faulty = inj.perturb_target(step, reading.value(), lo, hi);
                        if inj.is_active(step) {
                            lane.controller.set_state("glucose", faulty);
                        }
                    }
                    FaultRoute::Internal(target) if inj.is_active(step) => {
                        // Perturb last cycle's value (the freshest
                        // observable) and force it for this decision.
                        let base = lane.controller.get_state(target).unwrap_or(0.5 * (lo + hi));
                        let faulty = inj.perturb_target(step, base, lo, hi);
                        lane.controller.set_state(target, faulty);
                    }
                    FaultRoute::Internal(target) => {
                        // Keep the injector's Hold history fresh
                        // pre-activation.
                        if let Some(base) = lane.controller.get_state(target) {
                            inj.perturb_target(step, base, lo, hi);
                        }
                    }
                }
            }

            let mut commanded = lane.controller.decide(step, reading);
            // Output (actuator-command) faults.
            if let Some((inj, FaultRoute::Rate, lo, hi)) = lane.fault.as_mut() {
                commanded = UnitsPerHour(inj.perturb_target(step, commanded.value(), *lo, *hi));
            }

            let action = ControlAction::classify(commanded, lane.prev_commanded);
            // Monitor bank check: every member sees the same input; the
            // primary's verdict feeds mitigation and the alert column.
            let input = MonitorInput {
                step,
                bg: reading,
                commanded,
                previous_rate: lane.prev_commanded,
            };
            let mut alert = None;
            for (i, m) in lane.monitors.iter_mut().enumerate() {
                let verdict = m.check(&input);
                lane.streams[i].push(verdict);
                if i == 0 {
                    alert = verdict;
                }
            }

            let mitigated = if let Some(cm) = lane.ctx_mitigator.as_mut() {
                let mit_ctx = cm.observe_bg(reading);
                cm.mitigate(alert, &mit_ctx, commanded)
            } else {
                match (&lane.config.mitigator, alert) {
                    (Some(mit), Some(_)) => mit.mitigate(alert, commanded),
                    _ => commanded,
                }
            };

            delivered[l] = lane.pump.deliver(mitigated, CONTROL_CYCLE_MINUTES);
            lane.controller.observe_delivery(delivered[l]);
            for m in lane.monitors.iter_mut() {
                m.observe_delivery(delivered[l]);
            }
            if let Some(cm) = lane.ctx_mitigator.as_mut() {
                cm.observe_delivery(delivered[l]);
            }

            let fault_active = lane.fault.as_ref().is_some_and(|f| f.0.is_active(step));
            lane.trace.push(StepRecord {
                step,
                bg: reading,
                bg_true: true_bg,
                iob: lane.controller.iob(),
                commanded,
                delivered: delivered[l],
                action,
                fault_active,
                hazard: None,
                alert,
            });
            if let (Some(obs), Some(rec)) = (lane.observer.as_mut(), lane.trace.records.last()) {
                obs(rec);
            }
            lane.prev_commanded = commanded;
        }

        bank.step_all(&delivered, CONTROL_CYCLE_MINUTES);

        let mut live = false;
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.dead.is_none() && !bank.lane_is_finite(l) {
                lane.dead = Some(SimError::NonFinite { cycle: s });
            }
            live |= lane.dead.is_none();
        }
        if !live {
            break;
        }
    }

    lanes
        .into_iter()
        .map(|lane| {
            if let Some(e) = lane.dead {
                return Err(e);
            }
            let mut trace = lane.trace;
            trace.monitor_tracks = lane
                .monitors
                .iter()
                .zip(lane.streams)
                .map(|(m, alerts)| AlertTrack {
                    monitor: m.name().to_owned(),
                    alerts,
                })
                .collect();
            aps_risk::label_trace(&mut trace, &lane.config.labels);
            Ok(trace)
        })
        .collect()
}

/// Runs the whole campaign through the batched lockstep engine,
/// streaming each finished trace — **in deterministic job order** —
/// into `sink(job_index, trace)`.
///
/// Workers of the crate's one ordered executor claim *blocks* of
/// [`BATCH_LANES`] consecutive jobs and run each block in lockstep; the
/// calling thread unpacks finished blocks in job order, with the same
/// bounded memory as the scalar
/// [`run_campaign_with`](crate::campaign::run_campaign_with). Output
/// is defined to equal
/// [`run_campaign_serial`](crate::campaign::run_campaign_serial),
/// bit for bit.
///
/// # Panics
///
/// Panics if any job fails mid-run (same contract as the scalar
/// executors; the fault-tolerant path is
/// [`run_campaign_resumable`](crate::campaign::run_campaign_resumable)).
pub fn run_campaign_batched_with(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
    sink: impl FnMut(usize, SimTrace),
) {
    run_campaign_batched_with_workers(spec, monitor_factory, None, sink);
}

/// [`run_campaign_batched_with`] with an explicit worker-count
/// override (`None` = `APS_WORKERS` env, then detection). The
/// workers-scaling sweep of `repro bench-campaign --sweep-workers`
/// drives this directly so each sweep point runs at a pinned worker
/// count.
pub fn run_campaign_batched_with_workers(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
    workers: Option<usize>,
    sink: impl FnMut(usize, SimTrace),
) {
    run_blocks_with::<BATCH_LANES>(spec, monitor_factory, workers, sink);
}

/// Streams the campaign through the crate's one ordered executor in
/// blocks of `LANES` consecutive jobs, each run in lockstep, handing
/// every trace to `sink(job_index, trace)` in job order.
///
/// # Panics
///
/// Panics if any job fails mid-run.
pub(crate) fn run_blocks_with<const LANES: usize>(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
    workers: Option<usize>,
    mut sink: impl FnMut(usize, SimTrace),
) {
    let jobs = campaign_jobs(spec);
    let n = jobs.len();
    let Ok(_) = run_ordered(
        n.div_ceil(LANES),
        worker_count(workers).0,
        None,
        |b| {
            let lo = b * LANES;
            let hi = (lo + LANES).min(n);
            run_block::<LANES>(spec, &jobs[lo..hi], monitor_factory)
                .into_iter()
                .map(|r| r.unwrap_or_else(|e| panic!("campaign job failed: {e}")))
                .collect::<Vec<_>>()
        },
        |b, traces| {
            for (j, trace) in traces.into_iter().enumerate() {
                sink(b * LANES + j, trace);
            }
            Ok::<_, Infallible>(())
        },
    );
}

/// [`run_campaign_batched_with`] collected into a `Vec` — the batched
/// counterpart of [`run_campaign`](crate::campaign::run_campaign),
/// defined to produce bit-identical output.
pub fn run_campaign_batched(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> Vec<SimTrace> {
    let mut out: Vec<SimTrace> = Vec::new();
    run_campaign_batched_with(spec, monitor_factory, |i, trace| {
        debug_assert_eq!(i, out.len(), "stream out of order");
        out.push(trace);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign_serial;
    use crate::platform::Platform;

    #[test]
    fn single_block_matches_serial_jobs() {
        let spec = CampaignSpec {
            patient_indices: vec![0, 1],
            steps: 40,
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let jobs = campaign_jobs(&spec);
        let serial = run_campaign_serial(&spec, None);
        let block = run_block::<4>(&spec, &jobs[..4], None);
        for (l, res) in block.into_iter().enumerate() {
            assert_eq!(res.unwrap(), serial[l], "lane {l} diverged");
        }
    }

    #[test]
    fn ragged_block_pads_and_matches() {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            steps: 30,
            ..CampaignSpec::quick(Platform::T1dsBasalBolus)
        };
        let jobs = campaign_jobs(&spec);
        let serial = run_campaign_serial(&spec, None);
        // 3 jobs in an 8-lane block: 5 padding lanes.
        let block = run_block::<8>(&spec, &jobs[..3], None);
        assert_eq!(block.len(), 3);
        for (l, res) in block.into_iter().enumerate() {
            assert_eq!(res.unwrap(), serial[l], "lane {l} diverged");
        }
    }

    #[test]
    fn batched_campaign_equals_serial() {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            steps: 40,
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let serial = run_campaign_serial(&spec, None);
        let batched = run_campaign_batched(&spec, None);
        assert_eq!(batched, serial);
    }
}
