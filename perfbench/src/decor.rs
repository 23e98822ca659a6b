//! Timing decorators around the trait objects a `Session` is built
//! from. Each forwards every call unchanged and accumulates the ticks
//! spent in the calls that do work; cheap accessors (`name`, `bg`,
//! `state_is_finite`, `target_bg`, ...) pass through untimed, so their
//! cost stays in the engine's remainder.
//!
//! Counters live in the decorator (plain `Cell`s, no atomics on the hot
//! path) and are flushed into a shared [`Layer`] total when the
//! decorator is dropped, i.e. once per session.

use crate::clock::ticks;
use aps_controllers::{Controller, StateVar};
use aps_core::monitors::{HazardMonitor, MonitorInput};
use aps_glucose::{BoxedPatient, PatientSim};
use aps_types::{Hazard, MgDl, Step, Units, UnitsPerHour};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared running total of one layer: ticks spent and timed calls.
#[derive(Debug, Default)]
pub struct Layer {
    ticks: AtomicU64,
    calls: AtomicU64,
}

impl Layer {
    /// A fresh zeroed total.
    pub fn new() -> Arc<Layer> {
        Arc::new(Layer::default())
    }

    /// Adds one batch of measurements.
    pub fn add(&self, ticks: u64, calls: u64) {
        self.ticks.fetch_add(ticks, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }

    /// `(ticks, calls)` so far.
    pub fn get(&self) -> (u64, u64) {
        (
            self.ticks.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }
}

/// Per-decorator accumulator, flushed to its [`Layer`] on drop.
struct Acc {
    layer: Arc<Layer>,
    ticks: Cell<u64>,
    calls: Cell<u64>,
}

impl Acc {
    fn new(layer: &Arc<Layer>) -> Acc {
        Acc {
            layer: Arc::clone(layer),
            ticks: Cell::new(0),
            calls: Cell::new(0),
        }
    }

    #[inline(always)]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = ticks();
        let r = f();
        self.ticks
            .set(self.ticks.get().wrapping_add(ticks().wrapping_sub(t)));
        self.calls.set(self.calls.get() + 1);
        r
    }
}

impl Drop for Acc {
    fn drop(&mut self) {
        self.layer.add(self.ticks.get(), self.calls.get());
    }
}

/// A `PatientSim` whose model calls are timed (`glucose` layer).
pub struct TimedPatient {
    inner: BoxedPatient,
    acc: Acc,
}

impl TimedPatient {
    /// Wraps `inner`, accumulating into `layer`.
    pub fn new(inner: BoxedPatient, layer: &Arc<Layer>) -> TimedPatient {
        TimedPatient {
            inner,
            acc: Acc::new(layer),
        }
    }
}

impl PatientSim for TimedPatient {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn bg(&self) -> MgDl {
        self.inner.bg()
    }
    fn step(&mut self, rate: UnitsPerHour, minutes: f64) {
        let inner = &mut self.inner;
        self.acc.time(|| inner.step(rate, minutes))
    }
    fn reset(&mut self, bg0: MgDl) {
        let inner = &mut self.inner;
        self.acc.time(|| inner.reset(bg0))
    }
    fn ingest(&mut self, carbs_g: f64) {
        let inner = &mut self.inner;
        self.acc.time(|| inner.ingest(carbs_g))
    }
    fn exert(&mut self, intensity: f64, duration_min: f64) {
        let inner = &mut self.inner;
        self.acc.time(|| inner.exert(intensity, duration_min))
    }
    fn equilibrium_basal(&self, target: MgDl) -> UnitsPerHour {
        self.acc.time(|| self.inner.equilibrium_basal(target))
    }
    fn state_is_finite(&self) -> bool {
        self.inner.state_is_finite()
    }
}

/// A `Controller` whose decision, IOB and state calls are timed
/// (`controllers` layer).
pub struct TimedController {
    inner: Box<dyn Controller>,
    acc: Acc,
}

impl TimedController {
    /// Wraps `inner`, accumulating into `layer`.
    pub fn new(inner: Box<dyn Controller>, layer: &Arc<Layer>) -> TimedController {
        TimedController {
            inner,
            acc: Acc::new(layer),
        }
    }
}

impl Controller for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn decide(&mut self, step: Step, bg: MgDl) -> UnitsPerHour {
        let inner = &mut self.inner;
        self.acc.time(|| inner.decide(step, bg))
    }
    fn iob(&self) -> Units {
        self.acc.time(|| self.inner.iob())
    }
    fn previous_rate(&self) -> UnitsPerHour {
        self.inner.previous_rate()
    }
    fn target_bg(&self) -> MgDl {
        self.inner.target_bg()
    }
    fn basal_rate(&self) -> UnitsPerHour {
        self.inner.basal_rate()
    }
    fn reset(&mut self) {
        let inner = &mut self.inner;
        self.acc.time(|| inner.reset())
    }
    fn observe_delivery(&mut self, delivered: UnitsPerHour) {
        let inner = &mut self.inner;
        self.acc.time(|| inner.observe_delivery(delivered))
    }
    fn state_vars(&self) -> Vec<StateVar> {
        self.acc.time(|| self.inner.state_vars())
    }
    fn get_state(&self, var: &str) -> Option<f64> {
        self.acc.time(|| self.inner.get_state(var))
    }
    fn set_state(&mut self, var: &str, value: f64) -> bool {
        let inner = &mut self.inner;
        self.acc.time(|| inner.set_state(var, value))
    }
    fn announce_meal(&mut self, carbs_g: f64) {
        let inner = &mut self.inner;
        self.acc.time(|| inner.announce_meal(carbs_g))
    }
}

/// A `HazardMonitor` whose checks are timed (`core` layer).
pub struct TimedMonitor {
    inner: Box<dyn HazardMonitor>,
    acc: Acc,
}

impl TimedMonitor {
    /// Wraps `inner`, accumulating into `layer`.
    pub fn new(inner: Box<dyn HazardMonitor>, layer: &Arc<Layer>) -> TimedMonitor {
        TimedMonitor {
            inner,
            acc: Acc::new(layer),
        }
    }
}

impl HazardMonitor for TimedMonitor {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        let inner = &mut self.inner;
        self.acc.time(|| inner.check(input))
    }
    fn observe_delivery(&mut self, delivered: UnitsPerHour) {
        let inner = &mut self.inner;
        self.acc.time(|| inner.observe_delivery(delivered))
    }
    fn reset(&mut self) {
        let inner = &mut self.inner;
        self.acc.time(|| inner.reset())
    }
}
