//! The crate's one ordered parallel executor: the scalar, batched and
//! fault-tolerant campaign runners and monitor replay all hand their
//! work units to [`run_ordered`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::thread;
use std::time::Duration;

/// Result slots in the bounded channel, per worker.
const CHANNEL_PER_WORKER: usize = 2;
/// How far past the emission frontier a worker may start a unit, per
/// worker.
const AHEAD_PER_WORKER: usize = 4;
/// How long a gated worker parks before re-reading the frontier.
const PARK: Duration = Duration::from_micros(100);

/// Why the drain stopped before the channel closed.
enum Halt<E> {
    Emit(E),
    Panic(Box<dyn std::any::Any + Send>),
}

/// Runs `work(u)` for every unit `u` in `0..units` on up to `workers`
/// scoped threads and hands each result to `emit(u, result)` on the
/// calling thread, strictly in unit order; with one worker everything
/// runs inline. Workers claim units from one atomic counter (so load
/// balances however uneven the units are) and send results through a
/// bounded channel into a reorder buffer. Run-ahead is capped on both
/// sides: the channel backpressures a slow `emit`, and a worker parks
/// rather than start a unit `AHEAD_PER_WORKER × workers` or more past
/// the emission frontier, so peak buffering is O(workers) however slow
/// the head-of-line unit is.
///
/// Once `stop` is raised no further unit starts; the units emitted
/// are always a gap-free prefix, and their count is returned (`units`
/// when `stop` stays down).
///
/// # Errors
///
/// The first error `emit` returns; nothing after that unit is emitted.
///
/// # Panics
///
/// Re-raises the first (in unit order) panic of `work`, with its
/// original payload, once every unit before it has been emitted — the
/// same contract as the inline path.
pub(crate) fn run_ordered<T: Send, E>(
    units: usize,
    workers: usize,
    stop: Option<&AtomicBool>,
    work: impl Fn(usize) -> T + Sync,
    mut emit: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<usize, E> {
    // sound: Acquire pairs with the stopper's Release store, so a
    // worker that observes the flag also observes everything written
    // before it was raised; a stale read only delays the stop by one
    // unit and can never reorder emission.
    let stopped = || stop.is_some_and(|s| s.load(Ordering::Acquire));
    let workers = workers.min(units);
    if workers <= 1 {
        for u in 0..units {
            if stopped() {
                return Ok(u);
            }
            emit(u, work(u))?;
        }
        return Ok(units);
    }

    let next = AtomicUsize::new(0);
    let frontier = AtomicUsize::new(0);
    let halt = AtomicBool::new(false);
    // sound: Acquire pairs with the drain's Release store of `halt`;
    // the flag publishes no data, so a stale read only costs one more
    // claim or park poll before the worker leaves.
    let halted = || halt.load(Ordering::Acquire) || stopped();
    let max_ahead = AHEAD_PER_WORKER * workers;
    let (tx, rx) = sync_channel::<(usize, thread::Result<T>)>(CHANNEL_PER_WORKER * workers);
    let mut emitted = 0usize;
    let mut early: Option<Halt<E>> = None;
    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, frontier, halted, work) = (&next, &frontier, &halted, &work);
            scope.spawn(move || {
                while !halted() {
                    // sound: Relaxed suffices for the claim counter —
                    // fetch_add is an atomic RMW, so claims are unique
                    // and monotone regardless of ordering (the claimed
                    // set is a prefix, so a stop leaves no gap); the
                    // result is published by the channel send.
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    if u >= units {
                        break;
                    }
                    // The frontier unit is never gated, so the frontier
                    // advances until the run halts, and a halt releases
                    // every parked worker.
                    //
                    // sound: Acquire pairs with the frontier's Release
                    // store; a stale read under-estimates the frontier
                    // and parks one extra poll — it never admits u
                    // early.
                    while u >= frontier.load(Ordering::Acquire) + max_ahead {
                        if halted() {
                            return;
                        }
                        thread::sleep(PARK);
                    }
                    // A panic travels to the drain as this unit's
                    // result, so the frontier still reaches it.
                    let result = catch_unwind(AssertUnwindSafe(|| work(u)));
                    if tx.send((u, result)).is_err() {
                        break; // drain gone: abandon quietly
                    }
                }
            });
        }
        // Workers own every sender through the clones; dropping the
        // original ends the stream once they all exit.
        drop(tx);

        let mut buffer: BTreeMap<usize, thread::Result<T>> = BTreeMap::new();
        // Breaking drops `rx`, so workers blocked in `send` fail out;
        // `halt` releases the ones parked at the gate.
        'drain: for (u, result) in rx {
            debug_assert!(!buffer.contains_key(&u), "unit {u} executed twice");
            buffer.insert(u, result);
            while let Some(result) = buffer.remove(&emitted) {
                let outcome = match result {
                    Ok(value) => emit(emitted, value).map_err(Halt::Emit),
                    Err(payload) => Err(Halt::Panic(payload)),
                };
                if let Err(h) = outcome {
                    early = Some(h);
                    // sound: Release pairs with the Acquire load in
                    // `halted`.
                    halt.store(true, Ordering::Release);
                    break 'drain;
                }
                emitted += 1;
                // sound: Release publishes the advanced frontier — a
                // gated worker whose Acquire load sees the new value
                // also sees every emission before it.
                frontier.store(emitted, Ordering::Release);
            }
        }
        debug_assert!(
            early.is_some() || stopped() || emitted == units,
            "stream ended with gaps"
        );
    });
    match early {
        None => Ok(emitted),
        Some(Halt::Emit(e)) => Err(e),
        Some(Halt::Panic(payload)) => resume_unwind(payload),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::mpsc;
    use std::sync::Mutex;

    /// Runs `f` on its own thread and fails the calling test, instead
    /// of hanging it, if `f` has not returned within 20 s.
    pub(crate) fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(20))
            .expect("executor hung (watchdog fired after 20 s)")
    }

    /// Runs the executor and records every emission.
    fn collect(units: usize, workers: usize) -> Vec<(usize, usize)> {
        let mut seen = Vec::new();
        let emitted = run_ordered(
            units,
            workers,
            None,
            |u| u * u + 1,
            |u, v| {
                seen.push((u, v));
                Ok::<_, Infallible>(())
            },
        );
        assert_eq!(emitted, Ok(units));
        seen
    }

    #[test]
    fn emission_matches_inline_path_for_every_shape() {
        for units in [0, 1, 7, 8, 9, 33] {
            let inline = collect(units, 1);
            assert_eq!(
                inline,
                (0..units).map(|u| (u, u * u + 1)).collect::<Vec<_>>()
            );
            for workers in [2, 3, 8] {
                assert_eq!(
                    collect(units, workers),
                    inline,
                    "units={units} workers={workers}"
                );
            }
        }
    }

    /// The O(workers) memory bound: while unit 0 is stalled, no worker
    /// may start a unit at or past `AHEAD_PER_WORKER × workers`.
    #[test]
    fn stalled_head_caps_run_ahead() {
        for workers in [2, 3] {
            let limit = AHEAD_PER_WORKER * workers;
            let (started_tx, started_rx) = mpsc::channel::<usize>();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let release_rx = Mutex::new(release_rx);
            let observer = thread::spawn(move || {
                // Every unit inside the window starts…
                let mut started = Vec::new();
                while started.len() < limit - 1 {
                    match started_rx.recv_timeout(Duration::from_secs(20)) {
                        Ok(u) => started.push(u),
                        Err(_) => break,
                    }
                }
                // …and, given a grace period, none past it does.
                while let Ok(u) = started_rx.recv_timeout(Duration::from_millis(100)) {
                    started.push(u);
                }
                release_tx
                    .send(())
                    .expect("executor still waiting on unit 0");
                started
            });
            let emitted = run_ordered(
                4 * limit,
                workers,
                None,
                |u| {
                    if u == 0 {
                        let rx = release_rx.lock().expect("release lock poisoned");
                        rx.recv_timeout(Duration::from_secs(20))
                            .expect("observer never released unit 0");
                    } else {
                        // The observer hangs up after releasing unit 0.
                        let _ = started_tx.send(u);
                    }
                    u
                },
                |_, _| Ok::<_, Infallible>(()),
            );
            assert_eq!(emitted, Ok(4 * limit));
            let mut started = observer.join().expect("observer panicked");
            started.sort_unstable();
            assert_eq!(
                started,
                (1..limit).collect::<Vec<_>>(),
                "workers={workers}: units started while unit 0 stalled"
            );
        }
    }

    #[test]
    fn stop_mid_run_emits_a_gap_free_prefix() {
        let units = 200;
        let stop = AtomicBool::new(false);
        let mut seen = Vec::new();
        let emitted = run_ordered(
            units,
            2,
            Some(&stop),
            |u| u,
            |u, v| {
                assert_eq!(u, v);
                seen.push(u);
                if seen.len() == 6 {
                    stop.store(true, Ordering::Release);
                }
                Ok::<_, Infallible>(())
            },
        )
        .unwrap();
        assert_eq!(seen, (0..emitted).collect::<Vec<_>>());
        assert!((6..units).contains(&emitted), "emitted {emitted}");
    }

    /// An early stop must also release workers parked at the gate.
    #[test]
    fn emit_error_stops_the_pool_and_is_returned() {
        let (result, seen) = within_watchdog(|| {
            let mut seen = Vec::new();
            let result = run_ordered(
                100,
                2,
                None,
                |u| u,
                |u, _| {
                    seen.push(u);
                    if u == 3 {
                        Err("full")
                    } else {
                        Ok(())
                    }
                },
            );
            (result, seen)
        });
        assert_eq!(result, Err("full"));
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn first_panic_in_unit_order_reaches_the_caller() {
        for workers in [1, 2] {
            let (caught, seen) = within_watchdog(move || {
                let mut seen = Vec::new();
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    run_ordered(
                        40,
                        workers,
                        None,
                        |u| {
                            if u >= 5 && u % 5 == 0 {
                                panic!("unit {u} failed");
                            }
                            u
                        },
                        |u, _| {
                            seen.push(u);
                            Ok::<_, Infallible>(())
                        },
                    )
                }));
                let msg = caught.map_err(|p| p.downcast_ref::<String>().cloned());
                (msg, seen)
            });
            assert_eq!(
                caught,
                Err(Some("unit 5 failed".to_owned())),
                "workers={workers}"
            );
            assert_eq!(seen, (0..5).collect::<Vec<_>>(), "workers={workers}");
        }
    }
}
