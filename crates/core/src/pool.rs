//! The crate's one scoped worker pool.
//!
//! Algorithm 1's pair sweep, Algorithm 2's per-model loop and the n-gram
//! prescreen all have the same shape: `items` independent pieces of work,
//! each pure given its index, whose results are wanted in index order.
//! [`run`] schedules them over `std::thread::scope` workers that claim
//! indices from an atomic counter, each worker with private state (an
//! [`InferArena`](mdes_nn::InferArena) for Algorithm 2). Each worker keeps
//! its own `(index, result)` list, merged by index after the join, so
//! results do not depend on the schedule and no slot mutex is shared.
//!
//! A pool of one worker can run on the calling thread instead of spawning
//! one ([`OneWorker`]), so a serving pump round with `threads == 1` costs
//! no thread spawn. Every worker runs under [`catch_unwind`]: a panicking
//! item ends its worker, never the process, and the caller gets the
//! finished results plus the panic text as [`Lost`].

use crate::error::CoreError;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, ignoring poisoning. Every lock in this crate guards state
/// that stays consistent across a panic (scratch arenas are rewritten
/// before they are read; stores and checkpoint writers are updated by whole
/// assignments), so a panic elsewhere must not wedge later users.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Text of a panic payload (`&str` or `String`; anything else is named).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A pool run in which at least one worker panicked.
#[derive(Debug)]
pub(crate) struct Lost<T> {
    /// Each item's result, `None` where no worker finished the item.
    pub slots: Vec<Option<T>>,
    /// Panic text of the first worker (in spawn order) that died.
    pub detail: String,
}

impl<T> Lost<T> {
    /// The typed error for this run: how many items went unfinished, and
    /// why.
    pub fn error(&self) -> CoreError {
        CoreError::WorkerLost {
            lost: self.slots.iter().filter(|s| s.is_none()).count(),
            detail: self.detail.clone(),
        }
    }
}

/// Where a run with one worker executes.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum OneWorker {
    /// On the calling thread: no spawn for short calls made often (an
    /// Algorithm 2 round, a prescreen block).
    OnCaller,
    /// On a spawned thread, as with several workers. The Algorithm 1 sweep
    /// uses this: its NMT pair training measured about 11 % more CPU on the
    /// benchmark's main thread than on a spawned worker (mdesbench
    /// `stream_nmt` `fit_cpu_s`, 10 paired runs on a 2-vCPU shared host),
    /// and one spawn per sweep costs nothing next to training.
    Spawned,
}

/// Runs `work(state, i)` for every `i < items` and returns the results in
/// index order.
///
/// `threads` workers (0 = all CPUs, never more than `items`) claim indices
/// from a shared counter; each calls `init` once for its private state.
/// `one` says where a single worker runs. `work` must be pure given `i` (up
/// to its state), so the schedule cannot change results.
///
/// # Errors
///
/// Returns [`Lost`] when a worker panicked; the other workers still drain
/// the remaining indices.
pub(crate) fn run<S, T: Send>(
    items: usize,
    threads: usize,
    one: OneWorker,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Result<Vec<T>, Lost<T>> {
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
    .clamp(1, items.max(1));
    let next = AtomicUsize::new(0);
    // One worker's loop: its finished `(index, result)` pairs survive a
    // panic part-way through, so only the item in flight is lost.
    let drain = || {
        let mut done: Vec<(usize, T)> = Vec::new();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                done.push((i, work(&mut state, i)));
            }
        }))
        .err()
        .map(|payload| panic_message(&*payload));
        (done, panicked)
    };
    let runs = if items == 0 || (workers == 1 && one == OneWorker::OnCaller) {
        vec![drain()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| (Vec::new(), Some(panic_message(&*payload))))
                })
                .collect()
        })
    };

    let mut slots: Vec<Option<T>> = (0..items).map(|_| None).collect();
    let mut lost = None;
    for (done, panicked) in runs {
        for (i, out) in done {
            slots[i] = Some(out);
        }
        lost = lost.or(panicked);
    }
    match lost {
        Some(detail) => Err(Lost { slots, detail }),
        None => Ok(slots
            .into_iter()
            .map(|s| s.expect("no worker died, so every item finished"))
            .collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_pool_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        // One worker, or more workers than items: nothing to spawn.
        for (items, threads) in [(5, 1), (1, 4)] {
            let ran_on = run(
                items,
                threads,
                OneWorker::OnCaller,
                || (),
                |_, _| std::thread::current().id(),
            );
            assert_eq!(ran_on.ok(), Some(vec![caller; items]));
            // Unless the one worker is asked to be spawned.
            let ran_on = run(
                items,
                threads,
                OneWorker::Spawned,
                || (),
                |_, _| std::thread::current().id(),
            );
            assert!(ran_on.expect("no panic").iter().all(|&id| id != caller));
        }
        // Several workers still fill every slot in index order.
        let squares = run(6, 3, OneWorker::OnCaller, || (), |_, i| i * i);
        assert_eq!(squares.ok(), Some(vec![0, 1, 4, 9, 16, 25]));
        for one in [OneWorker::OnCaller, OneWorker::Spawned] {
            assert_eq!(run(0, 2, one, || (), |_, i| i).ok(), Some(Vec::new()));
        }
    }

    #[test]
    fn each_worker_initialises_its_own_state_once() {
        let inits = AtomicUsize::new(0);
        let out = run(
            40,
            4,
            OneWorker::OnCaller,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |calls, i| {
                *calls += 1;
                (i, *calls)
            },
        )
        .expect("nothing panics");
        assert_eq!(inits.load(Ordering::Relaxed), 4);
        // Results come back in index order whichever worker ran them, and
        // each worker's state persisted across its items.
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..40).collect::<Vec<_>>()
        );
        // Only a worker's first item sees a fresh state.
        let firsts = out.iter().filter(|&&(_, c)| c == 1).count();
        assert!((1..=4).contains(&firsts), "{firsts} fresh states");
    }

    #[test]
    fn a_panicking_item_is_reported_as_lost_in_both_modes() {
        // The lone worker on the calling thread, spawned, and three workers.
        for (threads, one) in [
            (1, OneWorker::OnCaller),
            (1, OneWorker::Spawned),
            (3, OneWorker::OnCaller),
        ] {
            let lost = match run(
                8,
                threads,
                one,
                || (),
                |_, i| {
                    assert!(i != 5, "item {i} exploded");
                    i * 10
                },
            ) {
                Err(lost) => lost,
                Ok(v) => panic!("expected a lost worker, got {v:?}"),
            };
            assert!(lost.detail.contains("item 5 exploded"), "{}", lost.detail);
            assert_eq!(lost.slots[5], None);
            // Every finished item keeps its result at its own index.
            for (i, slot) in lost.slots.iter().enumerate() {
                if let Some(v) = slot {
                    assert_eq!(*v, i * 10);
                }
            }
            if threads == 1 {
                // The lone worker stops at the panic: 0..5 done, 5.. lost.
                assert_eq!(lost.slots.iter().flatten().count(), 5);
            } else {
                // Surviving workers drain the rest: only item 5 is lost.
                assert_eq!(lost.slots.iter().flatten().count(), 7);
            }
            match lost.error() {
                CoreError::WorkerLost { lost: n, detail } => {
                    assert_eq!(n, lost.slots.iter().filter(|s| s.is_none()).count());
                    assert!(detail.contains("item 5 exploded"));
                }
                other => panic!("expected WorkerLost, got {other:?}"),
            }
        }
    }

    #[test]
    fn lock_survives_a_poisoning_panic() {
        let m = Mutex::new(1);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = lock(&m);
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
    }
}
