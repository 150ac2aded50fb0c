//! One fan-out primitive for the workspace's data parallelism.
//!
//! [`fan_out`] applies a function to every slot of a slice on up to
//! `available_parallelism()` threads, the calling thread being one of
//! them. Threads claim slots one at a time from a shared queue, so a
//! slow slot (a shard on a busy core) does not hold up the rest, and
//! each result lands in its own slot: the outcome never depends on
//! which thread ran what.
//!
//! A fan-out started from inside another one runs inline on the thread
//! that made the call. Nesting therefore never multiplies threads: a
//! shard engine's k-NN build inside a parallel shard solve stays on the
//! shard's thread, which keeps the process at one thread per core and
//! its memory at one working set per thread.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Set while this thread works for a parallel fan-out.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a fan-out worker until dropped, also
/// when an item unwinds.
struct WorkerMark {
    was: bool,
}

impl WorkerMark {
    fn set() -> WorkerMark {
        WorkerMark {
            was: IN_FAN_OUT.replace(true),
        }
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_FAN_OUT.set(self.was);
    }
}

/// Run `f(i, &mut items[i])` for every `i`, in parallel.
///
/// The width is [`width`]`(items.len())`: width − 1
/// threads are spawned and the calling thread works as the last one.
/// Called from inside a fan-out, or with a width of one, it runs the
/// items in index order on the calling thread. A panicking item
/// propagates to the caller once every thread has stopped.
pub fn fan_out<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let width = width(items.len());
    if width <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    let work = || {
        let _mark = WorkerMark::set();
        loop {
            // The guard drops at the end of this statement: items run
            // unlocked, and no item can poison the queue.
            let next = queue.lock().expect("fan-out queue lock").next();
            let Some((i, item)) = next else { break };
            f(i, item);
        }
    };
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width).map(|_| s.spawn(work)).collect();
        work();
        for helper in helpers {
            // Re-raise the item's own panic, not the scope's generic one.
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Threads a fan-out over `items` slots gets on the current thread: one
/// inside another fan-out, else `available_parallelism()` capped at
/// `items`. A caller that sizes per-item state by it allocates none for
/// items that could only run after the others have finished.
///
/// The core count is read once per process: `available_parallelism()`
/// reads the cgroup files on every call (≈ 18 µs on a 2-vCPU VM, more
/// than half a scoped spawn and join), and every k-NN build, lockstep
/// round, seam window and LK pass asks. A process whose affinity mask
/// changes after the first call keeps the first count.
pub fn width(items: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if IN_FAN_OUT.get() {
        return 1;
    }
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    cores.min(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    #[test]
    fn results_land_in_index_order() {
        for n in [0usize, 1, 2, 17] {
            let mut slots = vec![usize::MAX; n];
            fan_out(&mut slots, |i, slot| *slot = i * i);
            assert_eq!(slots, (0..n).map(|i| i * i).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn nested_call_runs_on_the_outer_workers_thread() {
        // Each outer item records its thread, the width a fan-out gets
        // there (a nested run may finish before a helper would start,
        // so the thread ids alone could pass by luck), and the threads
        // its nested items ran on.
        let mut outer: Vec<(Option<ThreadId>, usize, Vec<Option<ThreadId>>)> =
            vec![(None, 0, vec![None; 5]); 6];
        fan_out(&mut outer, |_, (me, nested_width, inner)| {
            *me = Some(thread::current().id());
            *nested_width = width(usize::MAX);
            fan_out(inner, |_, id| *id = Some(thread::current().id()));
        });
        for (me, nested_width, inner) in &outer {
            assert!(me.is_some());
            assert_eq!(*nested_width, 1);
            assert!(inner.iter().all(|id| id == me), "{inner:?} vs {me:?}");
        }
        let cores = thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(width(usize::MAX), cores, "outside any fan-out");
    }

    #[test]
    fn a_panicking_item_reaches_the_caller() {
        let mut slots = vec![0u32; 9];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(&mut slots, |i, slot| {
                assert_ne!(i, 4, "item four fails");
                *slot = 1;
            })
        }));
        let msg = caught.expect_err("the panic must propagate");
        let text = msg
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| msg.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(text.contains("item four fails"), "{text}");
        // The unwind cleared the caller's worker mark: its next
        // fan-out may spread again.
        assert!(!IN_FAN_OUT.get());
    }
}
