//! Conservative window synchronization for sharded simulation.
//!
//! A sharded run partitions the component graph across worker threads, each
//! owning a private [`Engine`](crate::Engine). Threads advance in lock-step
//! *windows*: every round, each shard publishes the timestamp of its next
//! pending event, the shards agree on the global minimum `m`, and every shard
//! then executes all events strictly before `m + L`, where `L` is the
//! *lookahead* — a lower bound on the latency of any cross-shard interaction.
//! Because an event executing at `t < m + L` can only schedule cross-shard
//! work at `t' >= t + L >= m + L`, no shard can receive a message timestamped
//! inside the window it is currently executing, so every shard sees exactly
//! the events a single-threaded run would deliver, in the same order (given
//! deterministic [`EventKey`](crate::EventKey) tie-breaking).
//!
//! [`WindowBarrier`] is the agreement primitive: a pair of phase barriers plus
//! a lock-free min-reduction slot per shard. Every barrier is a
//! [`Rendezvous`], which spins before it parks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;

use crate::time::Time;

/// Sentinel published by a shard with no pending events (and no other
/// future cross-shard obligations). Public so callers of
/// [`WindowBarrier::publish_mins_timed`] can interpret raw slot values.
pub const IDLE: u64 = u64::MAX;

/// Checks a waiting party makes before it parks: about 0.2 ms of
/// `spin_loop` with a `yield_now` every [`YIELD_EVERY`] checks. Peers of a
/// window usually arrive within microseconds. Parking at once (as
/// `std::sync::Barrier` does) makes every round pay a futex wake-up whose
/// latency on a virtual machine varies with the host's load far more than
/// the window's own work does; yielding at every check spends the wait in
/// system calls, which slow a peer sharing the physical core. The periodic
/// yield lets two parties sharing one CPU hand it to each other.
const SPIN_LIMIT: u32 = 4096;

/// Spinning checks between two yields.
const YIELD_EVERY: u32 = 64;

/// Longest a parked party sleeps before re-checking. Host time only.
const PARK_WAIT: std::time::Duration = std::time::Duration::from_millis(1);

/// A reusable all-party barrier: [`wait`](Rendezvous::wait) returns once
/// every one of `parties` threads has called it for the current round.
///
/// A waiter spins for a bounded number of checks and then parks on a
/// condvar, so an idle shard does not burn a core while a busy peer
/// finishes a long window. The last arrival takes the lock and wakes the
/// condvar only when some party is parked, so a round in which every
/// waiter caught it spinning makes no system call.
///
/// Arrivals bump one monotone counter: round `r`'s arrivals are numbers
/// `r·parties + 1 ..= (r+1)·parties`, so each party knows the count that
/// closes its round without a separate generation word. The bump and the
/// check make every write a party made before arriving visible to every
/// party leaving the round.
pub struct Rendezvous {
    parties: u64,
    arrivals: AtomicU64,
    /// Parties parked (or about to park) on `cond`.
    parked: AtomicU64,
    lock: Mutex<()>,
    cond: Condvar,
}

impl Rendezvous {
    /// A barrier for `parties` threads (at least one).
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a rendezvous needs at least one party");
        Self {
            parties: parties as u64,
            arrivals: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Arrive and block until every party of this round has.
    pub fn wait(&self) {
        // `SeqCst` on `arrivals` and `parked` on both sides: either the
        // parking party's re-check sees the last arrival, or the last
        // arrival sees the parked count and notifies under the lock, after
        // the parking party started waiting. No wake-up is lost.
        let me = self.arrivals.fetch_add(1, Ordering::SeqCst) + 1;
        let target = me.div_ceil(self.parties) * self.parties;
        if me == target {
            if self.parked.load(Ordering::SeqCst) > 0 {
                let _guard = self.lock.lock().unwrap();
                self.cond.notify_all();
            }
            return;
        }
        for i in 0..SPIN_LIMIT {
            if self.arrivals.load(Ordering::Acquire) >= target {
                return;
            }
            if i % YIELD_EVERY == YIELD_EVERY - 1 {
                thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let mut guard = self.lock.lock().unwrap();
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.arrivals.load(Ordering::SeqCst) < target {
            guard = self.cond.wait_timeout(guard, PARK_WAIT).unwrap().0;
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Barrier used by sharded runs to agree on the next window start.
///
/// Each round has two phases:
///
/// 1. [`exchange`](WindowBarrier::exchange) — all shards rendezvous after
///    flushing their cross-shard outboxes, so every in-flight message is
///    visible in the destination shard's inbox before anyone computes its
///    local minimum.
/// 2. [`agree_min`](WindowBarrier::agree_min) — each shard publishes the
///    timestamp of its earliest pending event (or "idle") and receives the
///    global minimum across all shards. `None` means every shard is idle and
///    the simulation has terminated.
///
/// Memory ordering: the per-shard slots are written and read with `Relaxed`
/// ordering. This is sound because each min-exchange round is bracketed by
/// [`Rendezvous::wait`] calls, which establish happens-before edges between
/// every writer and every reader: a shard reads slot values only after the
/// interior rendezvous, which all writers have passed; and a shard overwrites
/// its slot in round *k+1* only after the round-closing rendezvous inside
/// [`publish_mins_timed`](WindowBarrier::publish_mins_timed), which the
/// round-*k* readers must also have passed.
///
/// [`exchange`]: WindowBarrier::exchange
pub struct WindowBarrier {
    shards: usize,
    mins: Vec<AtomicU64>,
    publish: Rendezvous,
    resolve: Rendezvous,
}

impl WindowBarrier {
    /// Create a barrier for `shards` participating worker threads.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "WindowBarrier needs at least one shard");
        Self {
            shards,
            mins: (0..shards).map(|_| AtomicU64::new(IDLE)).collect(),
            publish: Rendezvous::new(shards),
            resolve: Rendezvous::new(shards),
        }
    }

    /// Number of participating shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Phase-1 rendezvous: blocks until all shards have arrived.
    ///
    /// Call after pushing this round's cross-shard messages into their
    /// destination channels; on return, every message sent before any peer's
    /// `exchange` call is available to its destination shard.
    pub fn exchange(&self) {
        self.publish.wait();
    }

    /// Phase-2 min-reduction: publish this shard's earliest pending event
    /// time and return the global minimum across all shards.
    ///
    /// `local` is `None` when the shard has no pending events. Returns `None`
    /// only when *every* shard is idle, i.e. the simulation has terminated.
    pub fn agree_min(&self, shard: usize, local: Option<Time>) -> Option<Time> {
        self.agree_min_timed(shard, local).0
    }

    /// [`agree_min`](WindowBarrier::agree_min) that also reports how long
    /// this shard blocked waiting for its peers, in host nanoseconds.
    ///
    /// The wait time is host wall-clock — it varies run to run and between
    /// machines, so it must never feed back into simulated state; it exists
    /// purely for self-profiling (how much of a shard's life is barrier
    /// overhead versus useful event execution).
    pub fn agree_min_timed(&self, shard: usize, local: Option<Time>) -> (Option<Time>, u64) {
        let mut all = Vec::with_capacity(self.shards);
        let waited_ns = self.publish_mins_timed(shard, local.map_or(IDLE, |t| t.as_ps()), &mut all);
        let min = all.iter().copied().min().unwrap_or(IDLE);
        if min == IDLE {
            (None, waited_ns)
        } else {
            (Some(Time::from_ps(min)), waited_ns)
        }
    }

    /// Full min-exchange: publish this shard's earliest-obligation bound
    /// (in raw picoseconds, [`IDLE`] when it has none) and fill `out` with
    /// *every* shard's published value, indexed by shard id. Returns how
    /// long this shard blocked waiting for its peers, in host nanoseconds.
    ///
    /// This is the primitive behind per-shard window bounds: a caller that
    /// knows a lower bound `L` on the latency of any cross-shard effect can
    /// run shard `i` up to `min(min over j != i of out[j] + L, out[i] + 2L)`
    /// — every peer's earliest event plus one crossing, and its own plus a
    /// round trip — see the sharded runner in the network crate
    /// (DESIGN.md §11).
    ///
    /// The published value is a *promise*, not just a queue peek: a shard
    /// must publish a value `p` such that every event it will ever hand to
    /// a peer from now on arrives no earlier than `p + L`. Publishing the
    /// earliest pending event time satisfies this.
    ///
    /// The same barrier memory-ordering argument as [`agree_min`]
    /// (see the type-level docs) covers the whole-slice read: every slot
    /// write happens-before the `resolve` rendezvous, which happens-before
    /// every slot read.
    ///
    /// [`agree_min`]: WindowBarrier::agree_min
    pub fn publish_mins_timed(&self, shard: usize, local_ps: u64, out: &mut Vec<u64>) -> u64 {
        self.mins[shard].store(local_ps, Ordering::Relaxed);
        let waited = std::time::Instant::now();
        self.resolve.wait();
        out.clear();
        out.extend(self.mins.iter().map(|m| m.load(Ordering::Relaxed)));
        // Close the round before returning: without this rendezvous a fast
        // shard could re-enter and overwrite its slot for round k+1 while a
        // slow peer is still reading round k's values, handing the slow
        // shard an inconsistent (future) minimum. `agree_min` historically
        // relied on callers interposing `exchange()` between rounds;
        // publish_mins_timed is called back-to-back, so it closes the round
        // itself.
        self.publish.wait();
        waited.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn single_shard_agrees_with_itself() {
        let b = WindowBarrier::new(1);
        assert_eq!(
            b.agree_min(0, Some(Time::from_ps(42))),
            Some(Time::from_ps(42))
        );
        assert_eq!(b.agree_min(0, None), None);
        assert_eq!(b.shards(), 1);
    }

    #[test]
    fn min_reduction_across_threads() {
        let b = WindowBarrier::new(4);
        let locals = [Some(700u64), Some(300), None, Some(500)];
        let (tx, rx) = mpsc::channel();
        thread::scope(|s| {
            for (i, l) in locals.iter().enumerate() {
                let b = &b;
                let tx = tx.clone();
                s.spawn(move || {
                    b.exchange();
                    let got = b.agree_min(i, l.map(Time::from_ps));
                    tx.send(got).unwrap();
                });
            }
        });
        drop(tx);
        for got in rx {
            assert_eq!(got, Some(Time::from_ps(300)));
        }
    }

    #[test]
    fn timed_variant_agrees_and_reports_a_wait() {
        let b = WindowBarrier::new(2);
        thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let b = &b;
                    s.spawn(move || b.agree_min_timed(i, Some(Time::from_ps(100 + i as u64))))
                })
                .collect();
            for h in handles {
                let (min, _waited_ns) = h.join().unwrap();
                // Wait time is host wall-clock and may legitimately be 0ns
                // on the last arrival; only the agreed minimum is checkable.
                assert_eq!(min, Some(Time::from_ps(100)));
            }
        });
    }

    #[test]
    fn publish_mins_returns_every_shards_value() {
        let b = WindowBarrier::new(3);
        let locals = [400u64, 100, IDLE];
        thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let b = &b;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        b.publish_mins_timed(i, locals[i], &mut out);
                        out
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), vec![400, 100, IDLE]);
            }
        });
    }

    #[test]
    fn publish_mins_rounds_interleave_with_agree_min() {
        // The two entry points share slots and barriers; mixing them
        // across rounds must keep every shard's view consistent.
        let b = WindowBarrier::new(2);
        thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|i| {
                    let b = &b;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        b.publish_mins_timed(i as usize, 10 + i, &mut out);
                        assert_eq!(out, vec![10, 11]);
                        let got = b.agree_min(i as usize, Some(Time::from_ps(20 + i)));
                        assert_eq!(got, Some(Time::from_ps(20)));
                        b.publish_mins_timed(i as usize, 30 + i, &mut out);
                        assert_eq!(out, vec![30, 31]);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn back_to_back_rounds_never_see_a_peers_next_round() {
        // No `exchange` between rounds: only the round-closing rendezvous
        // keeps a fast shard's round-k+1 value out of a slow peer's round-k
        // read.
        const ROUNDS: u64 = 20_000;
        let b = WindowBarrier::new(3);
        thread::scope(|s| {
            let handles: Vec<_> = (0..3u64)
                .map(|shard| {
                    let b = &b;
                    // Keep taking part after a bad read, so the peers
                    // never wait on a panicked thread.
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut first_bad = None;
                        for round in 0..ROUNDS {
                            b.publish_mins_timed(shard as usize, round * 3 + shard, &mut out);
                            if first_bad.is_none() && out != [0, 1, 2].map(|p| round * 3 + p) {
                                first_bad = Some((round, out.clone()));
                            }
                        }
                        first_bad
                    })
                })
                .collect();
            for (shard, h) in handles.into_iter().enumerate() {
                assert_eq!(h.join().unwrap(), None, "shard {shard} read a wrong round");
            }
        });
    }

    #[test]
    fn all_idle_terminates() {
        let b = WindowBarrier::new(3);
        thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let b = &b;
                    s.spawn(move || b.agree_min(i, None))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), None);
            }
        });
    }

    #[test]
    fn repeated_rounds_reuse_slots() {
        let b = WindowBarrier::new(2);
        thread::scope(|s| {
            let h0 = {
                let b = &b;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..10u64 {
                        b.exchange();
                        out.push(b.agree_min(0, Some(Time::from_ps(round * 10 + 5))));
                    }
                    out
                })
            };
            let h1 = {
                let b = &b;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..10u64 {
                        b.exchange();
                        out.push(b.agree_min(1, Some(Time::from_ps(round * 10 + 7))));
                    }
                    out
                })
            };
            let a = h0.join().unwrap();
            let c = h1.join().unwrap();
            for (round, (x, y)) in a.iter().zip(c.iter()).enumerate() {
                let want = Some(Time::from_ps(round as u64 * 10 + 5));
                assert_eq!(*x, want);
                assert_eq!(*y, want);
            }
        });
    }
}
