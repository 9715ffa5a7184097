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
//! [`WindowBarrier`] is the agreement primitive: two phase barriers around
//! a lock-free slot per shard. Every barrier is a [`Rendezvous`], which
//! spins before it parks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;

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

/// The min-exchange of a sharded run's window protocol: every shard
/// publishes one bound per round through
/// [`publish_mins_timed`](WindowBarrier::publish_mins_timed) and reads back
/// every shard's, from which each computes its own window end.
///
/// A round is two [`Rendezvous`] waits. `resolve` opens the reads: every
/// shard has written its slot. `close` ends the round: every shard has
/// read all slots, so none can overwrite its slot with the next round's
/// value while a slow peer still reads this round's. The caller's own
/// round gate, where the shards make their cross-shard messages visible
/// before reading their queues (`sharded.rs` in the network crate), is a
/// separate barrier.
///
/// Memory ordering: the per-shard slots are written and read with
/// `Relaxed` ordering. This is sound because every slot write
/// happens-before the `resolve` rendezvous, which happens-before every slot
/// read of the round, and every read happens-before the `close`
/// rendezvous, which happens-before the next round's writes.
pub struct WindowBarrier {
    mins: Vec<AtomicU64>,
    resolve: Rendezvous,
    close: Rendezvous,
}

impl WindowBarrier {
    /// Create a barrier for `shards` participating worker threads.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "WindowBarrier needs at least one shard");
        Self {
            mins: (0..shards).map(|_| AtomicU64::new(IDLE)).collect(),
            resolve: Rendezvous::new(shards),
            close: Rendezvous::new(shards),
        }
    }

    /// One round: publish this shard's earliest-obligation bound (in raw
    /// picoseconds, [`IDLE`] when it has none) and fill `out` with *every*
    /// shard's published value, indexed by shard id. Returns how long this
    /// shard blocked waiting for its peers, in host nanoseconds — host
    /// wall-clock, for self-profiling only, never fed back into simulated
    /// state.
    ///
    /// A caller that knows a lower bound `L` on the latency of any
    /// cross-shard effect can run shard `i` up to `min(min over j != i of
    /// out[j] + L, out[i] + 2L)` — every peer's earliest event plus one
    /// crossing, and its own plus a round trip — see the sharded runner in
    /// the network crate (DESIGN.md §11). All values [`IDLE`] means every
    /// shard is done.
    ///
    /// The published value is a *promise*, not just a queue peek: a shard
    /// must publish a value `p` such that every event it will ever hand to
    /// a peer from now on arrives no earlier than `p + L`. Publishing the
    /// earliest pending event time satisfies this.
    pub fn publish_mins_timed(&self, shard: usize, local_ps: u64, out: &mut Vec<u64>) -> u64 {
        self.mins[shard].store(local_ps, Ordering::Relaxed);
        let waited = std::time::Instant::now();
        self.resolve.wait();
        out.clear();
        out.extend(self.mins.iter().map(|m| m.load(Ordering::Relaxed)));
        // Without this a fast shard could re-enter and overwrite its slot
        // for round k+1 while a slow peer still reads round k's values.
        self.close.wait();
        waited.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn a_single_shard_reads_back_its_own_value() {
        let b = WindowBarrier::new(1);
        let mut out = Vec::new();
        for v in [42, IDLE] {
            b.publish_mins_timed(0, v, &mut out);
            assert_eq!(out, [v]);
        }
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
    fn back_to_back_rounds_never_see_a_peers_next_round() {
        // Rounds back to back: only the round-closing rendezvous keeps a
        // fast shard's round-k+1 value out of a slow peer's round-k read.
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
}
