//! The pending-event set: a stable priority queue ordered by virtual time.
//!
//! Events scheduled for the same instant are delivered in a deterministic
//! order, which makes every simulation reproducible — a property the
//! Mermaid trace-validity argument (physical-time interleaving) relies on.
//! Two tie-break regimes share one entry layout (see [`EventKey`]):
//!
//! * [`EventQueue::push`] assigns a queue-global monotone sequence, so
//!   plain pushes pop FIFO among ties — the classic stable-queue contract.
//! * [`EventQueue::push_keyed`] lets the caller supply the key. The engine
//!   derives it from *simulation state only* (schedule instant, scheduling
//!   component, that component's own push count), so the pop order is
//!   independent of how pushes from different components interleave — the
//!   property that lets a sharded run replay the exact single-threaded
//!   order (see `crate::shard`).
//!
//! A queue should use one regime or the other; mixing them keeps time
//! order but leaves same-instant ties between the two regimes unspecified.
//!
//! # Ladder scheduler
//!
//! The queue is a ladder queue (Tang, Goh and Thng, ACM TOMACS 2005)
//! rather than a single binary heap. Pending events live in one of three
//! tiers by how far ahead of the consumption frontier they are:
//!
//! 1. **current** — a small binary min-heap holding every event earlier
//!    than `cur_end`. All pops come from here.
//! 2. **buckets** — `NUM_BUCKETS` append-only vectors covering the epoch
//!    window `[epoch_base, epoch_base + NUM_BUCKETS × width)`. A push into
//!    this window is an O(1) `Vec::push`; the bucket is heapified in one
//!    batch when the frontier reaches it.
//! 3. **far** — an unsorted vector of everything at or beyond the epoch
//!    horizon. A push here is an O(1) `Vec::push` too.
//!
//! When `current` and all buckets drain, the queue *rebases*: it selects
//! the k-th earliest far time, `k = max(REBASE_BATCH, far.len() / 4)`,
//! sizes `width` so the span from the earliest far time to it fits the 64
//! buckets, and moves every far record below the new horizon into its
//! bucket in one linear pass. At least `k` records leave per rebase, a
//! quarter of the tier or more, so each record is scanned a constant
//! number of times: push, rebase and pop are amortised O(1) apart from
//! the sift in `current`. Every tier orders entries by the same
//! `(time, key)`, so the pop sequence is exactly the sequence a plain
//! stable binary heap would produce — determinism is structural, not
//! incidental. When the pending set is small the queue degrades to
//! plain-heap operation (see `FAR_DRAIN`) instead of paying epoch
//! bookkeeping per event.
//!
//! # Records and the payload slab
//!
//! No tier holds a payload. Items live in one slab (`Vec<Option<T>>` plus
//! a free list of slot indices); every tier holds a 32-byte `Copy` record
//! of `(time, key, slot)`. A heap sift or a bucket scatter therefore moves
//! 32 bytes whatever `T` is, and the payload is written once on push and
//! read once on pop. Ordering never looks at the slot, so the comparisons
//! — and with them the pop sequence — are the ones the inline-payload
//! queue made.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::probe::LadderStats;
use crate::time::Time;

/// Buckets per epoch. Small enough that a cold scan is trivial, large
/// enough that a typical epoch separates events into near-singleton
/// buckets.
const NUM_BUCKETS: usize = 64;

/// The fewest far events a rebase moves into the new epoch. Their span
/// sets the bucket width, so the figure trades adaptivity (small batch)
/// against rebase frequency (large batch).
const REBASE_BATCH: usize = NUM_BUCKETS * 4;

/// Below this many pending far events a drained queue skips epoch
/// construction entirely and falls back to plain heap order: scattering a
/// handful of events into buckets costs more than heap sifting saves, and
/// lightly-loaded simulations (a few timers per node) would otherwise pay
/// a rebase per delivery.
const FAR_DRAIN: usize = 2 * NUM_BUCKETS;

/// Deterministic tie-break key for events that share a delivery time.
///
/// Ordered lexicographically as `(push_ps, src, seq)`:
///
/// * `push_ps` — virtual instant at which the event was scheduled
///   (earlier-scheduled events deliver first, matching FIFO intuition),
/// * `src` — id of the scheduling component (ties between components
///   scheduled at the same instant resolve by id, not by host-side
///   execution order),
/// * `seq` — the scheduling component's own monotone push counter.
///
/// Every field is derived from simulation state a component can compute
/// locally, never from global push interleaving — so a sharded engine
/// reproduces exactly the keys the single-threaded engine assigns, and
/// with them the exact delivery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventKey {
    /// Virtual time (ps) at which the push happened.
    pub push_ps: u64,
    /// Scheduling component id.
    pub src: u32,
    /// The scheduling component's push count at the time of the push.
    pub seq: u64,
}

/// The ordering record every tier holds: delivery time, the [`EventKey`]
/// fields flattened, and the slab slot of the payload. It is `Copy` and
/// 32 bytes whatever `T` is, so heap sifts and bucket moves never move a
/// payload. The slot takes no part in ordering or equality.
#[derive(Clone, Copy)]
struct Entry {
    time: Time,
    push_ps: u64,
    seq: u64,
    src: u32,
    slot: u32,
}

impl Entry {
    /// The `(time, key)` ordering key, lexicographic as in [`EventKey`].
    #[inline(always)]
    fn order(&self) -> (Time, u64, u32, u64) {
        (self.time, self.push_ps, self.src, self.seq)
    }

    fn key(&self) -> EventKey {
        EventKey {
            push_ps: self.push_ps,
            src: self.src,
            seq: self.seq,
        }
    }
}

impl PartialEq for Entry {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, key) pops
        // first.
        other.order().cmp(&self.order())
    }
}

/// A stable min-priority queue of timestamped items.
pub struct EventQueue<T> {
    /// Payload storage: every pending item sits in one slot, addressed by
    /// its record's `slot`. The tiers below hold records only.
    slots: Vec<Option<T>>,
    /// Vacant slot indices, reused LIFO before the slab grows.
    free: Vec<u32>,
    /// Tier 1: events below `cur_end`, in a min-heap. The global minimum
    /// is always here once [`EventQueue::settle`] has run.
    current: BinaryHeap<Entry>,
    /// Exclusive upper bound of the current window (`epoch_base +
    /// cursor × width`, saturating).
    cur_end: u64,
    /// Tier 2: bucket `i` covers `[epoch_base + i·width, +width)`.
    buckets: Vec<Vec<Entry>>,
    /// Start of bucket 0's window for this epoch.
    epoch_base: u64,
    /// Bucket width in ps (≥ 1), resized at every rebase.
    width: u64,
    /// Next bucket the frontier will promote into `current`.
    cursor: usize,
    /// Total events currently held in `buckets`.
    in_buckets: usize,
    /// Tier 3: events at or beyond the epoch horizon, unsorted.
    far: Vec<Entry>,
    next_seq: u64,
    /// Monotone tier-transition counters (cold paths only; see
    /// [`EventQueue::ladder_stats`]).
    ladder: LadderStats,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            current: BinaryHeap::new(),
            cur_end: 0,
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            epoch_base: 0,
            width: 1,
            cursor: 0,
            in_buckets: 0,
            far: Vec::new(),
            next_seq: 0,
            ladder: LadderStats::default(),
        }
    }

    /// Create an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = EventQueue::new();
        q.slots = Vec::with_capacity(cap);
        q.current = BinaryHeap::with_capacity(cap.min(1024));
        q.far = Vec::with_capacity(cap);
        q
    }

    /// Insert `item` for delivery at `time`. Same-time ties pop FIFO
    /// (ordered by a queue-global push counter).
    #[inline]
    pub fn push(&mut self, time: Time, item: T) {
        let seq = self.next_seq;
        let key = EventKey {
            push_ps: 0,
            src: 0,
            seq,
        };
        self.push_keyed(time, key, item);
    }

    /// Insert `item` for delivery at `time` with a caller-supplied
    /// tie-break key (see [`EventKey`]). Same-time ties pop in key order.
    #[inline]
    pub fn push_keyed(&mut self, time: Time, key: EventKey, item: T) {
        self.next_seq += 1; // keeps `total_pushed` meaningful
        let slot = self.store(item);
        self.push_entry(Entry {
            time,
            push_ps: key.push_ps,
            seq: key.seq,
            src: key.src,
            slot,
        });
    }

    /// Put `item` in a vacant slab slot (the most recently freed one, so
    /// a pop-then-push reuses warm memory) and return its index.
    #[inline]
    fn store(&mut self, item: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(item);
            return slot;
        }
        let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
        self.slots.push(Some(item));
        slot
    }

    /// The payload `e` points at.
    #[inline]
    fn item(&self, e: &Entry) -> &T {
        self.slots[e.slot as usize]
            .as_ref()
            .expect("queue record points at a vacant slot")
    }

    #[inline]
    fn push_entry(&mut self, entry: Entry) {
        let t = entry.time.as_ps();
        if t < self.cur_end {
            self.current.push(entry);
            return;
        }
        // `t >= cur_end >= epoch_base`, so this cannot underflow.
        let idx = (t - self.epoch_base) / self.width;
        if idx < NUM_BUCKETS as u64 {
            self.buckets[idx as usize].push(entry);
            self.in_buckets += 1;
        } else {
            self.far.push(entry);
        }
    }

    /// Ensure the global minimum (if any) sits in `current`, promoting
    /// buckets and rebasing from the far tier as needed. Kept out of line
    /// so that [`EventQueue::pop`] stays small enough to inline.
    #[inline(never)]
    fn settle(&mut self) {
        while self.current.is_empty() {
            if self.in_buckets > 0 {
                // Advance the frontier to the next non-empty bucket and
                // promote it wholesale.
                while self.cursor < NUM_BUCKETS {
                    let c = self.cursor;
                    self.cursor += 1;
                    self.cur_end = self
                        .epoch_base
                        .saturating_add(self.width.saturating_mul(self.cursor as u64));
                    if !self.buckets[c].is_empty() {
                        // Drain rather than take: the bucket keeps its
                        // allocation for the next epoch.
                        let batch = &mut self.buckets[c];
                        self.in_buckets -= batch.len();
                        self.current.extend(batch.drain(..));
                        self.ladder.promotions += 1;
                        break;
                    }
                }
            } else if self.far.len() > FAR_DRAIN {
                self.rebase();
            } else if !self.far.is_empty() {
                self.drain_far();
            } else {
                return; // genuinely empty
            }
        }
    }

    /// Start a new epoch: select the k-th earliest far time `t_k`, size
    /// the bucket width so `[t_min, t_k]` spans the buckets, and move every
    /// far record below the new horizon into its bucket in one pass.
    fn rebase(&mut self) {
        debug_assert!(self.current.is_empty() && self.in_buckets == 0);
        self.ladder.rebases += 1;
        let k = REBASE_BATCH.max(self.far.len() / 4).min(self.far.len());
        let (below, kth, _) = self.far.select_nth_unstable_by_key(k - 1, |e| e.time);
        let t_k = kth.time.as_ps();
        let t_min = below.iter().fold(t_k, |m, e| m.min(e.time.as_ps()));
        let width = (t_k - t_min) / NUM_BUCKETS as u64 + 1;
        self.width = width;
        self.epoch_base = t_min;
        self.cursor = 0;
        self.cur_end = t_min;
        // The horizon test is `push_entry`'s, so no record left in `far`
        // can be overtaken by a later push into a bucket. It moves every
        // record up to `t_k` (ties included): `t_k - t_min < 64 × width`.
        let buckets = &mut self.buckets;
        let before = self.far.len();
        self.far.retain(|e| {
            let idx = (e.time.as_ps() - t_min) / width;
            let near = idx < NUM_BUCKETS as u64;
            if near {
                buckets[idx as usize].push(*e);
            }
            !near
        });
        self.in_buckets += before - self.far.len();
        debug_assert!(self.in_buckets >= k, "a rebase must move its k records");
    }

    /// Plain-heap fallback for a small pending set: heapify *all* far
    /// events into `current` in O(n) (`current` is empty and hands its
    /// allocation to `far`) and extend the window past them, so pushes
    /// near the frontier keep landing straight in the heap until traffic
    /// grows again.
    fn drain_far(&mut self) {
        debug_assert!(self.current.is_empty() && self.in_buckets == 0);
        self.ladder.far_drains += 1;
        let spare = std::mem::take(&mut self.current).into_vec();
        let far = std::mem::replace(&mut self.far, spare);
        let last = far.iter().map(|e| e.time.as_ps()).max().unwrap_or(0);
        self.current = BinaryHeap::from(far);
        self.cur_end = last.saturating_add(1);
        self.epoch_base = self.cur_end;
        self.cursor = 0;
    }

    /// Remove and return the earliest item together with its delivery time.
    /// Always inlined: out of line, the payload is copied through an
    /// out-pointer on every pop of the engine's hot loop.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(Time, T)> {
        if self.current.is_empty() {
            self.settle();
        }
        let e = self.current.pop()?;
        let item = self.slots[e.slot as usize]
            .take()
            .expect("queue record points at a vacant slot");
        self.free.push(e.slot);
        Some((e.time, item))
    }

    /// Delivery time of the earliest pending item, if any.
    #[inline]
    pub fn peek_time(&mut self) -> Option<Time> {
        if self.current.is_empty() {
            self.settle();
        }
        self.current.peek().map(|e| e.time)
    }

    /// Delivery time and a view of the earliest pending item, if any.
    #[inline]
    pub fn peek(&mut self) -> Option<(Time, &T)> {
        if self.current.is_empty() {
            self.settle();
        }
        let e = self.current.peek()?;
        Some((e.time, self.item(e)))
    }

    /// Number of pending items.
    #[inline]
    pub fn len(&self) -> usize {
        self.current.len() + self.in_buckets + self.far.len()
    }

    /// True when no items are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending items.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.current.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.far.clear();
        self.cur_end = 0;
        self.epoch_base = 0;
        self.width = 1;
        self.cursor = 0;
        self.in_buckets = 0;
    }

    /// Total number of items ever pushed (monotone; used by engine stats).
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Non-destructive snapshot of every pending entry, sorted by
    /// `(time, key)` — the exact order the entries would pop in. Ladder
    /// geometry (which tier an entry currently sits in) is deliberately
    /// not captured: it is a performance artefact, not simulation state,
    /// and a restored queue rebuilds it from scratch.
    pub fn snapshot_events(&self) -> Vec<(Time, EventKey, T)>
    where
        T: Clone,
    {
        let records = self
            .current
            .iter()
            .chain(self.buckets.iter().flatten())
            .chain(self.far.iter());
        // Sized up front: the chain's size hint misses the buckets.
        let mut out: Vec<(Time, EventKey, T)> = Vec::with_capacity(self.len());
        out.extend(records.map(|e| (e.time, e.key(), self.item(e).clone())));
        out.sort_by_key(|a| (a.0, a.1));
        out
    }

    /// Slab slots allocated, vacant ones included. Slots are reused before
    /// the slab grows, so this never exceeds the most items ever pending
    /// at once since the last [`clear`](EventQueue::clear).
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.slots.len()
    }

    /// Monotone ladder-tier transition counters (like [`total_pushed`],
    /// they survive [`clear`]).
    ///
    /// [`total_pushed`]: EventQueue::total_pushed
    /// [`clear`]: EventQueue::clear
    #[inline]
    pub fn ladder_stats(&self) -> LadderStats {
        self.ladder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiers move records, not payloads: one record is 32 bytes whatever
    /// the payload type.
    #[test]
    fn records_are_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(30), "c");
        q.push(Time::from_ps(10), "a");
        q.push(Time::from_ps(20), "b");
        assert_eq!(q.pop(), Some((Time::from_ps(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_ps(20), "b")));
        assert_eq!(q.pop(), Some((Time::from_ps(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ps(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_stable() {
        let mut q = EventQueue::new();
        let t = Time::from_ps(1);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ps(7), ());
        assert_eq!(q.peek_time(), Some(Time::from_ps(7)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 1);
    }

    #[test]
    fn peek_exposes_item() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(9), "later");
        q.push(Time::from_ps(3), "first");
        assert_eq!(q.peek(), Some((Time::from_ps(3), &"first")));
        assert_eq!(q.pop(), Some((Time::from_ps(3), "first")));
        assert_eq!(q.peek(), Some((Time::from_ps(9), &"later")));
    }

    /// A small pending set takes the plain-heap drain path; pushes that
    /// land inside the extended window must still interleave correctly.
    #[test]
    fn small_sets_drain_and_stay_ordered() {
        let mut q = EventQueue::new();
        for i in (0u64..10).rev() {
            q.push(Time::from_ps(i * 1_000_000_000), i);
        }
        // First pop triggers the drain (all 10 are "far" initially).
        assert_eq!(q.pop(), Some((Time::from_ps(0), 0)));
        // A push below the extended window joins the heap directly and
        // pops in global order.
        q.push(Time::from_ps(500), 99);
        assert_eq!(q.pop(), Some((Time::from_ps(500), 99)));
        for i in 1u64..10 {
            assert_eq!(q.pop(), Some((Time::from_ps(i * 1_000_000_000), i)));
        }
        assert_eq!(q.pop(), None);
    }

    /// Times far enough apart to force every tier: current-window pushes,
    /// bucketed pushes, far-tier pushes, and multiple rebases.
    #[test]
    fn tiers_and_rebases_keep_global_order() {
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..500)
            .map(|i: u64| (i * 7_919) % 50 + (i % 7) * 1_000_000 + (i % 3) * 900_000_000)
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ps(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort(); // (time, insertion index) == (time, seq) order
        for (t, i) in expect {
            assert_eq!(q.pop(), Some((Time::from_ps(t), i)));
        }
        assert_eq!(q.pop(), None);
    }

    /// 4,097 records on one instant make the rebase select a quarter of
    /// the far tier (1,274 > `REBASE_BATCH`) whose k-th time ties with the
    /// thousands behind it: every tie and every later record below the new
    /// horizon must move, or a push into the new epoch overtakes them.
    #[test]
    fn a_quarter_rebase_moves_every_tie_and_straggler() {
        let mut q = EventQueue::new();
        let t0 = 1_000_000u64;
        let mut expect: Vec<(u64, u64)> = (0..4_097).map(|i| (t0, i)).collect();
        expect.extend((0..1_000).map(|i| (t0 + 1 + i * 50, 4_097 + i)));
        for &(t, i) in &expect {
            q.push(Time::from_ps(t), i);
        }
        assert_eq!(q.pop(), Some((Time::from_ps(t0), 0)));
        assert_eq!(q.ladder_stats().rebases, 1);
        // Width 1: the horizon is t0 + 64, so (t0 + 1, 4097) and
        // (t0 + 51, 4098) moved with the ties. These pushes land in the
        // same buckets and must pop after them.
        for (k, t) in [t0 + 1, t0 + 51, t0 + 60].into_iter().enumerate() {
            let i = 10_000 + k as u64;
            q.push(Time::from_ps(t), i);
            expect.push((t, i));
        }
        expect.sort();
        for (t, i) in expect.into_iter().skip(1) {
            assert_eq!(q.pop(), Some((Time::from_ps(t), i)));
        }
        assert_eq!(q.pop(), None);
    }

    /// Ladder counters move on the matching tier transitions and survive
    /// `clear`.
    #[test]
    fn ladder_stats_track_tier_transitions() {
        let mut q = EventQueue::new();
        assert_eq!(q.ladder_stats(), LadderStats::default());
        // t=0 lands in bucket 0 of the initial epoch; the rest are far.
        for i in 0u64..4 {
            q.push(Time::from_ps(i * 1_000_000_000), i);
        }
        q.pop();
        assert_eq!(q.ladder_stats().promotions, 1);
        // The remaining small far set drains via the plain-heap fallback.
        q.pop();
        assert_eq!(q.ladder_stats().far_drains, 1);
        assert_eq!(q.ladder_stats().rebases, 0);
        // A large far set forces a rebase and subsequent bucket promotions.
        let mut q = EventQueue::new();
        for i in 0u64..(2 * FAR_DRAIN as u64 + 1) {
            q.push(Time::from_ps(i * 1_000_000_000), i);
        }
        while q.pop().is_some() {}
        let s = q.ladder_stats();
        assert!(s.rebases >= 1, "expected at least one rebase: {s:?}");
        assert!(s.promotions >= 1, "expected promotions: {s:?}");
        assert_eq!(s.total(), s.promotions + s.rebases + s.far_drains);
        q.clear();
        assert_eq!(q.ladder_stats(), s, "counters are monotone across clear");
    }

    /// Pushes interleaved with pops land in whatever tier matches their
    /// horizon; order must still be exact.
    #[test]
    fn interleaved_cross_tier_traffic() {
        let mut q = EventQueue::new();
        for i in 0u64..64 {
            q.push(Time::from_ps(i * 1_000), i);
        }
        let mut popped = Vec::new();
        for round in 0u64..64 {
            let (t, v) = q.pop().unwrap();
            popped.push((t.as_ps(), v));
            // Schedule ahead of `now` at several distances.
            q.push(Time::from_ps(t.as_ps() + 10), 1_000 + round);
            q.push(Time::from_ps(t.as_ps() + 5_000_000), 2_000 + round);
        }
        let mut last = (0, 0);
        while let Some((t, v)) = q.pop() {
            let key = (t.as_ps(), v);
            assert!(key > last, "out of order: {key:?} after {last:?}");
            last = key;
        }
        assert!(q.is_empty());
    }
}
