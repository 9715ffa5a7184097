//! Property coverage for the two-tier event queue: its pop sequence must
//! be indistinguishable from the plain stable binary heap it replaced,
//! under arbitrary interleavings of pushes (at every tier distance) and
//! pops; the keyed regime must match an ordered map, also step by step
//! through each path into and out of the current window; the payload slab
//! must drop every item exactly once and reuse its slots; and a large
//! keyed run keeps its exact ladder counts and pop-sequence hash.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

use pearl::{EventKey, EventQueue, Time};
use proptest::prelude::*;

/// One step of a queue workout.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at an absolute time (picked from several magnitude bands so
    /// the current window, the buckets, and the far tier all see traffic).
    Push(u64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Dense near-term times: lots of ties, current-window hits.
        (0u64..50).prop_map(Op::Push),
        // Bucket-scale spread.
        (0u64..1_000_000).prop_map(Op::Push),
        // Far-future outliers that force rebases.
        (0u64..1u64 << 50).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// One step of a keyed-regime workout.
#[derive(Debug, Clone, Copy)]
enum KeyedOp {
    Push(u64, EventKey),
    Pop,
    PeekTime,
    Clear,
    Snapshot,
}

/// A keyed push: a time from the three tier bands (a third of them among
/// only the 8 instants from `first`) and a key from a small space, so
/// equal times meet equal push instants and sources and only the later key
/// fields break the tie.
fn keyed_push(first: u64) -> impl Strategy<Value = (u64, EventKey)> {
    let time = prop_oneof![first..first + 8, 0u64..1_000_000, 0u64..1u64 << 50];
    let key =
        (0u64..4, 0u32..4, 0u64..8).prop_map(|(push_ps, src, seq)| EventKey { push_ps, src, seq });
    (time, key)
}

fn keyed_op_strategy(first: u64) -> impl Strategy<Value = KeyedOp> {
    // A weighted pick; `Clear` is rare (0.2%) so a case keeps its tiers.
    (0u32..1000, keyed_push(first)).prop_map(|(pick, (t, k))| match pick {
        0..=599 => KeyedOp::Push(t, k),
        600..=849 => KeyedOp::Pop,
        850..=969 => KeyedOp::PeekTime,
        970..=997 => KeyedOp::Snapshot,
        _ => KeyedOp::Clear,
    })
}

/// The replaced scheduler, as the oracle: a max-heap of inverted
/// `(time, seq)` keys pops in exactly the stable order the event core
/// guarantees.
#[derive(Default)]
struct StableHeap {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    next_seq: u64,
}

impl StableHeap {
    fn push(&mut self, t: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((t, seq)));
        seq
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        self.heap
            .pop()
            .map(|Reverse((t, seq))| (Time::from_ps(t), seq))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pop agrees with the stable-heap oracle, at every point of an
    /// arbitrary interleaved push/pop sequence, and the drained tails
    /// agree too.
    #[test]
    fn pops_match_stable_heap_oracle(ops in prop::collection::vec(op_strategy(), 0..400)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut oracle = StableHeap::default();
        for op in ops {
            match op {
                Op::Push(t) => {
                    let seq = oracle.push(t);
                    // The payload is the oracle's own sequence number, so a
                    // tie broken out of order is caught by value, not just
                    // by time.
                    q.push(Time::from_ps(t), seq);
                }
                Op::Pop => {
                    prop_assert_eq!(q.pop(), oracle.pop());
                }
            }
            prop_assert_eq!(q.len() as u64, oracle.heap.len() as u64);
        }
        loop {
            let expect = oracle.pop();
            let got = q.pop();
            let done = expect.is_none();
            prop_assert_eq!(got, expect);
            if done {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }

    /// Same-time pushes pop strictly FIFO regardless of how many rebases
    /// and window advances happen in between.
    #[test]
    fn ties_stay_fifo_across_tiers(
        times in prop::collection::vec(0u64..1_000, 1..200),
        dup in 2usize..5,
    ) {
        let mut q: EventQueue<(u64, usize)> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            for d in 0..dup {
                q.push(Time::from_ps(t), (i as u64, d));
            }
        }
        let mut last: Option<(u64, u64, usize)> = None;
        while let Some((t, (i, d))) = q.pop() {
            let key = (t.as_ps(), i, d);
            if let Some(prev) = last {
                prop_assert!(
                    (key.0, key.1 * dup as u64 + key.2 as u64)
                        > (prev.0, prev.1 * dup as u64 + prev.2 as u64),
                    "tie order broken: {:?} after {:?}",
                    key,
                    prev
                );
            }
            last = Some(key);
        }
        prop_assert!(q.is_empty());
    }

    /// The keyed regime, with many equal times, against an ordered map of
    /// `(time, key)`: every pop, peek and snapshot agrees at every step,
    /// across clears. A prefill burst fills the far tier past `FAR_DRAIN`
    /// so the interleaved steps run through rebases.
    #[test]
    fn keyed_pops_match_ordered_map(
        prefill in prop::collection::vec(keyed_push(0), 0..600),
        ops in prop::collection::vec(keyed_op_strategy(0), 0..800),
    ) {
        keyed_workout(prefill, ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same oracle over a prefill large enough that the first rebase
    /// selects a quarter of the far tier (over 256 records) rather than
    /// `REBASE_BATCH`. A third of the records sit on 8 instants just
    /// past a fresh queue's first epoch (64..72 ps), the earliest band, so
    /// the selected k-th time ties with records on both sides of the
    /// selection boundary, and later pushes land on those instants too.
    #[test]
    fn keyed_pops_match_ordered_map_over_quarter_rebases(
        prefill in prop::collection::vec(keyed_push(64), 1_100..5_000),
        ops in prop::collection::vec(keyed_op_strategy(64), 0..800),
    ) {
        keyed_workout(prefill, ops)?;
    }
}

/// Run `prefill` then `ops` against the queue and a `BTreeMap` of
/// `(time, key)`, comparing at every step and over the drained tail. A
/// key already pending is not pushed again (keys are unique in the keyed
/// regime).
fn keyed_workout(prefill: Vec<(u64, EventKey)>, ops: Vec<KeyedOp>) -> Result<(), TestCaseError> {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut oracle: BTreeMap<(Time, EventKey), u64> = BTreeMap::new();
    let prefill = prefill.into_iter().map(|(t, k)| KeyedOp::Push(t, k));
    for (n, op) in prefill.chain(ops).enumerate() {
        let n = n as u64;
        match op {
            KeyedOp::Push(t, key) => {
                let t = Time::from_ps(t);
                if let Entry::Vacant(slot) = oracle.entry((t, key)) {
                    slot.insert(n);
                    q.push_keyed(t, key, n);
                }
            }
            KeyedOp::Pop => {
                let want = oracle.pop_first().map(|((t, _), v)| (t, v));
                prop_assert_eq!(q.pop(), want);
            }
            KeyedOp::PeekTime => {
                let want = oracle.first_key_value().map(|(&(t, _), _)| t);
                prop_assert_eq!(q.peek_time(), want);
            }
            KeyedOp::Clear => {
                q.clear();
                oracle.clear();
            }
            KeyedOp::Snapshot => {
                let want: Vec<_> = oracle.iter().map(|(&(t, k), &v)| (t, k, v)).collect();
                let got: Vec<_> =
                    q.with_in_order(|v| v.iter().map(|(t, k, &x)| (t, k, x)).collect());
                prop_assert_eq!(got, want);
            }
        }
        prop_assert_eq!(q.len(), oracle.len());
    }
    while let Some(((t, _), v)) = oracle.pop_first() {
        prop_assert_eq!(q.pop(), Some((t, v)));
    }
    prop_assert_eq!(q.pop(), None);
    Ok(())
}

/// A payload that counts its own drops.
struct Counted(Rc<Cell<usize>>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

/// Every payload is dropped exactly once, whichever way it leaves the
/// queue: popped (and dropped by the caller), cleared, or still pending
/// when the queue itself is dropped.
#[test]
fn every_payload_drops_exactly_once() {
    let drops = Rc::new(Cell::new(0));
    let mut q = EventQueue::new();
    // Near, bucketed and far times, so every tier holds some.
    let push_batch = |q: &mut EventQueue<Counted>| {
        for i in 0u64..300 {
            let t = (i * 7_919) % 50 + (i % 5) * 1_000_000 + (i % 3) * 900_000_000;
            q.push(Time::from_ps(t), Counted(drops.clone()));
        }
    };
    push_batch(&mut q);
    for _ in 0..100 {
        drop(q.pop());
    }
    assert_eq!(drops.get(), 100, "popped payloads drop once, in the caller");
    q.clear();
    assert_eq!(drops.get(), 300, "clear drops every pending payload");
    push_batch(&mut q);
    for _ in 0..50 {
        drop(q.pop());
    }
    assert_eq!(drops.get(), 350);
    drop(q);
    assert_eq!(drops.get(), 600, "dropping the queue drops what is pending");
}

/// With at most `k` items pending at any time, the slab never grows past
/// `k` slots however many push/pop cycles run: popped slots are reused.
#[test]
fn slab_reuses_slots() {
    const K: usize = 200;
    let mut q: EventQueue<[u64; 16]> = EventQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut now = 0;
    for _ in 0..20_000 {
        while q.len() < K {
            // Increments at every tier distance, including far outliers.
            let dt = match next() % 10 {
                0 => next() % (1 << 40),
                1..=3 => next() % 1_000_000,
                _ => next() % 100,
            };
            q.push(Time::from_ps(now + dt), [dt; 16]);
        }
        assert!(q.slab_len() <= K, "slab holds {} slots", q.slab_len());
        for _ in 0..1 + next() % 8 {
            now = q.pop().expect("queue holds K items").0.as_ps();
        }
    }
    assert_eq!(q.slab_len(), K);
    q.clear();
    assert_eq!(q.slab_len(), 0, "clear resets the slab");
}

/// The queue checked step by step against a `BTreeMap` of `(time, key)`.
/// Keys come from one counter, so every push is unique and ties at one
/// instant break by push order.
struct Checked {
    q: EventQueue<u64>,
    oracle: BTreeMap<(Time, EventKey), u64>,
    n: u64,
}

impl Checked {
    fn new() -> Self {
        Checked {
            q: EventQueue::new(),
            oracle: BTreeMap::new(),
            n: 0,
        }
    }

    fn push(&mut self, t: u64) {
        let (t, key) = (
            Time::from_ps(t),
            EventKey {
                push_ps: 0,
                src: (self.n % 3) as u32,
                seq: self.n,
            },
        );
        self.oracle.insert((t, key), self.n);
        self.q.push_keyed(t, key, self.n);
        self.n += 1;
    }

    /// Pop once from both and return the delivery time.
    fn pop(&mut self) -> u64 {
        let want = self.oracle.pop_first().map(|((t, _), v)| (t, v));
        let got = self.q.pop();
        assert_eq!(got, want, "pop {} disagrees", self.n);
        got.expect("pop from an empty queue").0.as_ps()
    }

    fn snapshot(&mut self) {
        let want: Vec<_> = self.oracle.iter().map(|(&(t, k), &v)| (t, k, v)).collect();
        let got: Vec<_> = self
            .q
            .with_in_order(|v| v.iter().map(|(t, k, &x)| (t, k, x)).collect());
        assert_eq!(got, want);
    }

    /// Pop both empty, comparing every pop.
    fn drain(&mut self) {
        while !self.oracle.is_empty() {
            self.pop();
        }
        assert_eq!(self.q.pop(), None);
    }
}

/// 300 far records at 1,000 + 10·i ps: the first pop rebases (k = 256,
/// width 41) and promotes bucket 0, `[1000, 1041)`, which holds five.
fn rebased_at_1000(c: &mut Checked) {
    for i in 0..300 {
        c.push(1_000 + 10 * i);
    }
    assert_eq!(c.pop(), 1_000);
}

/// A promoted bucket popped with nothing pushed into its window: pops
/// come from the promoted records alone.
#[test]
fn a_promotion_with_no_pushes_into_its_window_pops_in_order() {
    let mut c = Checked::new();
    rebased_at_1000(&mut c);
    let s = c.q.ladder_stats();
    assert_eq!((s.rebases, s.promotions, s.far_drains), (1, 1, 0));
    for want in [1_010, 1_020, 1_030, 1_040, 1_050] {
        assert_eq!(c.pop(), want);
    }
    assert_eq!(c.q.ladder_stats().promotions, 2, "1,050 came from bucket 1");
    c.drain();
}

/// Pushes below the window's end between pops interleave with the
/// promoted records, ties included, and so do pushes at the popped
/// instant itself.
#[test]
fn pushes_below_the_window_end_between_pops_interleave() {
    let mut c = Checked::new();
    rebased_at_1000(&mut c);
    for t in [1_040, 1_005, 1_010, 1_000, 1_039, 1_020] {
        c.push(t);
    }
    assert_eq!(c.pop(), 1_000);
    c.push(1_000);
    c.push(1_015);
    for _ in 0..5 {
        c.pop();
        c.push(1_030);
    }
    c.drain();
    assert_eq!(c.q.ladder_stats().rebases, 1);
}

/// A snapshot taken while the window holds both promoted records and
/// records pushed into it afterwards lists both in pop order, and
/// changes no later pop.
#[test]
fn a_snapshot_merges_the_promoted_records_with_later_pushes() {
    let mut c = Checked::new();
    rebased_at_1000(&mut c);
    for t in [1_035, 1_001, 1_020, 1_040] {
        c.push(t);
    }
    c.snapshot();
    assert_eq!(c.pop(), 1_001);
    c.push(1_002);
    c.snapshot();
    c.snapshot();
    c.drain();
}

/// A small far set drains into the window in one piece; pushes into the
/// widened window then interleave with it.
#[test]
fn pushes_into_a_drained_far_window_interleave() {
    let mut c = Checked::new();
    for i in 0..100 {
        c.push(1_000_000 + 1_000 * (i % 37));
    }
    assert_eq!(c.pop(), 1_000_000);
    assert_eq!(c.q.ladder_stats().far_drains, 1);
    for t in [1_000_000, 1_000_500, 1_036_000, 1_036_001, 1_001_000] {
        c.push(t);
    }
    c.snapshot();
    for _ in 0..50 {
        let t = c.pop();
        c.push(t + 777);
    }
    c.drain();
    assert_eq!(
        c.q.ladder_stats().far_drains,
        1,
        "the window held every push"
    );
}

/// A cleared queue starts from a fresh geometry, whatever state its tiers
/// were in, and runs the same scripts correctly again.
#[test]
fn a_cleared_queue_is_reused() {
    let mut c = Checked::new();
    rebased_at_1000(&mut c);
    c.push(1_003);
    c.q.clear();
    c.oracle.clear();
    assert!(c.q.is_empty());
    assert_eq!(c.q.pop(), None);
    rebased_at_1000(&mut c);
    c.push(1_003);
    c.snapshot();
    c.drain();
    for i in 0..100 {
        c.push(5_000 + 3 * i);
    }
    c.pop();
    c.push(5_001);
    c.drain();
}

/// FNV-1a-64 over a stream of words.
fn fnv1a(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The large keyed run's state: the queue, a xorshift stream, each
/// source's push counter, the frontier, and the pop-sequence hash.
struct LargeRun {
    q: EventQueue<u64>,
    x: u64,
    seqs: [u64; 64],
    now: u64,
    pushed: u64,
    hash: u64,
}

impl LargeRun {
    fn rnd(&mut self, n: u64) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x % n
    }

    /// Push at `now + dt` from a random source, keyed as the engine keys.
    fn push(&mut self, dt: u64) {
        let src = self.rnd(64) as usize;
        let key = EventKey {
            push_ps: self.now,
            src: src as u32,
            seq: self.seqs[src],
        };
        self.seqs[src] += 1;
        self.q
            .push_keyed(Time::from_ps(self.now + dt), key, self.pushed);
        self.pushed += 1;
    }

    fn pop(&mut self) {
        let (t, key, v) = self.q.pop_keyed().expect("the script pops a pending event");
        assert!(t.as_ps() >= self.now, "time went backwards");
        self.now = t.as_ps();
        for w in [t.as_ps(), key.push_ps, u64::from(key.src), key.seq, v] {
            fnv1a(&mut self.hash, w);
        }
    }
}

/// The ladder's geometry on a large keyed run, pinned. Over 50k events:
/// a hold model (pop one, schedule up to two a short way ahead), bursts
/// of thousands of records past the horizon, and run-downs to a few far
/// timers. The counts of promotions, rebases and far drains are the tier
/// layout's, not the pop order's: a change to where records sit moves
/// them (and `task_traced`'s `queue_tier` events) even when every pop
/// stays exact. The hash covers every popped `(time, key, payload)`.
#[test]
fn a_large_keyed_run_keeps_its_ladder_geometry() {
    let mut r = LargeRun {
        q: EventQueue::new(),
        x: 0x2545_F491_4F6C_DD1D,
        seqs: [0; 64],
        now: 0,
        pushed: 0,
        hash: 0xcbf2_9ce4_8422_2325,
    };
    for round in 0..12 {
        for _ in 0..500 + r.rnd(3_000) {
            let dt = 1_000_000 + r.rnd(1_000_000_000);
            r.push(dt);
        }
        for i in 0..1_000 + r.rnd(1_000) {
            let dt = r.rnd(20_000);
            r.push(dt);
            if i % 3 == 0 {
                let dt = r.rnd(200);
                r.push(dt);
            }
        }
        for _ in 0..2_000 + r.rnd(2_000) {
            r.pop();
            for _ in 0..r.rnd(3) {
                let dt = if r.rnd(50) == 0 {
                    r.rnd(50_000_000)
                } else {
                    r.rnd(5_000)
                };
                r.push(dt);
            }
        }
        // Run down to a few far timers so the next pops drain the far tier.
        while r.q.len() > 20 + round {
            r.pop();
        }
        for _ in 0..3 {
            r.pop();
            let dt = 1 + r.rnd(100);
            r.push(dt);
        }
    }
    while !r.q.is_empty() {
        r.pop();
    }
    let s = r.q.ladder_stats();
    assert!(r.pushed >= 50_000, "the script pushes {}", r.pushed);
    assert_eq!(
        (s.promotions, s.rebases, s.far_drains, r.hash),
        (4_266, 62, 6, 0x500c_c2bc_d475_c666),
        "ladder geometry or pop order moved"
    );
}
