//! Property coverage for the two-tier event queue: its pop sequence must
//! be indistinguishable from the plain stable binary heap it replaced,
//! under arbitrary interleavings of pushes (at every tier distance) and
//! pops; the keyed regime must match an ordered map; and the payload slab
//! must drop every item exactly once and reuse its slots.

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
    Peek,
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
        850..=909 => KeyedOp::Peek,
        910..=969 => KeyedOp::PeekTime,
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
            KeyedOp::Peek => {
                let want = oracle.first_key_value().map(|(&(t, _), &v)| (t, v));
                prop_assert_eq!(q.peek().map(|(t, &v)| (t, v)), want);
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
