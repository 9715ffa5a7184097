//! Three fixed microbenchmarks of the `pearl` layers. They depend on no
//! workload, so every traced run reports them: a `pearl` change shows here
//! first, and the workload it should (or should not) move is named in the
//! README's interaction table.

use std::time::Instant;

use pearl::{Component, Ctx, Duration, Engine, Event, EventKey, EventQueue, Time, WindowBarrier};

/// Fixed-seed xorshift64* — the increments of the hold model.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The classic hold model on `EventQueue`: with `pending` events queued,
/// repeatedly pop the earliest and push it back a random increment later.
/// Returns host ns per hold (one pop + one keyed push). The mean increment
/// is scaled with `pending`, so small sizes live in the near tiers and
/// 262144 keeps most events in the far tier.
pub fn queue_hold_ns(pending: usize) -> f64 {
    const HOLDS: usize = 200_000;
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut q: EventQueue<u32> = EventQueue::with_capacity(pending);
    let mut seq = 0u64;
    let mut key = |now: u64| {
        seq += 1;
        EventKey {
            push_ps: now,
            src: (seq % 64) as u32,
            seq,
        }
    };
    let spread = 1_000 * pending as u64;
    for i in 0..pending {
        q.push_keyed(Time::from_ps(rng.next() % spread), key(0), i as u32);
    }
    let t0 = Instant::now();
    for _ in 0..HOLDS {
        let (t, item) = q.pop().expect("the hold model never drains the queue");
        let at = t.as_ps() + 1 + rng.next() % spread;
        q.push_keyed(Time::from_ps(at), key(t.as_ps()), item);
    }
    let ns = t0.elapsed().as_nanos() as f64 / HOLDS as f64;
    assert_eq!(std::hint::black_box(q.len()), pending);
    ns
}

/// A component whose handler only bounces the event to its peer.
struct Ping {
    peer: usize,
    left: u64,
}

impl Component<()> for Ping {
    fn handle(&mut self, _ev: Event<()>, ctx: &mut Ctx<'_, ()>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send_after(Duration::from_ps(1_000), self.peer, ());
        }
    }
}

/// Host ns the engine spends per event when handlers do nothing: 32
/// ping-pong pairs, so the queue holds a few dozen events as in a small
/// simulation — dispatch, key allocation and queue traffic, no model work.
pub fn engine_null_event_ns() -> f64 {
    const PAIRS: usize = 32;
    const BOUNCES: u64 = 8_000;
    let mut engine: Engine<()> = Engine::new();
    for i in 0..2 * PAIRS {
        engine.add_component(
            format!("ping{i}"),
            Ping {
                peer: i ^ 1,
                left: BOUNCES,
            },
        );
    }
    for i in 0..PAIRS {
        engine.post(Time::from_ps(i as u64), 2 * i, 2 * i + 1, ());
    }
    let t0 = Instant::now();
    engine.run();
    let ns = t0.elapsed().as_nanos() as f64;
    ns / engine.events_processed() as f64
}

/// Host ns per `publish_mins_timed` round between two threads that do no
/// work in between — the floor under every sharded window.
pub fn barrier_round_ns() -> f64 {
    const ROUNDS: u64 = 5_000;
    let barrier = WindowBarrier::new(2);
    let run = |shard: usize| {
        let mut mins = Vec::with_capacity(2);
        let t0 = Instant::now();
        for round in 0..ROUNDS {
            barrier.publish_mins_timed(shard, round, &mut mins);
        }
        t0.elapsed().as_nanos() as f64 / ROUNDS as f64
    };
    std::thread::scope(|s| {
        let peer = s.spawn(|| run(1));
        let mine = run(0);
        peer.join().expect("barrier peer thread panicked").max(mine)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbenchmarks_report_positive_times() {
        assert!(queue_hold_ns(64) > 0.0);
        assert!(engine_null_event_ns() > 0.0);
        assert!(barrier_round_ns() > 0.0);
    }
}
