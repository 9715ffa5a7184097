//! The discrete-event engine: components, events, and the main loop.

use crate::probe::{EngineProbe, LadderStats};
use crate::queue::{EventKey, EventQueue, InOrder};
use crate::time::{Duration, Time};

/// Identifies a component registered with an [`Engine`].
pub type CompId = usize;

/// A timestamped message between two components.
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Virtual time at which the event is delivered.
    pub time: Time,
    /// Component that scheduled the event (== `dst` for self-scheduled
    /// timers).
    pub src: CompId,
    /// Component the event is delivered to.
    pub dst: CompId,
    /// Model-defined message payload.
    pub payload: M,
}

/// A simulation object (a Pearl "object"): receives events addressed to it
/// and reacts by mutating its state and scheduling further events.
///
/// `Any` is a supertrait so that concrete component state can be inspected
/// after a run via [`Engine::component`].
pub trait Component<M>: std::any::Any {
    /// Handle one event delivered to this component.
    fn handle(&mut self, ev: Event<M>, ctx: &mut Ctx<'_, M>);

    /// Called once before the simulation starts; schedule initial activity
    /// here. The default does nothing.
    fn init(&mut self, _ctx: &mut Ctx<'_, M>) {}
}

/// The engine-side API handed to a component while it runs.
///
/// All scheduling is relative to the current virtual time; an event may not
/// be scheduled in the past (zero delay is allowed and is delivered after
/// all events already pending at the current instant).
pub struct Ctx<'e, M> {
    now: Time,
    self_id: CompId,
    queue: &'e mut EventQueue<QueuedEvent<M>>,
    stop_requested: &'e mut bool,
    key_counters: &'e mut [u64],
}

/// One pending event as the queue's slab holds it. The scheduling
/// component is not stored: it is the `src` of the event's [`EventKey`]
/// on every scheduling path ([`Ctx::alloc_key`], [`Engine::post`], and
/// [`Engine::post_keyed`], whose key another shard's `alloc_key` made).
pub struct QueuedEvent<M> {
    dst: u32,
    payload: M,
}

/// Every pending event of an engine in delivery order, as
/// [`Engine::with_pending`] hands them out.
pub struct Pending<'q, M>(InOrder<'q, QueuedEvent<M>>);

impl<M> Clone for Pending<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Pending<'_, M> {}

impl<'q, M> Pending<'q, M> {
    /// Delivery time, tie-break key, destination component and payload of
    /// every pending event, in delivery order. The scheduling component
    /// is the key's `src`.
    pub fn iter(self) -> impl Iterator<Item = (Time, EventKey, CompId, &'q M)> {
        self.0
            .iter()
            .map(|(t, key, qe)| (t, key, qe.dst as CompId, &qe.payload))
    }
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component currently executing.
    #[inline]
    pub fn self_id(&self) -> CompId {
        self.self_id
    }

    /// Allocate the deterministic tie-break key the *next* send from this
    /// component would carry, consuming one step of its push counter.
    ///
    /// Every scheduling path ([`Ctx::send_after`] and friends) allocates
    /// keys through here, so a caller that captures an event instead of
    /// scheduling it locally — a cross-shard egress — keeps this
    /// component's key sequence exactly in sync with a single-threaded run
    /// (see `crate::shard`).
    #[inline]
    pub fn alloc_key(&mut self) -> EventKey {
        let seq = self.key_counters[self.self_id];
        self.key_counters[self.self_id] = seq + 1;
        EventKey {
            push_ps: self.now.as_ps(),
            src: self.self_id as u32,
            seq,
        }
    }

    /// Send `payload` to `dst`, delivered after `delay`.
    #[inline]
    pub fn send_after(&mut self, delay: Duration, dst: CompId, payload: M) {
        debug_assert!(
            dst < self.key_counters.len(),
            "unknown destination component"
        );
        let key = self.alloc_key();
        let dst = dst as u32; // the id space fits u32 (`Engine::with_world`)
        self.queue
            .push_keyed(self.now + delay, key, QueuedEvent { dst, payload });
    }

    /// Send `payload` to `dst` at the current instant (after events already
    /// pending now).
    #[inline]
    pub fn send_now(&mut self, dst: CompId, payload: M) {
        self.send_after(Duration::ZERO, dst, payload);
    }

    /// Send `payload` to `dst` delivered at the absolute instant `at`.
    ///
    /// Panics if `at` is in the past — the same rule as every other
    /// scheduling path.
    #[inline]
    pub fn send_at(&mut self, at: Time, dst: CompId, payload: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.send_after(at.since(self.now), dst, payload);
    }

    /// Schedule a message to *this* component after `delay` — a timer.
    #[inline]
    pub fn timer(&mut self, delay: Duration, payload: M) {
        let me = self.self_id;
        self.send_after(delay, me, payload);
    }

    /// Ask the engine to stop after the current event completes.
    #[inline]
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// Storage and dispatch for a simulation's components.
///
/// The engine is generic over how components are stored. [`BoxWorld`] (the
/// default) keeps boxed trait objects, so any mix of `Component` types
/// composes freely. A model can instead supply its own struct-of-arrays
/// world — one typed slab per component kind, statically dispatched by id
/// range — for hot paths where cache locality and devirtualised calls
/// matter (the network model does this; see DESIGN.md §15).
///
/// Component ids are dense indices into the world. `count()` fixes the id
/// space: the engine sizes its per-component push counters (the
/// deterministic tie-break, see [`EventKey`]) from it, and `post` bounds-
/// checks against it. A sharded world may *own* only a sub-range of the id
/// space as long as `count()` still reports the full logical size — ids it
/// does not own must never be delivered to it.
pub trait World<M> {
    /// Size of the component id space (ids are `0..count()`).
    fn count(&self) -> usize;
    /// Run component `id`'s init hook. Called once per id, in id order.
    fn init(&mut self, id: CompId, ctx: &mut Ctx<'_, M>);
    /// Deliver one event to component `id`.
    fn handle(&mut self, id: CompId, ev: Event<M>, ctx: &mut Ctx<'_, M>);
}

/// The default [`World`]: boxed trait objects, one heap allocation per
/// component, dynamic dispatch per delivery.
pub struct BoxWorld<M: 'static> {
    comps: Vec<Box<dyn Component<M>>>,
    names: Vec<String>,
}

impl<M> Default for BoxWorld<M> {
    fn default() -> Self {
        BoxWorld {
            comps: Vec::new(),
            names: Vec::new(),
        }
    }
}

impl<M: 'static> World<M> for BoxWorld<M> {
    fn count(&self) -> usize {
        self.comps.len()
    }
    fn init(&mut self, id: CompId, ctx: &mut Ctx<'_, M>) {
        self.comps[id].init(ctx)
    }
    #[inline]
    fn handle(&mut self, id: CompId, ev: Event<M>, ctx: &mut Ctx<'_, M>) {
        self.comps[id].handle(ev, ctx)
    }
}

/// Why [`Engine::run`] (or a bounded variant) returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunResult {
    /// The pending-event set drained completely.
    Drained,
    /// A component called [`Ctx::stop`].
    Stopped,
    /// The time bound of [`Engine::run_until`] was reached.
    TimeLimit,
    /// The event bound of [`Engine::run_core`] was reached.
    EventLimit,
}

/// The discrete-event simulation engine.
///
/// Generic over the message type `M`, so each subsystem (memory model,
/// network model) defines its own closed message enum and gets static
/// dispatch on payload matching, and over the component storage `W` (see
/// [`World`]): [`BoxWorld`] by default, or a model-supplied arena of typed
/// slabs for statically-dispatched hot paths.
pub struct Engine<M: 'static, W: World<M> = BoxWorld<M>> {
    now: Time,
    queue: EventQueue<QueuedEvent<M>>,
    // Dispatch goes through the world. A handler receives `&mut` its own
    // state plus a `Ctx` borrowing `queue`, `stop_requested` and
    // `key_counters` — disjoint fields, so nothing is moved while it runs.
    world: W,
    // Per-component push counters feeding the deterministic tie-break key
    // (see `EventKey`); indexed by component id. `post` consumes the
    // counter of the `src` it is attributed to.
    key_counters: Vec<u64>,
    events_processed: u64,
    stop_requested: bool,
    initialized: bool,
    // Instrumentation hook. `None` (the default) costs one null-check per
    // delivered event; see `crate::probe`.
    probe: Option<Box<dyn EngineProbe>>,
    last_ladder: LadderStats,
}

impl<M: 'static> Default for Engine<M> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<M: 'static> Engine<M> {
    /// Create an engine at time zero with no components.
    pub fn new() -> Self {
        Engine::with_world(BoxWorld::default())
    }

    /// Register a component; returns its id. Ids are dense and assigned in
    /// registration order.
    pub fn add_component<C>(&mut self, name: impl Into<String>, comp: C) -> CompId
    where
        C: Component<M> + 'static,
    {
        let id = self.world.comps.len();
        assert!(u32::try_from(id).is_ok(), "more than u32::MAX components");
        self.world.comps.push(Box::new(comp));
        self.world.names.push(name.into());
        self.key_counters.push(0);
        id
    }

    /// The registered name of a component.
    pub fn component_name(&self, id: CompId) -> &str {
        &self.world.names[id]
    }

    /// Borrow a component's concrete state (for inspection between runs).
    ///
    /// Returns `None` if the component is not of type `C`.
    pub fn component<C: 'static>(&self, id: CompId) -> Option<&C> {
        let any: &dyn std::any::Any = self.world.comps[id].as_ref();
        any.downcast_ref::<C>()
    }
}

impl<M: 'static, W: World<M>> Engine<M, W> {
    /// Create an engine at time zero over a fully-built world. The
    /// component id space is fixed by `world.count()`.
    pub fn with_world(world: W) -> Self {
        assert!(
            u32::try_from(world.count()).is_ok(),
            "more than u32::MAX components"
        );
        let key_counters = vec![0; world.count()];
        Engine {
            now: Time::ZERO,
            queue: EventQueue::new(),
            world,
            key_counters,
            events_processed: 0,
            stop_requested: false,
            initialized: false,
            probe: None,
            last_ladder: LadderStats::default(),
        }
    }

    /// Borrow the component storage (for inspection between runs).
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutably borrow the component storage.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Number of registered components (the size of the id space).
    pub fn component_count(&self) -> usize {
        self.world.count()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events.
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Inject an event from outside the simulation (e.g. the initial
    /// workload). `time` must not be in the past. The event is keyed as if
    /// `src` had scheduled it now (consuming one step of `src`'s push
    /// counter), so posts obey the same deterministic tie order as
    /// component sends.
    pub fn post(&mut self, time: Time, src: CompId, dst: CompId, payload: M) {
        assert!(time >= self.now, "cannot post an event in the past");
        assert!(dst < self.world.count(), "unknown destination component");
        assert!(src < self.world.count(), "unknown source component");
        let seq = self.key_counters[src];
        self.key_counters[src] = seq + 1;
        let key = EventKey {
            push_ps: self.now.as_ps(),
            src: src as u32,
            seq,
        };
        self.post_keyed(time, key, dst, payload);
    }

    /// Inject an event carrying a key allocated elsewhere: by another
    /// shard's [`Ctx::alloc_key`] (the cross-shard ingress), or by the run
    /// a checkpoint captured. `time` must not be in the past. The event
    /// slots into the queue exactly where the single-threaded run would
    /// have placed it; its scheduling component is `key.src`.
    pub fn post_keyed(&mut self, time: Time, key: EventKey, dst: CompId, payload: M) {
        assert!(time >= self.now, "cannot post an event in the past");
        assert!(dst < self.world.count(), "unknown destination component");
        let dst = dst as u32; // the id space fits u32 (`Engine::with_world`)
        self.queue
            .push_keyed(time, key, QueuedEvent { dst, payload });
    }

    /// Delivery time of the earliest pending event, if any. Runs component
    /// `init` first if the engine has never run, so the initial workload is
    /// visible.
    pub fn next_event_time(&mut self) -> Option<Time> {
        self.ensure_init();
        self.queue.peek_time()
    }

    /// Run component `init` hooks without delivering any event. Idempotent;
    /// [`Engine::run`] and friends call this implicitly.
    pub fn prime(&mut self) {
        self.ensure_init();
    }

    /// Attach an instrumentation probe (replacing any previous one). The
    /// probe only observes deliveries; it cannot alter the simulation.
    pub fn set_probe(&mut self, probe: Box<dyn EngineProbe>) {
        self.last_ladder = self.queue.ladder_stats();
        self.probe = Some(probe);
    }

    /// Ladder-tier transition counters of the underlying event queue.
    pub fn ladder_stats(&self) -> LadderStats {
        self.queue.ladder_stats()
    }

    /// The per-component push counters feeding the deterministic tie-break
    /// key (indexed by component id). Part of the checkpointable engine
    /// state: a restored engine must resume the exact key sequence.
    pub fn key_counters(&self) -> &[u64] {
        &self.key_counters
    }

    /// Hand `f` every pending event in `(time, key)` order — the exact
    /// delivery order — without copying one (see
    /// `EventQueue::with_in_order`; ladder geometry is not part of it).
    pub fn with_pending<R>(&mut self, f: impl FnOnce(Pending<'_, M>) -> R) -> R {
        self.queue.with_in_order(|events| f(Pending(events)))
    }

    /// Overwrite the engine's dynamic state with a checkpoint's: clock,
    /// delivery counter and per-component key counters, with an empty
    /// event set. The checkpoint's pending events follow through
    /// [`Engine::post_keyed`], each keeping its original [`EventKey`], so
    /// same-instant ties replay in the checkpointed order.
    ///
    /// Component `init` hooks are marked as already run — the caller is
    /// responsible for overlaying the matching component state onto the
    /// world *without* re-running init (init schedules initial events and
    /// mutates state; the checkpoint already reflects all of that).
    pub fn restore(&mut self, now: Time, events_processed: u64, key_counters: Vec<u64>) {
        assert_eq!(
            key_counters.len(),
            self.world.count(),
            "checkpoint key counters do not match the component id space"
        );
        self.queue.clear();
        self.now = now;
        self.events_processed = events_processed;
        self.key_counters = key_counters;
        self.stop_requested = false;
        self.initialized = true;
    }

    /// Notify the attached probe of one delivery (and any ladder-counter
    /// movement since the previous one). Caller has already checked that a
    /// probe is attached.
    fn probe_delivery(&mut self, now: Time, src: CompId, dst: CompId) {
        let pending = self.queue.len();
        let ladder = self.queue.ladder_stats();
        let probe = self.probe.as_mut().expect("probe_delivery without probe");
        if ladder != self.last_ladder {
            self.last_ladder = ladder;
            probe.ladder(now, ladder);
        }
        probe.delivered(now, src, dst, pending);
    }

    /// Run `init` on every component that has not been initialised yet.
    fn ensure_init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for id in 0..self.world.count() {
            let mut ctx = Ctx {
                now: self.now,
                self_id: id,
                queue: &mut self.queue,
                stop_requested: &mut self.stop_requested,
                key_counters: &mut self.key_counters,
            };
            self.world.init(id, &mut ctx);
        }
    }

    /// Deliver exactly one event, if any is pending. Returns `false` when
    /// the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_init();
        let Some((time, key, qe)) = self.queue.pop_keyed() else {
            return false;
        };
        self.deliver(time, key, qe);
        true
    }

    /// Advance the clock to `time` and hand a popped event to its
    /// destination's handler.
    #[inline(always)]
    fn deliver(&mut self, time: Time, key: EventKey, qe: QueuedEvent<M>) {
        debug_assert!(time >= self.now, "event queue returned a past event");
        self.now = time;
        self.events_processed += 1;
        let (src, dst) = (key.src as CompId, qe.dst as CompId);
        if self.probe.is_some() {
            self.probe_delivery(time, src, dst);
        }
        let mut ctx = Ctx {
            now: time,
            self_id: dst,
            queue: &mut self.queue,
            stop_requested: &mut self.stop_requested,
            key_counters: &mut self.key_counters,
        };
        self.world.handle(
            dst,
            Event {
                time,
                src,
                dst,
                payload: qe.payload,
            },
            &mut ctx,
        );
    }

    /// Run until the event set drains or a component stops the engine.
    pub fn run(&mut self) -> RunResult {
        self.run_until(Time::MAX)
    }

    /// Run until `deadline` (events *at* the deadline are delivered), the
    /// event set drains, or a component stops the engine.
    ///
    /// A pending stop request — raised during component `init`, or by the
    /// last event of a previous bounded run — is honoured immediately:
    /// the call returns [`RunResult::Stopped`] without delivering any
    /// event. A stop is consumed by the run that reports it, so the next
    /// call resumes normally.
    pub fn run_until(&mut self, deadline: Time) -> RunResult {
        self.run_core(deadline, u64::MAX)
    }

    /// Run until `deadline` (as [`Engine::run_until`]) or until
    /// `max_events` events have been delivered, whichever comes first.
    /// Stop handling matches [`Engine::run_until`]. `max_events == 0`
    /// delivers nothing and reports [`RunResult::EventLimit`].
    ///
    /// This is the main loop behind `run`/`run_until`. Events are
    /// delivered strictly in `(time, key)` order — identical to repeated
    /// [`Engine::step`] — at the cost of one queue pop plus the handler
    /// per event: the pop itself tests the deadline against the earliest
    /// record's time, before it takes a payload.
    pub fn run_core(&mut self, deadline: Time, max_events: u64) -> RunResult {
        self.ensure_init();
        if self.stop_requested {
            // Raised during init (first run) or unobserved by a caller:
            // honour and consume it before delivering anything.
            self.stop_requested = false;
            return RunResult::Stopped;
        }
        if max_events == 0 {
            return RunResult::EventLimit;
        }
        let mut remaining = max_events;
        loop {
            let Some((t, key, qe)) = self.queue.pop_keyed_until(deadline) else {
                if self.queue.is_empty() {
                    return RunResult::Drained;
                }
                self.now = deadline;
                return RunResult::TimeLimit;
            };
            self.deliver(t, key, qe);
            remaining -= 1;
            if self.stop_requested {
                self.stop_requested = false;
                return RunResult::Stopped;
            }
            if remaining == 0 {
                return RunResult::EventLimit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Tick,
        Value(u64),
    }

    /// Counts ticks; reschedules itself `n` times.
    struct Ticker {
        period: Duration,
        remaining: u32,
        fired_at: Vec<Time>,
    }

    impl Component<Msg> for Ticker {
        fn init(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if self.remaining > 0 {
                ctx.timer(self.period, Msg::Tick);
            }
        }
        fn handle(&mut self, ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
            assert_eq!(ev.payload, Msg::Tick);
            self.fired_at.push(ctx.now());
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.timer(self.period, Msg::Tick);
            }
        }
    }

    #[test]
    fn timer_fires_periodically() {
        let mut e = Engine::new();
        let id = e.add_component(
            "ticker",
            Ticker {
                period: Duration::from_ns(5),
                remaining: 3,
                fired_at: Vec::new(),
            },
        );
        assert_eq!(e.run(), RunResult::Drained);
        let t = e.component::<Ticker>(id).unwrap();
        assert_eq!(
            t.fired_at,
            vec![
                Time::from_ps(5_000),
                Time::from_ps(10_000),
                Time::from_ps(15_000)
            ]
        );
        assert_eq!(e.events_processed(), 3);
    }

    /// Schedules itself at fixed *absolute* instants via `send_at`.
    struct AbsoluteScheduler {
        at: Vec<Time>,
        fired_at: Vec<Time>,
    }

    impl Component<Msg> for AbsoluteScheduler {
        fn init(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let me = ctx.self_id();
            for &t in &self.at {
                ctx.send_at(t, me, Msg::Tick);
            }
        }
        fn handle(&mut self, ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
            assert_eq!(ev.payload, Msg::Tick);
            self.fired_at.push(ctx.now());
        }
    }

    #[test]
    fn send_at_delivers_at_exact_absolute_instants() {
        // Posted out of order at init time; delivery order is by instant,
        // FIFO within an instant (two events land at 7 ns).
        let mut e = Engine::new();
        let id = e.add_component(
            "abs",
            AbsoluteScheduler {
                at: vec![
                    Time::from_ns(7),
                    Time::from_ns(3),
                    Time::from_ns(7),
                    Time::ZERO,
                ],
                fired_at: Vec::new(),
            },
        );
        assert_eq!(e.run(), RunResult::Drained);
        let c = e.component::<AbsoluteScheduler>(id).unwrap();
        assert_eq!(
            c.fired_at,
            vec![
                Time::ZERO,
                Time::from_ns(3),
                Time::from_ns(7),
                Time::from_ns(7)
            ]
        );
    }

    /// Fires once, then tries to schedule into the past.
    struct PastScheduler;

    impl Component<Msg> for PastScheduler {
        fn init(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.timer(Duration::from_ns(5), Msg::Tick);
        }
        fn handle(&mut self, _ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
            let me = ctx.self_id();
            ctx.send_at(Time::from_ns(1), me, Msg::Tick); // now is 5 ns
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn send_at_rejects_instants_in_the_past() {
        let mut e = Engine::new();
        e.add_component("past", PastScheduler);
        e.run();
    }

    struct Forwarder {
        next: CompId,
        hop_delay: Duration,
        received: Vec<u64>,
    }

    impl Component<Msg> for Forwarder {
        fn handle(&mut self, ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Value(v) = ev.payload {
                self.received.push(v);
                if v > 0 {
                    ctx.send_after(self.hop_delay, self.next, Msg::Value(v - 1));
                }
            }
        }
    }

    #[test]
    fn ring_of_forwarders_decrements_to_zero() {
        let mut e = Engine::new();
        let n = 4;
        let ids: Vec<CompId> = (0..n)
            .map(|i| {
                e.add_component(
                    format!("f{i}"),
                    Forwarder {
                        next: (i + 1) % n,
                        hop_delay: Duration::from_ns(1),
                        received: Vec::new(),
                    },
                )
            })
            .collect();
        e.post(Time::ZERO, ids[0], ids[0], Msg::Value(9));
        assert_eq!(e.run(), RunResult::Drained);
        // 10 deliveries total (values 9..=0), spread round the ring.
        assert_eq!(e.events_processed(), 10);
        assert_eq!(e.now(), Time::from_ps(9_000));
        let f0 = e.component::<Forwarder>(ids[0]).unwrap();
        assert_eq!(f0.received, vec![9, 5, 1]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut e = Engine::new();
        e.add_component(
            "ticker",
            Ticker {
                period: Duration::from_ns(10),
                remaining: 100,
                fired_at: Vec::new(),
            },
        );
        assert_eq!(e.run_until(Time::from_ps(35_000)), RunResult::TimeLimit);
        assert_eq!(e.events_processed(), 3);
        assert_eq!(e.now(), Time::from_ps(35_000));
        // Resume to completion.
        assert_eq!(e.run(), RunResult::Drained);
        assert_eq!(e.events_processed(), 100);
    }

    #[test]
    fn run_core_bounds_work() {
        let mut e = Engine::new();
        e.add_component(
            "ticker",
            Ticker {
                period: Duration::from_ns(1),
                remaining: 50,
                fired_at: Vec::new(),
            },
        );
        assert_eq!(e.run_core(Time::MAX, 20), RunResult::EventLimit);
        assert_eq!(e.events_processed(), 20);
        assert_eq!(e.run_core(Time::MAX, 1_000), RunResult::Drained);
        assert_eq!(e.events_processed(), 50);
    }

    struct Stopper;
    impl Component<Msg> for Stopper {
        fn init(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.timer(Duration::from_ns(1), Msg::Tick);
        }
        fn handle(&mut self, _ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
            ctx.stop();
        }
    }

    #[test]
    fn stop_halts_the_engine() {
        let mut e = Engine::new();
        e.add_component("s", Stopper);
        e.add_component(
            "ticker",
            Ticker {
                period: Duration::from_ns(1),
                remaining: 1000,
                fired_at: Vec::new(),
            },
        );
        assert_eq!(e.run(), RunResult::Stopped);
        assert!(e.events_processed() < 1000);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn posting_in_the_past_panics() {
        let mut e: Engine<Msg> = Engine::new();
        let id = e.add_component(
            "ticker",
            Ticker {
                period: Duration::from_ns(1),
                remaining: 1,
                fired_at: Vec::new(),
            },
        );
        e.run();
        e.post(Time::ZERO, id, id, Msg::Tick);
    }

    #[test]
    fn component_names_are_kept() {
        let mut e: Engine<Msg> = Engine::new();
        let id = e.add_component("alpha", Stopper);
        assert_eq!(e.component_name(id), "alpha");
        assert_eq!(e.component_count(), 1);
    }

    /// A stop raised during component `init` used to be silently cleared
    /// by the reset-on-entry in `run_until`/`run_core`; it must instead
    /// stop the first run before any event is delivered.
    #[test]
    fn stop_during_init_halts_before_any_event() {
        struct InitStopper;
        impl Component<Msg> for InitStopper {
            fn init(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.timer(Duration::from_ns(1), Msg::Tick);
                ctx.stop();
            }
            fn handle(&mut self, _ev: Event<Msg>, _ctx: &mut Ctx<'_, Msg>) {}
        }
        let mut e = Engine::new();
        e.add_component("s", InitStopper);
        assert_eq!(e.run(), RunResult::Stopped);
        assert_eq!(e.events_processed(), 0);
        // The stop is consumed by the run that reported it; the next run
        // proceeds normally and drains the timer scheduled in init.
        assert_eq!(e.run(), RunResult::Drained);
        assert_eq!(e.events_processed(), 1);
    }

    /// Same guarantee through the bounded entry points.
    #[test]
    fn stop_during_init_halts_bounded_runs() {
        struct InitStopper;
        impl Component<Msg> for InitStopper {
            fn init(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.timer(Duration::from_ns(1), Msg::Tick);
                ctx.stop();
            }
            fn handle(&mut self, _ev: Event<Msg>, _ctx: &mut Ctx<'_, Msg>) {}
        }
        let mut e = Engine::new();
        e.add_component("s", InitStopper);
        assert_eq!(e.run_core(Time::MAX, 10), RunResult::Stopped);
        assert_eq!(e.events_processed(), 0);
        assert_eq!(e.run_core(Time::MAX, 10), RunResult::Drained);
        assert_eq!(e.events_processed(), 1);
    }

    #[test]
    fn run_core_zero_is_a_noop_event_limit() {
        let mut e = Engine::new();
        e.add_component(
            "ticker",
            Ticker {
                period: Duration::from_ns(1),
                remaining: 5,
                fired_at: Vec::new(),
            },
        );
        assert_eq!(e.run_core(Time::MAX, 0), RunResult::EventLimit);
        assert_eq!(e.events_processed(), 0);
    }

    /// An attached probe sees one `delivered` call per event, in delivery
    /// order, and observing does not change what the simulation computes.
    #[test]
    fn probe_sees_every_delivery_without_perturbing_the_run() {
        use crate::probe::{EngineProbe, LadderStats};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Recorder {
            deliveries: Vec<(Time, CompId, CompId, usize)>,
            ladder_calls: u64,
        }
        struct Fwd(Rc<RefCell<Recorder>>);
        impl EngineProbe for Fwd {
            fn delivered(&mut self, now: Time, src: CompId, dst: CompId, pending: usize) {
                self.0
                    .borrow_mut()
                    .deliveries
                    .push((now, src, dst, pending));
            }
            fn ladder(&mut self, _now: Time, _stats: LadderStats) {
                self.0.borrow_mut().ladder_calls += 1;
            }
        }

        let build = || {
            let mut e = Engine::new();
            let n = 4;
            let ids: Vec<CompId> = (0..n)
                .map(|i| {
                    e.add_component(
                        format!("f{i}"),
                        Forwarder {
                            next: (i + 1) % n,
                            hop_delay: Duration::from_ns(1),
                            received: Vec::new(),
                        },
                    )
                })
                .collect();
            e.post(Time::ZERO, ids[0], ids[0], Msg::Value(9));
            e
        };

        let mut plain = build();
        plain.run();

        let rec = Rc::new(RefCell::new(Recorder::default()));
        let mut probed = build();
        probed.set_probe(Box::new(Fwd(Rc::clone(&rec))));
        probed.run();

        assert_eq!(probed.now(), plain.now());
        assert_eq!(probed.events_processed(), plain.events_processed());
        assert_eq!(
            probed.component::<Forwarder>(0).unwrap().received,
            plain.component::<Forwarder>(0).unwrap().received,
        );
        let rec = rec.borrow();
        assert_eq!(rec.deliveries.len() as u64, probed.events_processed());
        // Deliveries arrive in nondecreasing time order.
        assert!(rec.deliveries.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn same_instant_events_deliver_in_schedule_order() {
        struct Recorder {
            seen: Vec<u64>,
        }
        impl Component<Msg> for Recorder {
            fn handle(&mut self, ev: Event<Msg>, _ctx: &mut Ctx<'_, Msg>) {
                if let Msg::Value(v) = ev.payload {
                    self.seen.push(v);
                }
            }
        }
        let mut e = Engine::new();
        let id = e.add_component("r", Recorder { seen: Vec::new() });
        for v in 0..10 {
            e.post(Time::from_ps(42), id, id, Msg::Value(v));
        }
        e.run();
        let r = e.component::<Recorder>(id).unwrap();
        assert_eq!(r.seen, (0..10).collect::<Vec<_>>());
    }
}
