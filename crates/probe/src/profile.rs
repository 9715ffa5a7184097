//! Wall-clock self-profiling of a traced run.
//!
//! The paper's Section 6 characterises simulator cost as *slowdown* —
//! host cycles burned per simulated unit of work. This sink extends that
//! machinery to the event stream: it counts events per emitting subsystem
//! and reads the host clock once per batch a [`crate::ProbeHandle`] hands
//! over, never per event, which cost more than the rest of the fold. The
//! host clock rate is passed in (see `mermaid`'s
//! `slowdown::host_frequency`, which honours the `MERMAID_HOST_HZ`
//! override) so reports can be stated in host cycles.

use crate::{Probe, SimEvent};
use mermaid_stats::Table;
use std::time::Instant;

/// The subsystems events are attributed to, in report order.
const CATEGORIES: [&str; 5] = ["engine", "fault", "memory", "network", "queue"];

/// Which subsystem an event came from: its index in [`CATEGORIES`].
fn category(ev: &SimEvent) -> usize {
    match ev {
        SimEvent::EngineDelivery { .. } => 0,
        SimEvent::QueueTier { .. } => 4,
        SimEvent::Activation { .. }
        | SimEvent::MsgSend { .. }
        | SimEvent::MsgDeliver { .. }
        | SimEvent::MsgPath { .. }
        | SimEvent::LinkBusy { .. }
        | SimEvent::PacketForward { .. }
        | SimEvent::PacketDeliver { .. } => 3,
        SimEvent::CacheAccess { .. }
        | SimEvent::CacheEvict { .. }
        | SimEvent::BusTransaction { .. } => 2,
        SimEvent::LinkFault { .. }
        | SimEvent::RouterFault { .. }
        | SimEvent::PacketDropped { .. }
        | SimEvent::PacketCorrupted { .. }
        | SimEvent::MsgRetry { .. }
        | SimEvent::MsgGaveUp { .. }
        | SimEvent::Reroute { .. } => 1,
    }
}

/// One host clock read, with how far the stream had got by then.
#[derive(Debug, Clone, Copy)]
struct Lap {
    at: Instant,
    events: u64,
    sim_ps: u64,
}

/// Measures host-side cost of a traced run from inside the event stream.
///
/// The span runs from the first [`lap`](SelfProfiler::lap) to the latest,
/// so host time before the stream (trace generation) and after it
/// (rendering, writing) is not billed. A handle laps at the end of each
/// full batch: the first batch and the last, partial one are counted but
/// not timed, and rates are taken over the events in between.
pub struct SelfProfiler {
    host_hz: f64,
    per_cat: [u64; CATEGORIES.len()],
    events: u64,
    max_ts_ps: u64,
    /// The first lap and the latest.
    laps: Option<(Lap, Lap)>,
}

impl SelfProfiler {
    /// A profiler calibrated to `host_hz` host cycles per second.
    pub fn new(host_hz: f64) -> Self {
        SelfProfiler {
            host_hz,
            per_cat: [0; CATEGORIES.len()],
            events: 0,
            max_ts_ps: 0,
            laps: None,
        }
    }

    /// Read the host clock: the events recorded so far end here.
    pub fn lap(&mut self) {
        let now = Lap {
            at: Instant::now(),
            events: self.events,
            sim_ps: self.max_ts_ps,
        };
        let first = self.laps.map_or(now, |(first, _)| first);
        self.laps = Some((first, now));
    }

    /// Snapshot the profile collected so far.
    pub fn profile(&self) -> HostProfile {
        let (wall_ns, timed_events, timed_ps) = self.laps.map_or((0, 0, 0), |(first, last)| {
            (
                last.at.duration_since(first.at).as_nanos() as u64,
                last.events - first.events,
                last.sim_ps - first.sim_ps,
            )
        });
        let wall_secs = wall_ns as f64 / 1e9;
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        HostProfile {
            host_hz: self.host_hz,
            events: self.events,
            timed_events,
            wall_ns,
            events_per_sec: per(timed_events as f64, wall_secs),
            host_cycles_per_event: per(self.host_hz * wall_secs, timed_events as f64),
            sim_ps: self.max_ts_ps,
            slowdown: per(wall_secs, timed_ps as f64 / 1e12),
            per_category: CATEGORIES
                .into_iter()
                .zip(self.per_cat)
                .filter(|&(_, n)| n > 0)
                .collect(),
        }
    }
}

impl Probe for SelfProfiler {
    fn record(&mut self, ev: &SimEvent) {
        self.events += 1;
        self.max_ts_ps = self.max_ts_ps.max(ev.ts_ps());
        self.per_cat[category(ev)] += 1;
    }
}

/// A snapshot of host-side cost, renderable as a table.
#[derive(Debug, Clone)]
pub struct HostProfile {
    /// Host clock rate used for cycle figures.
    pub host_hz: f64,
    /// Probe events recorded.
    pub events: u64,
    /// Probe events recorded between the first clock read and the last.
    pub timed_events: u64,
    /// Wall-clock time between the first clock read and the last.
    pub wall_ns: u64,
    /// Timed probe events per host second.
    pub events_per_sec: f64,
    /// Host cycles per timed probe event (wall time × host_hz / events).
    pub host_cycles_per_event: f64,
    /// Latest virtual time observed.
    pub sim_ps: u64,
    /// Host seconds per simulated second over the timed span (the paper's
    /// slowdown figure).
    pub slowdown: f64,
    /// `(category, events)` per subsystem.
    pub per_category: Vec<(&'static str, u64)>,
}

impl HostProfile {
    /// Render the profile as an ASCII table.
    pub fn render(&self) -> String {
        let mut t = Table::new(["category", "events", "share %"]).with_title(format!(
            "Self-profile: {} events, {} timed in {:.1} ms ({:.0} ev/s, {:.0} host cycles/event, slowdown {:.0})",
            self.events,
            self.timed_events,
            self.wall_ns as f64 / 1e6,
            self.events_per_sec,
            self.host_cycles_per_event,
            self.slowdown,
        ));
        for &(cat, events) in &self.per_category {
            t.row([
                cat.to_string(),
                events.to_string(),
                format!("{:.1}", 100.0 * events as f64 / self.events as f64),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProbeHandle, ProbeStack, BATCH};
    use std::time::Duration;

    fn delivery(ts_ps: u64) -> SimEvent {
        SimEvent::PacketDeliver {
            ts_ps,
            node: 0,
            packets: 1,
        }
    }

    #[test]
    fn counts_events_per_category_and_the_latest_time() {
        let mut p = SelfProfiler::new(1e9);
        p.record(&SimEvent::EngineDelivery {
            ts_ps: 100,
            src: 0,
            dst: 0,
            pending: 0,
        });
        p.record(&SimEvent::MsgSend {
            ts_ps: 200,
            src: 0,
            dst: 1,
            bytes: 8,
            sync: false,
        });
        p.record(&SimEvent::BusTransaction {
            node: 0,
            start_ps: 250,
            end_ps: 300,
            wait_ps: 0,
        });
        p.record(&delivery(150));
        let prof = p.profile();
        assert_eq!(prof.events, 4);
        assert_eq!(prof.sim_ps, 250);
        assert_eq!(
            prof.per_category,
            vec![("engine", 1), ("memory", 1), ("network", 2)]
        );
        // Recorded directly, nothing laps: no span, no rates.
        assert_eq!((prof.timed_events, prof.wall_ns), (0, 0));
        let text = prof.render();
        assert!(
            text.starts_with("Self-profile: 4 events, 0 timed"),
            "{text}"
        );
        assert!(text.contains("network"), "{text}");
        assert!(text.contains("50.0"), "network is half the events: {text}");
    }

    #[test]
    fn the_profile_clocks_the_event_stream_only() {
        // Host time before the first event (trace generation) and after
        // the last (rendering, writing) is not the simulation's: a clock
        // read when the stack is read back would bill the second pause.
        let pause = Duration::from_millis(100);
        let h = ProbeHandle::new(ProbeStack::new().with_profiler(1e9));
        std::thread::sleep(pause);
        let n = 3 * BATCH as u64 + 5;
        (0..n).for_each(|i| h.replay(&delivery(1_000 * i)));
        std::thread::sleep(pause);
        let prof = h.host_profile().unwrap();
        assert_eq!(prof.events, n);
        assert_eq!(prof.sim_ps, 1_000 * (n - 1));
        assert_eq!(prof.per_category, vec![("network", n)]);
        // Laps end the first, second and third batch.
        assert_eq!(prof.timed_events, 2 * BATCH as u64);
        assert!(
            prof.wall_ns > 0 && prof.wall_ns < pause.as_nanos() as u64,
            "{} ns of wall clock for back-to-back events",
            prof.wall_ns
        );
        assert!(prof.events_per_sec > 0.0 && prof.slowdown > 0.0);
    }

    #[test]
    fn empty_profile_renders_without_division_by_zero() {
        let p = SelfProfiler::new(3e9);
        let prof = p.profile();
        assert_eq!(prof.events, 0);
        assert_eq!(prof.host_cycles_per_event, 0.0);
        assert_eq!(prof.slowdown, 0.0);
        let _ = prof.render();
    }
}
