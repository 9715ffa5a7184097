//! Wall-clock self-profiling of a traced run.
//!
//! The paper's Section 6 characterises simulator cost as *slowdown* —
//! host cycles burned per simulated unit of work. This sink extends that
//! machinery to the event stream: it timestamps every probe record on
//! the host clock, attributes the inter-event host time to the emitting
//! subsystem, and keeps a log₂ histogram of per-event host latency. The
//! host clock rate is passed in (see `mermaid`'s `slowdown::host_frequency`,
//! which honours the `MERMAID_HOST_HZ` override) so reports can be stated
//! in host cycles, not just nanoseconds.

use crate::{Probe, SimEvent};
use mermaid_stats::{Histogram, Table};
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

#[derive(Debug, Clone, Copy, Default)]
struct CatStats {
    events: u64,
    host_ns: u64,
}

/// Measures host-side cost of a traced run from inside the event stream.
pub struct SelfProfiler {
    host_hz: f64,
    /// Host time of the first and the latest `record`: the profile covers
    /// the event stream, not whatever its owner did before (trace
    /// generation) or after (rendering and writing artefacts).
    span: Option<(Instant, Instant)>,
    per_cat: [CatStats; CATEGORIES.len()],
    event_host_ns: Histogram,
    events: u64,
    max_ts_ps: u64,
}

impl SelfProfiler {
    /// A profiler calibrated to `host_hz` host cycles per second.
    pub fn new(host_hz: f64) -> Self {
        SelfProfiler {
            host_hz,
            span: None,
            per_cat: Default::default(),
            event_host_ns: Histogram::log2(),
            events: 0,
            max_ts_ps: 0,
        }
    }

    /// Snapshot the profile collected so far.
    pub fn profile(&self) -> HostProfile {
        let wall_ns = self.span.map_or(0, |(first, last)| {
            last.duration_since(first).as_nanos() as u64
        });
        let wall_secs = wall_ns as f64 / 1e9;
        let events_per_sec = if wall_secs > 0.0 {
            self.events as f64 / wall_secs
        } else {
            0.0
        };
        let host_cycles_per_event = if self.events > 0 {
            self.host_hz * wall_secs / self.events as f64
        } else {
            0.0
        };
        let sim_secs = self.max_ts_ps as f64 / 1e12;
        let slowdown = if sim_secs > 0.0 {
            wall_secs / sim_secs
        } else {
            0.0
        };
        HostProfile {
            host_hz: self.host_hz,
            events: self.events,
            wall_ns,
            events_per_sec,
            host_cycles_per_event,
            sim_ps: self.max_ts_ps,
            slowdown,
            per_category: CATEGORIES
                .into_iter()
                .zip(&self.per_cat)
                .filter(|(_, v)| v.events > 0)
                .map(|(k, v)| (k, v.events, v.host_ns))
                .collect(),
            event_host_ns: self.event_host_ns.clone(),
        }
    }
}

impl Probe for SelfProfiler {
    fn record(&mut self, ev: &SimEvent) {
        let now = Instant::now();
        let (first, last) = self.span.unwrap_or((now, now));
        let gap_ns = now.duration_since(last).as_nanos() as u64;
        self.span = Some((first, now));
        self.events += 1;
        self.max_ts_ps = self.max_ts_ps.max(ev.ts_ps());
        self.event_host_ns.record(gap_ns);
        let cat = &mut self.per_cat[category(ev)];
        cat.events += 1;
        cat.host_ns += gap_ns;
    }
}

/// A snapshot of host-side cost, renderable as a table.
#[derive(Debug, Clone)]
pub struct HostProfile {
    /// Host clock rate used for cycle figures.
    pub host_hz: f64,
    /// Probe events recorded.
    pub events: u64,
    /// Wall-clock time from the first recorded event to the last.
    pub wall_ns: u64,
    /// Probe events per host second.
    pub events_per_sec: f64,
    /// Host cycles per probe event (wall time × host_hz / events).
    pub host_cycles_per_event: f64,
    /// Latest virtual time observed.
    pub sim_ps: u64,
    /// Host seconds per simulated second (the paper's slowdown figure,
    /// taken over the whole traced run).
    pub slowdown: f64,
    /// `(category, events, host_ns)` attribution per subsystem.
    pub per_category: Vec<(&'static str, u64, u64)>,
    /// Log₂ histogram of per-event host latency in nanoseconds.
    pub event_host_ns: Histogram,
}

impl HostProfile {
    /// Render the profile as an ASCII table.
    pub fn render(&self) -> String {
        let mut t = Table::new(["category", "events", "host ms", "share %"])
            .with_title(format!(
                "Self-profile: {} events in {:.1} ms ({:.0} ev/s, {:.0} host cycles/event, slowdown {:.0})",
                self.events,
                self.wall_ns as f64 / 1e6,
                self.events_per_sec,
                self.host_cycles_per_event,
                self.slowdown,
            ));
        let total_ns: u64 = self.per_category.iter().map(|&(_, _, ns)| ns).sum();
        for &(cat, events, ns) in &self.per_category {
            let share = if total_ns > 0 {
                100.0 * ns as f64 / total_ns as f64
            } else {
                0.0
            };
            t.row([
                cat.to_string(),
                events.to_string(),
                format!("{:.3}", ns as f64 / 1e6),
                format!("{share:.1}"),
            ]);
        }
        let mut out = t.render();
        if let (Some(p50), Some(p99)) = (
            self.event_host_ns.percentile(0.50),
            self.event_host_ns.percentile(0.99),
        ) {
            out.push_str(&format!(
                "per-event host latency: p50 ~{p50} ns, p99 ~{p99} ns (log2 buckets)\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_events_to_categories() {
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
        let prof = p.profile();
        assert_eq!(prof.events, 3);
        assert_eq!(prof.sim_ps, 250);
        assert_eq!(prof.event_host_ns.count(), 3);
        let cats: Vec<&str> = prof.per_category.iter().map(|&(c, _, _)| c).collect();
        assert_eq!(cats, vec!["engine", "memory", "network"]);
        let text = prof.render();
        assert!(text.contains("Self-profile"));
        assert!(text.contains("engine"));
        assert!(text.contains("per-event host latency"));
    }

    #[test]
    fn the_profile_clocks_the_event_stream_only() {
        // Host time before the first event (trace generation) and after
        // the last (rendering, writing) is not the simulation's.
        let pause = std::time::Duration::from_millis(100);
        let mut p = SelfProfiler::new(1e9);
        std::thread::sleep(pause);
        for ts_ps in [100, 200] {
            p.record(&SimEvent::PacketDeliver {
                ts_ps,
                node: 0,
                packets: 1,
            });
        }
        std::thread::sleep(pause);
        let prof = p.profile();
        assert!(
            prof.wall_ns < pause.as_nanos() as u64,
            "{} ns of wall clock for two back-to-back events",
            prof.wall_ns
        );
        let attributed: u64 = prof.per_category.iter().map(|&(_, _, ns)| ns).sum();
        assert_eq!(attributed, prof.wall_ns, "gaps partition the span");
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
