//! Metrics aggregation: the post-mortem half of the paper's Section 3.
//!
//! The aggregator folds the probe event stream into the existing
//! `mermaid-stats` primitives — [`Counters`] for event counts,
//! [`Utilization`] for link/bus occupancy and a [`Histogram`] for message
//! latency — and renders them as a [`MetricsReport`] (ASCII tables plus
//! CSV).

use crate::{AccessKind, ActKind, DropReason, HitWhere, Probe, SimEvent, TierMove};
use mermaid_stats::{chart, Counters, Histogram, Table, Utilization};
use pearl::FastHashMap;

/// What a counter counts. Recording touches counters by this `Copy` key,
/// per node or run-wide, in a dense array slot ([`Key::slot`]);
/// [`Key::name`] spells the registry name when a report is made, so no
/// string is built or compared per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    // Per node.
    ActivePs(ActKind),
    Sends,
    Recvs,
    PktsForwarded,
    PktsDelivered,
    PktsDropped,
    Retries,
    GaveUp,
    Reroutes,
    Access(AccessKind),
    Hit(HitWhere),
    Misses,
    /// Cache level 1 or 2.
    Evict(u8),
    Writebacks,
    BusWaitPs,
    // Run-wide.
    Tier(TierMove),
    BytesSent,
    SyncSends,
    Messages,
    /// Indexes [`LATENCY_PARTS`].
    LatencyPs(usize),
    LinkFault(bool),
    RouterFault(bool),
    Dropped(DropReason),
    Corrupted,
    NetRetries,
    MsgsFailed,
    NetReroutes,
}

/// The latency components of `MsgPath`, in its field order.
const LATENCY_PARTS: [&str; 6] = ["overhead", "retry", "queue", "routing", "ser", "wire"];

/// The per-node keys in slot order.
const NODE_KEYS: [Key; 24] = {
    use AccessKind as A;
    use ActKind as K;
    use HitWhere as H;
    [
        Key::ActivePs(K::Compute),
        Key::ActivePs(K::SendBlock),
        Key::ActivePs(K::RecvBlock),
        Key::ActivePs(K::GetBlock),
        Key::Sends,
        Key::Recvs,
        Key::PktsForwarded,
        Key::PktsDelivered,
        Key::PktsDropped,
        Key::Retries,
        Key::GaveUp,
        Key::Reroutes,
        Key::Access(A::IFetch),
        Key::Access(A::Read),
        Key::Access(A::Write),
        Key::Hit(H::L1),
        Key::Hit(H::L2),
        Key::Hit(H::CacheToCache),
        Key::Hit(H::Dram),
        Key::Misses,
        Key::Evict(1),
        Key::Evict(2),
        Key::Writebacks,
        Key::BusWaitPs,
    ]
};

/// The run-wide keys in slot order.
const RUN_KEYS: [Key; 24] = {
    use DropReason as D;
    use TierMove as T;
    [
        Key::Tier(T::Promotion),
        Key::Tier(T::Rebase),
        Key::Tier(T::FarDrain),
        Key::BytesSent,
        Key::SyncSends,
        Key::Messages,
        Key::LatencyPs(0),
        Key::LatencyPs(1),
        Key::LatencyPs(2),
        Key::LatencyPs(3),
        Key::LatencyPs(4),
        Key::LatencyPs(5),
        Key::LinkFault(false),
        Key::LinkFault(true),
        Key::RouterFault(false),
        Key::RouterFault(true),
        Key::Dropped(D::LinkDown),
        Key::Dropped(D::RouterDown),
        Key::Dropped(D::Corrupt),
        Key::Dropped(D::Transient),
        Key::Corrupted,
        Key::NetRetries,
        Key::MsgsFailed,
        Key::NetReroutes,
    ]
};

impl Key {
    /// The key's index in [`NODE_KEYS`] or [`RUN_KEYS`].
    fn slot(self) -> usize {
        match self {
            Key::ActivePs(kind) => kind as usize,
            Key::Sends => 4,
            Key::Recvs => 5,
            Key::PktsForwarded => 6,
            Key::PktsDelivered => 7,
            Key::PktsDropped => 8,
            Key::Retries => 9,
            Key::GaveUp => 10,
            Key::Reroutes => 11,
            Key::Access(kind) => 12 + kind as usize,
            Key::Hit(hit) => 15 + hit as usize,
            Key::Misses => 19,
            Key::Evict(level @ (1 | 2)) => 19 + level as usize,
            Key::Evict(level) => panic!("cache level {level}: evictions are counted for L1 and L2"),
            Key::Writebacks => 22,
            Key::BusWaitPs => 23,
            Key::Tier(kind) => kind as usize,
            Key::BytesSent => 3,
            Key::SyncSends => 4,
            Key::Messages => 5,
            Key::LatencyPs(part) => 6 + part,
            Key::LinkFault(up) => 12 + up as usize,
            Key::RouterFault(up) => 14 + up as usize,
            Key::Dropped(reason) => 16 + reason as usize,
            Key::Corrupted => 20,
            Key::NetRetries => 21,
            Key::MsgsFailed => 22,
            Key::NetReroutes => 23,
        }
    }

    /// The counter's registry name; run-wide keys ignore `node`.
    fn name(self, node: usize) -> String {
        let up_down = |up| if up { "up" } else { "down" };
        match self {
            Key::ActivePs(kind) => format!("node{node}/{}_ps", kind.label()),
            Key::Sends => format!("node{node}/sends"),
            Key::Recvs => format!("node{node}/recvs"),
            Key::PktsForwarded => format!("node{node}/pkts_forwarded"),
            Key::PktsDelivered => format!("node{node}/pkts_delivered"),
            Key::PktsDropped => format!("node{node}/pkts_dropped"),
            Key::Retries => format!("node{node}/retries"),
            Key::GaveUp => format!("node{node}/gave_up"),
            Key::Reroutes => format!("node{node}/reroutes"),
            Key::Access(kind) => format!("mem{node}/{}", kind.label()),
            Key::Hit(hit) => format!("mem{node}/hit_{}", hit.label()),
            Key::Misses => format!("mem{node}/misses"),
            Key::Evict(level) => format!("mem{node}/evict_l{level}"),
            Key::Writebacks => format!("mem{node}/writebacks"),
            Key::BusWaitPs => format!("mem{node}/bus_wait_ps"),
            Key::Tier(kind) => format!("queue/{}", kind.label()),
            Key::BytesSent => "net/bytes_sent".into(),
            Key::SyncSends => "net/sync_sends".into(),
            Key::Messages => "net/messages".into(),
            Key::LatencyPs(part) => format!("lat/{}_ps", LATENCY_PARTS[part]),
            Key::LinkFault(up) => format!("fault/link_{}", up_down(up)),
            Key::RouterFault(up) => format!("fault/router_{}", up_down(up)),
            Key::Dropped(reason) => format!("net/dropped_{}", reason.label()),
            Key::Corrupted => "net/corrupted".into(),
            Key::NetRetries => "net/retries".into(),
            Key::MsgsFailed => "net/msgs_failed".into(),
            Key::NetReroutes => "net/reroutes".into(),
        }
    }
}

/// One counter per key of a key list, indexed by [`Key::slot`], plus
/// which of them an event has touched (a touched counter is reported even
/// when it holds zero).
#[derive(Clone, Copy)]
struct Slots {
    counts: [u64; 24],
    touched: u32,
}

impl Slots {
    const EMPTY: Slots = Slots {
        counts: [0; 24],
        touched: 0,
    };

    fn add(&mut self, key: Key, n: u64) {
        let slot = key.slot();
        self.counts[slot] += n;
        self.touched |= 1 << slot;
    }

    /// The touched counters of `keys` (the list the slots index).
    fn iter<'a>(&'a self, keys: &'a [Key; 24]) -> impl Iterator<Item = (Key, u64)> + 'a {
        (0..keys.len())
            .filter(|&i| self.touched & (1 << i) != 0)
            .map(|i| (keys[i], self.counts[i]))
    }
}

/// Folds [`SimEvent`]s into per-component statistics.
pub struct MetricsAggregator {
    /// Per-node counters, indexed by node (the models number nodes
    /// densely from zero).
    per_node: Vec<Slots>,
    /// Run-wide counters (`engine/deliveries` is `deliveries`).
    run_wide: Slots,
    msg_latency_ps: Histogram,
    /// Occupancy per link and bus, in no order until report time.
    link_util: FastHashMap<(u32, u32), Utilization>,
    bus_util: FastHashMap<u32, Utilization>,
    deliveries: u64,
    last_tier: [u64; 3],
    finish_ps: u64,
}

impl Default for MetricsAggregator {
    fn default() -> Self {
        MetricsAggregator::new()
    }
}

impl MetricsAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        MetricsAggregator {
            per_node: Vec::new(),
            run_wide: Slots::EMPTY,
            msg_latency_ps: Histogram::log2(),
            link_util: FastHashMap::default(),
            bus_util: FastHashMap::default(),
            deliveries: 0,
            last_tier: [0; 3],
            finish_ps: 0,
        }
    }

    /// The aggregated counter registry (sorted iteration order), with a
    /// counter for everything recorded so far — including those an event
    /// touched with a zero, such as a zero-length activation.
    pub fn counters(&self) -> Counters {
        let mut counters = Counters::new();
        if self.deliveries > 0 {
            counters.add("engine/deliveries", self.deliveries);
        }
        for (key, n) in self.run_wide.iter(&RUN_KEYS) {
            counters.add(&key.name(0), n);
        }
        for (node, slots) in self.per_node.iter().enumerate() {
            for (key, n) in slots.iter(&NODE_KEYS) {
                counters.add(&key.name(node), n);
            }
        }
        counters
    }

    fn add(&mut self, key: Key, n: u64) {
        self.run_wide.add(key, n);
    }

    fn add_at(&mut self, node: u32, key: Key, n: u64) {
        let node = node as usize;
        if node >= self.per_node.len() {
            self.per_node.resize(node + 1, Slots::EMPTY);
        }
        self.per_node[node].add(key, n);
    }

    /// Message end-to-end latency distribution (picoseconds).
    pub fn msg_latency_ps(&self) -> &Histogram {
        &self.msg_latency_ps
    }

    /// Latest virtual time seen in any event.
    pub fn finish_ps(&self) -> u64 {
        self.finish_ps
    }

    /// Render the report. `horizon_ps` bounds utilisation fractions; pass
    /// the run's finish time (or 0 to use the latest event time seen).
    pub fn report(&self, horizon_ps: u64) -> MetricsReport {
        let horizon = if horizon_ps == 0 {
            self.finish_ps
        } else {
            horizon_ps
        };

        let mut summary = Table::new(["metric", "value"]).with_title("Run summary");
        summary.row(["finish time (ps)".to_string(), self.finish_ps.to_string()]);
        summary.row(["engine deliveries".to_string(), self.deliveries.to_string()]);
        summary.row([
            "messages delivered".to_string(),
            self.msg_latency_ps.count().to_string(),
        ]);
        if let Some(mean) = self.msg_latency_ps.mean() {
            summary.row(["mean msg latency (ps)".to_string(), format!("{mean:.0}")]);
            let p95 = self.msg_latency_ps.percentile(0.95).unwrap_or(0);
            summary.row(["p95 msg latency (ps)".to_string(), p95.to_string()]);
        }

        let mut counters = Table::new(["counter", "value"]).with_title("Component counters");
        for (name, value) in self.counters().iter() {
            counters.row([name.to_string(), value.to_string()]);
        }

        let mut links = Table::new(["resource", "busy (ps)", "intervals", "util %"])
            .with_title("Link / bus occupancy");
        let mut row = |name: String, u: &Utilization| {
            links.row([
                name,
                u.busy_ps().to_string(),
                u.intervals().to_string(),
                format!("{:.1}", 100.0 * u.fraction(horizon)),
            ]);
        };
        let mut link_util: Vec<_> = self.link_util.iter().collect();
        link_util.sort_unstable_by_key(|&(&link, _)| link);
        for (&(node, to), u) in link_util {
            row(format!("link {node}->{to}"), u);
        }
        let mut bus_util: Vec<_> = self.bus_util.iter().collect();
        bus_util.sort_unstable_by_key(|&(&node, _)| node);
        for (&node, u) in bus_util {
            row(format!("bus {node}"), u);
        }

        MetricsReport {
            summary,
            counters,
            occupancy: links,
            latency_chart: if self.msg_latency_ps.count() > 0 {
                Some(chart::histogram_chart(&self.msg_latency_ps, 40))
            } else {
                None
            },
        }
    }
}

impl Probe for MetricsAggregator {
    fn record(&mut self, ev: &SimEvent) {
        self.finish_ps = self.finish_ps.max(ev.ts_ps());
        match *ev {
            SimEvent::EngineDelivery { .. } => self.deliveries += 1,
            SimEvent::QueueTier { kind, total, .. } => {
                let i = kind as usize;
                let delta = total.saturating_sub(self.last_tier[i]);
                self.last_tier[i] = total;
                self.add(Key::Tier(kind), delta);
            }
            SimEvent::Activation {
                node,
                kind,
                start_ps,
                end_ps,
            } => {
                self.add_at(node, Key::ActivePs(kind), end_ps.saturating_sub(start_ps));
                self.finish_ps = self.finish_ps.max(end_ps);
            }
            SimEvent::MsgSend {
                src, bytes, sync, ..
            } => {
                self.add_at(src, Key::Sends, 1);
                self.add(Key::BytesSent, bytes as u64);
                if sync {
                    self.add(Key::SyncSends, 1);
                }
            }
            SimEvent::MsgDeliver {
                dst, latency_ps, ..
            } => {
                self.add_at(dst, Key::Recvs, 1);
                self.add(Key::Messages, 1);
                self.msg_latency_ps.record(latency_ps);
            }
            SimEvent::MsgPath {
                overhead_ps,
                retry_ps,
                queue_ps,
                routing_ps,
                ser_ps,
                wire_ps,
                ..
            } => {
                let parts = [overhead_ps, retry_ps, queue_ps, routing_ps, ser_ps, wire_ps];
                for (part, ps) in parts.into_iter().enumerate() {
                    self.add(Key::LatencyPs(part), ps);
                }
            }
            SimEvent::LinkBusy {
                node,
                to,
                start_ps,
                end_ps,
            } => {
                self.link_util
                    .entry((node, to))
                    .or_default()
                    .record(start_ps, end_ps);
                self.finish_ps = self.finish_ps.max(end_ps);
            }
            SimEvent::PacketForward { node, packets, .. } => {
                self.add_at(node, Key::PktsForwarded, packets as u64);
            }
            SimEvent::PacketDeliver { node, packets, .. } => {
                self.add_at(node, Key::PktsDelivered, packets as u64);
            }
            SimEvent::CacheAccess {
                node, kind, hit, ..
            } => {
                self.add_at(node, Key::Access(kind), 1);
                self.add_at(node, Key::Hit(hit), 1);
                if hit.is_miss() {
                    self.add_at(node, Key::Misses, 1);
                }
            }
            SimEvent::CacheEvict {
                node, level, dirty, ..
            } => {
                self.add_at(node, Key::Evict(level), 1);
                if dirty {
                    self.add_at(node, Key::Writebacks, 1);
                }
            }
            SimEvent::BusTransaction {
                node,
                start_ps,
                end_ps,
                wait_ps,
            } => {
                self.bus_util
                    .entry(node)
                    .or_default()
                    .record(start_ps, end_ps);
                self.add_at(node, Key::BusWaitPs, wait_ps);
                self.finish_ps = self.finish_ps.max(end_ps);
            }
            SimEvent::LinkFault { up, .. } => self.add(Key::LinkFault(up), 1),
            SimEvent::RouterFault { up, .. } => self.add(Key::RouterFault(up), 1),
            SimEvent::PacketDropped { node, reason, .. } => {
                self.add_at(node, Key::PktsDropped, 1);
                self.add(Key::Dropped(reason), 1);
            }
            SimEvent::PacketCorrupted { .. } => self.add(Key::Corrupted, 1),
            SimEvent::MsgRetry { src, .. } => {
                self.add_at(src, Key::Retries, 1);
                self.add(Key::NetRetries, 1);
            }
            SimEvent::MsgGaveUp { src, .. } => {
                self.add_at(src, Key::GaveUp, 1);
                self.add(Key::MsgsFailed, 1);
            }
            SimEvent::Reroute { node, .. } => {
                self.add_at(node, Key::Reroutes, 1);
                self.add(Key::NetReroutes, 1);
            }
        }
    }
}

/// The rendered post-mortem report: ASCII tables for humans,
/// CSV through `stats::csv` for scripts.
pub struct MetricsReport {
    /// Headline figures for the run.
    pub summary: Table,
    /// Every aggregated counter, in sorted key order.
    pub counters: Table,
    /// Per-link and per-bus occupancy.
    pub occupancy: Table,
    /// ASCII latency histogram, when any message was delivered.
    pub latency_chart: Option<String>,
}

impl MetricsReport {
    /// Render the full text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.summary.render());
        out.push('\n');
        out.push_str(&self.counters.render());
        if !self.occupancy.is_empty() {
            out.push('\n');
            out.push_str(&self.occupancy.render());
        }
        if let Some(chart) = &self.latency_chart {
            out.push('\n');
            out.push_str("Message latency (ps, log2 buckets)\n");
            out.push_str(chart);
        }
        out
    }

    /// The counter table as CSV (`counter,value` rows).
    pub fn to_csv(&self) -> String {
        self.counters.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, ActKind, HitWhere};

    #[test]
    fn aggregates_counters_utilisation_and_latency() {
        let mut m = MetricsAggregator::new();
        m.record(&SimEvent::EngineDelivery {
            ts_ps: 10,
            src: 0,
            dst: 1,
            pending: 4,
        });
        m.record(&SimEvent::MsgSend {
            ts_ps: 10,
            src: 0,
            dst: 1,
            bytes: 100,
            sync: true,
        });
        m.record(&SimEvent::MsgDeliver {
            ts_ps: 1_010,
            src: 0,
            dst: 1,
            bytes: 100,
            latency_ps: 1_000,
        });
        m.record(&SimEvent::LinkBusy {
            node: 0,
            to: 1,
            start_ps: 10,
            end_ps: 510,
        });
        m.record(&SimEvent::BusTransaction {
            node: 1,
            start_ps: 0,
            end_ps: 200,
            wait_ps: 50,
        });
        m.record(&SimEvent::CacheAccess {
            ts_ps: 20,
            node: 1,
            cpu: 0,
            kind: AccessKind::Read,
            hit: HitWhere::Dram,
        });
        m.record(&SimEvent::Activation {
            node: 0,
            kind: ActKind::Compute,
            start_ps: 0,
            end_ps: 900,
        });
        assert_eq!(m.counters().get("node0/sends"), 1);
        assert_eq!(m.counters().get("node1/recvs"), 1);
        assert_eq!(m.counters().get("net/bytes_sent"), 100);
        assert_eq!(m.counters().get("mem1/misses"), 1);
        assert_eq!(m.counters().get("node0/compute_ps"), 900);
        assert_eq!(m.msg_latency_ps().count(), 1);
        assert_eq!(m.finish_ps(), 1_010);

        let report = m.report(1_000);
        let text = report.render();
        assert!(text.contains("Run summary"));
        assert!(text.contains("link 0->1"));
        assert!(text.contains("bus 1"));
        assert!(text.contains("50.0"), "500/1000 = 50% link util: {text}");
        let csv = report.to_csv();
        assert!(csv.starts_with("counter,value\n"));
        assert!(csv.contains("node0/sends,1"));
        assert!(csv.contains("engine/deliveries,1"));
    }

    #[test]
    fn key_slots_index_the_key_lists() {
        for keys in [&NODE_KEYS, &RUN_KEYS] {
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(key.slot(), i, "{key:?}");
            }
        }
    }

    #[test]
    fn tier_totals_become_deltas() {
        let mut m = MetricsAggregator::new();
        m.record(&SimEvent::QueueTier {
            ts_ps: 1,
            kind: TierMove::Promotion,
            total: 3,
        });
        m.record(&SimEvent::QueueTier {
            ts_ps: 2,
            kind: TierMove::Promotion,
            total: 5,
        });
        assert_eq!(m.counters().get("queue/promotion"), 5);
    }
}
