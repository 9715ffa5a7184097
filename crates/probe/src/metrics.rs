//! Metrics aggregation: the post-mortem half of the paper's Section 3.
//!
//! The aggregator folds the probe event stream into the existing
//! `mermaid-stats` primitives — [`Counters`] for event counts,
//! [`Utilization`] for link/bus occupancy, a [`Histogram`] for message
//! latency, and a [`TimeSeries`] sampling engine queue depth — and
//! renders them as a [`MetricsReport`] (ASCII tables plus CSV through
//! `stats::csv`).

use crate::{AccessKind, ActKind, DropReason, HitWhere, Probe, SimEvent, TierMove};
use mermaid_stats::{chart, csv, Counters, Histogram, Table, TimeSeries, Utilization};
use std::collections::BTreeMap;

/// Queue depth is sampled once per this many engine deliveries.
const DEPTH_SAMPLE_EVERY: u64 = 256;

/// What a counter counts. Recording touches counters by this `Copy` key,
/// per node or run-wide; [`Key::name`] spells the registry name when a
/// report is made, so no string is built or compared per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
    Evict(u8),
    Writebacks,
    BusWaitPs,
    // Run-wide.
    Tier(TierMove),
    BytesSent,
    SyncSends,
    Messages,
    LatencyPs(&'static str),
    LinkFault(bool),
    RouterFault(bool),
    Dropped(DropReason),
    Corrupted,
    NetRetries,
    MsgsFailed,
    NetReroutes,
}

impl Key {
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
            Key::LatencyPs(part) => format!("lat/{part}_ps"),
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

/// Folds [`SimEvent`]s into per-component statistics.
pub struct MetricsAggregator {
    /// Per-node counters, indexed by node (the models number nodes
    /// densely from zero).
    per_node: Vec<BTreeMap<Key, u64>>,
    /// Run-wide counters (`engine/deliveries` is `deliveries`).
    run_wide: BTreeMap<Key, u64>,
    msg_latency_ps: Histogram,
    link_util: BTreeMap<(u32, u32), Utilization>,
    bus_util: BTreeMap<u32, Utilization>,
    queue_depth: TimeSeries,
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
            run_wide: BTreeMap::new(),
            msg_latency_ps: Histogram::log2(),
            link_util: BTreeMap::new(),
            bus_util: BTreeMap::new(),
            queue_depth: TimeSeries::new("queue_depth"),
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
        for (&key, &n) in &self.run_wide {
            counters.add(&key.name(0), n);
        }
        for (node, keys) in self.per_node.iter().enumerate() {
            for (&key, &n) in keys {
                counters.add(&key.name(node), n);
            }
        }
        counters
    }

    fn add(&mut self, key: Key, n: u64) {
        *self.run_wide.entry(key).or_default() += n;
    }

    fn add_at(&mut self, node: u32, key: Key, n: u64) {
        let node = node as usize;
        if node >= self.per_node.len() {
            self.per_node.resize_with(node + 1, BTreeMap::new);
        }
        *self.per_node[node].entry(key).or_default() += n;
    }

    /// Message end-to-end latency distribution (picoseconds).
    pub fn msg_latency_ps(&self) -> &Histogram {
        &self.msg_latency_ps
    }

    /// Latest virtual time seen in any event.
    pub fn finish_ps(&self) -> u64 {
        self.finish_ps
    }

    /// The decimated engine queue-depth series.
    pub fn queue_depth(&self) -> &TimeSeries {
        &self.queue_depth
    }

    fn tier_index(kind: TierMove) -> usize {
        match kind {
            TierMove::Promotion => 0,
            TierMove::Rebase => 1,
            TierMove::FarDrain => 2,
        }
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
        for (&(node, to), u) in &self.link_util {
            links.row([
                format!("link {node}->{to}"),
                u.busy_ps().to_string(),
                u.intervals().to_string(),
                format!("{:.1}", 100.0 * u.fraction(horizon)),
            ]);
        }
        for (&node, u) in &self.bus_util {
            links.row([
                format!("bus {node}"),
                u.busy_ps().to_string(),
                u.intervals().to_string(),
                format!("{:.1}", 100.0 * u.fraction(horizon)),
            ]);
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
            queue_depth: self.queue_depth.clone(),
        }
    }
}

impl Probe for MetricsAggregator {
    fn record(&mut self, ev: &SimEvent) {
        self.finish_ps = self.finish_ps.max(ev.ts_ps());
        match *ev {
            SimEvent::EngineDelivery { ts_ps, pending, .. } => {
                self.deliveries += 1;
                if self.deliveries % DEPTH_SAMPLE_EVERY == 1 {
                    self.queue_depth.push(ts_ps, pending as f64);
                }
            }
            SimEvent::QueueTier { kind, total, .. } => {
                let i = Self::tier_index(kind);
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
                self.add(Key::LatencyPs("overhead"), overhead_ps);
                self.add(Key::LatencyPs("retry"), retry_ps);
                self.add(Key::LatencyPs("queue"), queue_ps);
                self.add(Key::LatencyPs("routing"), routing_ps);
                self.add(Key::LatencyPs("ser"), ser_ps);
                self.add(Key::LatencyPs("wire"), wire_ps);
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
    /// Decimated engine queue-depth samples.
    pub queue_depth: TimeSeries,
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

    /// The queue-depth series as CSV (`time_ps,queue_depth`).
    pub fn queue_depth_csv(&self) -> String {
        csv::series_to_csv(&[&self.queue_depth])
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

    #[test]
    fn queue_depth_is_sampled_and_exports_csv() {
        let mut m = MetricsAggregator::new();
        for i in 0..(2 * DEPTH_SAMPLE_EVERY) {
            m.record(&SimEvent::EngineDelivery {
                ts_ps: i * 10,
                src: 0,
                dst: 0,
                pending: i as usize,
            });
        }
        assert_eq!(m.queue_depth().len(), 2);
        let csv = m.report(0).queue_depth_csv();
        assert!(csv.starts_with("time_ps,queue_depth"));
    }
}
