//! Bottleneck attribution: folds the probe event stream into "where did
//! the time go?" evidence — per-link/per-router utilization timelines,
//! per-message latency decomposition, and hotspot rankings.
//!
//! # Order insensitivity
//!
//! A serial run records events in emission order; a sharded run replays
//! the canonically sorted merge of its per-shard buffers. Both streams
//! are the same *multiset*, so every fold in this sink is commutative
//! (histogram buckets, integer sums, keyed interval bags sorted at
//! report time) and the rendered report — including the serialised
//! `attribution.json` — is byte-identical between the two. The
//! conformance suite asserts exactly that.
//!
//! # Integer-only JSON
//!
//! `attribution.json` carries picoseconds and parts-per-million as
//! exact `u64`s — no floats — so byte comparison is meaningful across
//! platforms.

use crate::value_json::{kv, u, Raw};
use crate::{Probe, SimEvent};
use mermaid_stats::state::StateWalk;
use mermaid_stats::table::Align;
use mermaid_stats::{chart, rank, timeline, Histogram, Table, Utilization};
use serde::Value;
use std::collections::BTreeMap;

/// Buckets in a utilization timeline (also the heatmap width).
pub const TIMELINE_BUCKETS: usize = 48;

/// Rows in the hotspot tables and the heatmap.
pub const TOP_K: usize = 8;

/// The latency components of a delivered message, in fixed order.
const COMPONENTS: [&str; 6] = ["overhead", "retry", "queue", "routing", "ser", "wire"];

/// Streaming attribution sink: attach via `ProbeStack::with_attribution`.
pub struct AttributionSink {
    /// Delivered messages seen (one `MsgPath` each).
    msgs: u64,
    /// End-to-end latency distribution.
    latency: Histogram,
    /// Per-component latency distributions, indexed like [`COMPONENTS`].
    comp_hist: [Histogram; 6],
    /// Per-component exact totals, indexed like [`COMPONENTS`].
    comp_total: [u64; 6],
    /// Busy intervals per directed link, unordered until report time.
    link_busy: BTreeMap<(u32, u32), Vec<(u64, u64)>>,
    /// Packets forwarded per router.
    fwd: BTreeMap<u32, u64>,
    /// Packets delivered to the local processor per router.
    delivered: BTreeMap<u32, u64>,
    /// Fault-layer counts.
    dropped: u64,
    corrupted: u64,
    retries: u64,
    gave_up: u64,
    reroutes: u64,
    /// Latest event time seen (fallback horizon).
    finish_ps: u64,
}

impl Default for AttributionSink {
    fn default() -> Self {
        AttributionSink::new()
    }
}

impl AttributionSink {
    /// An empty sink.
    pub fn new() -> Self {
        let mk = Histogram::log2;
        AttributionSink {
            msgs: 0,
            latency: mk(),
            comp_hist: [mk(), mk(), mk(), mk(), mk(), mk()],
            comp_total: [0; 6],
            link_busy: BTreeMap::new(),
            fwd: BTreeMap::new(),
            delivered: BTreeMap::new(),
            dropped: 0,
            corrupted: 0,
            retries: 0,
            gave_up: 0,
            reroutes: 0,
            finish_ps: 0,
        }
    }

    /// Messages attributed so far.
    pub fn messages(&self) -> u64 {
        self.msgs
    }

    /// Build the report. `horizon_ps` bounds utilization fractions and
    /// the timeline span; pass the run's finish time (0 falls back to the
    /// latest event time seen). For serial-vs-sharded byte identity the
    /// caller must pass the same horizon on both sides — the predicted
    /// finish time is, by the sharding contract, identical.
    pub fn report(&self, horizon_ps: u64) -> AttributionReport {
        let horizon = if horizon_ps == 0 {
            self.finish_ps
        } else {
            horizon_ps
        };
        let bucket_ps = timeline::bucket_width(horizon, TIMELINE_BUCKETS);

        // Per-link: sort the interval bags (making the fold independent
        // of observation order), then derive busy totals and timelines.
        let mut links: Vec<LinkAttr> = Vec::with_capacity(self.link_busy.len());
        for (&(node, to), bag) in &self.link_busy {
            let mut iv = bag.clone();
            iv.sort_unstable();
            let mut util = Utilization::new();
            for &(s, e) in &iv {
                util.record(s, e);
            }
            links.push(LinkAttr {
                node,
                to,
                busy_ps: util.busy_ps(),
                intervals: util.intervals(),
                util_ppm: rank::share_ppm(util.busy_ps(), horizon),
                timeline: timeline::bucketize(&iv, bucket_ps, TIMELINE_BUCKETS),
            });
        }

        // Per-router: outgoing-link activity folded per source node.
        let mut routers: BTreeMap<u32, RouterAttr> = BTreeMap::new();
        for l in &links {
            let r = routers.entry(l.node).or_insert_with(|| RouterAttr {
                node: l.node,
                busy_ps: 0,
                links_out: 0,
                pkts_forwarded: 0,
                pkts_delivered: 0,
                util_ppm: 0,
                timeline: vec![0; TIMELINE_BUCKETS],
            });
            r.busy_ps += l.busy_ps;
            r.links_out += 1;
            r.timeline = timeline::merge(&[&r.timeline, &l.timeline]);
        }
        for (&node, &n) in &self.fwd {
            routers.entry(node).or_insert_with(|| RouterAttr {
                node,
                busy_ps: 0,
                links_out: 0,
                pkts_forwarded: 0,
                pkts_delivered: 0,
                util_ppm: 0,
                timeline: vec![0; TIMELINE_BUCKETS],
            });
            routers
                .get_mut(&node)
                .expect("just inserted")
                .pkts_forwarded = n;
        }
        for (&node, &n) in &self.delivered {
            if let Some(r) = routers.get_mut(&node) {
                r.pkts_delivered = n;
            }
        }
        for r in routers.values_mut() {
            // A router with k active output links can be "busy" up to
            // k × horizon; normalise so 1e6 ppm means all its links
            // saturated.
            let span = horizon.saturating_mul(r.links_out.max(1));
            r.util_ppm = rank::share_ppm(r.busy_ps, span);
        }

        AttributionReport {
            horizon_ps: horizon,
            bucket_ps,
            messages: self.msgs,
            latency: self.latency.clone(),
            comp_hist: self.comp_hist.clone(),
            comp_total: self.comp_total,
            links,
            routers: routers.into_values().collect(),
            dropped: self.dropped,
            corrupted: self.corrupted,
            retries: self.retries,
            gave_up: self.gave_up,
            reroutes: self.reroutes,
        }
    }

    /// Walk the sink's full state for a checkpoint snapshot's `attr`
    /// record. Interval bags are walked *sorted* — they are declared
    /// order-free until report time (module docs), so the capture is
    /// canonical: a serial run's live sink and a sharded run's
    /// buffer-replayed sink produce the same integers at the same instant.
    /// Restore overwrites every field, so it may walk into any sink.
    pub fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        w.field("the message count", &mut self.msgs)?;
        self.latency.walk(w)?;
        for h in &mut self.comp_hist {
            h.walk(w)?;
        }
        for t in &mut self.comp_total {
            w.field("a component total", t)?;
        }
        w.sorted(
            "the link-interval bag count",
            &mut self.link_busy,
            |w, ((node, to), bag)| {
                w.field("a link's source node", node)?;
                w.field("a link's destination node", to)?;
                w.sorted("a link's interval count", bag, |w, (s, e)| {
                    w.field("a busy-interval start", s)?;
                    w.field("a busy-interval end", e)
                })
            },
        )?;
        for (what, map) in [
            ("the forwarded-count map size", &mut self.fwd),
            ("the delivered-count map size", &mut self.delivered),
        ] {
            w.sorted(what, map, |w, (node, count)| {
                w.field("a router id", node)?;
                w.field("a packet count", count)
            })?;
        }
        w.field("the dropped count", &mut self.dropped)?;
        w.field("the corrupted count", &mut self.corrupted)?;
        w.field("the retry count", &mut self.retries)?;
        w.field("the gave-up count", &mut self.gave_up)?;
        w.field("the reroute count", &mut self.reroutes)?;
        w.field("the fallback horizon", &mut self.finish_ps)
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    #[test]
    fn engine_internal_events_do_not_move_the_horizon() {
        let mut sink = AttributionSink::new();
        sink.record(&SimEvent::EngineDelivery {
            ts_ps: 9_999,
            src: 0,
            dst: 1,
            pending: 3,
        });
        assert_eq!(sink.report(0).horizon_ps, 0);
    }
}

impl Probe for AttributionSink {
    fn record(&mut self, ev: &SimEvent) {
        // Engine-internal events (scheduler deliveries, ladder moves)
        // describe the simulator, not the simulated machine — no fold
        // below matches them, and skipping them entirely keeps the sink's
        // state (including the `finish_ps` fallback horizon) identical
        // between a serial run and a replayed shard merge, which is what
        // lets checkpoint snapshots carry one canonical attribution
        // record for both modes.
        if ev.is_engine_internal() {
            return;
        }
        self.finish_ps = self.finish_ps.max(ev.ts_ps());
        match *ev {
            SimEvent::MsgPath {
                latency_ps,
                overhead_ps,
                retry_ps,
                queue_ps,
                routing_ps,
                ser_ps,
                wire_ps,
                ..
            } => {
                self.msgs += 1;
                self.latency.record(latency_ps);
                for (i, v) in [overhead_ps, retry_ps, queue_ps, routing_ps, ser_ps, wire_ps]
                    .into_iter()
                    .enumerate()
                {
                    self.comp_hist[i].record(v);
                    self.comp_total[i] += v;
                }
            }
            SimEvent::LinkBusy {
                node,
                to,
                start_ps,
                end_ps,
            } => {
                self.link_busy
                    .entry((node, to))
                    .or_default()
                    .push((start_ps, end_ps));
                self.finish_ps = self.finish_ps.max(end_ps);
            }
            SimEvent::PacketForward { node, packets, .. } => {
                *self.fwd.entry(node).or_default() += packets as u64;
            }
            SimEvent::PacketDeliver { node, packets, .. } => {
                *self.delivered.entry(node).or_default() += packets as u64;
            }
            SimEvent::PacketDropped { .. } => self.dropped += 1,
            SimEvent::PacketCorrupted { .. } => self.corrupted += 1,
            SimEvent::MsgRetry { .. } => self.retries += 1,
            SimEvent::MsgGaveUp { .. } => self.gave_up += 1,
            SimEvent::Reroute { .. } => self.reroutes += 1,
            _ => {}
        }
    }
}

/// One directed link's attribution record.
#[derive(Debug, Clone)]
pub struct LinkAttr {
    /// Source router.
    pub node: u32,
    /// Destination router.
    pub to: u32,
    /// Total busy picoseconds.
    pub busy_ps: u64,
    /// Busy intervals recorded.
    pub intervals: u64,
    /// Busy fraction of the horizon, parts per million.
    pub util_ppm: u64,
    /// Busy picoseconds per timeline bucket.
    pub timeline: Vec<u64>,
}

impl LinkAttr {
    /// `"src->dst"` display label.
    pub fn label(&self) -> String {
        format!("{}->{}", self.node, self.to)
    }
}

/// One router's attribution record (its outgoing links folded together).
#[derive(Debug, Clone)]
pub struct RouterAttr {
    /// Router / node id.
    pub node: u32,
    /// Sum of outgoing-link busy picoseconds.
    pub busy_ps: u64,
    /// Outgoing links that saw any traffic.
    pub links_out: u64,
    /// Packets this router forwarded onward.
    pub pkts_forwarded: u64,
    /// Packets this router delivered to its processor.
    pub pkts_delivered: u64,
    /// `busy_ps` over `links_out × horizon`, parts per million.
    pub util_ppm: u64,
    /// Summed busy picoseconds per timeline bucket.
    pub timeline: Vec<u64>,
}

/// The finished attribution analysis: renders the human tables/heatmap
/// and the machine-readable JSON.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Horizon the utilizations are normalised to.
    pub horizon_ps: u64,
    /// Width of one timeline bucket.
    pub bucket_ps: u64,
    /// Delivered messages attributed.
    pub messages: u64,
    /// End-to-end latency distribution.
    pub latency: Histogram,
    comp_hist: [Histogram; 6],
    comp_total: [u64; 6],
    /// Per-link records in `(node, to)` order.
    pub links: Vec<LinkAttr>,
    /// Per-router records in node order.
    pub routers: Vec<RouterAttr>,
    dropped: u64,
    corrupted: u64,
    retries: u64,
    gave_up: u64,
    reroutes: u64,
}

fn fmt_ppm_pct(ppm: u64) -> String {
    // ppm → percent with one decimal, in pure integer arithmetic.
    let tenths = ppm / 1_000; // 1e6 ppm = 100.0% = 1000 tenths
    format!("{}.{}", tenths / 10, tenths % 10)
}

fn fmt_ppm_ratio(ppm: u64) -> String {
    // ppm → "N.NNx" vs-mean ratio, integer arithmetic.
    let hundredths = ppm / 10_000;
    format!("{}.{:02}x", hundredths / 100, hundredths % 100)
}

impl AttributionReport {
    /// Sum of all component totals (equals the sum of message latencies).
    pub fn total_ps(&self) -> u64 {
        self.comp_total.iter().sum()
    }

    /// `(name, total_ps, share_ppm, p50, p90, p99)` per component.
    pub fn components(&self) -> Vec<(&'static str, u64, u64, u64, u64, u64)> {
        let whole = self.total_ps();
        COMPONENTS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let h = &self.comp_hist[i];
                (
                    *name,
                    self.comp_total[i],
                    rank::share_ppm(self.comp_total[i], whole),
                    h.percentile(50.0).unwrap_or(0),
                    h.percentile(90.0).unwrap_or(0),
                    h.percentile(99.0).unwrap_or(0),
                )
            })
            .collect()
    }

    /// The latency-decomposition table.
    pub fn decomposition_table(&self) -> Table {
        let mut t = Table::new(["component", "total (ps)", "share %", "p50", "p90", "p99"])
            .with_title(format!(
                "Latency decomposition: {} message(s), components sum to end-to-end latency",
                self.messages
            ))
            .with_aligns(vec![
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
        for (name, total, share, p50, p90, p99) in self.components() {
            t.row([
                name.to_string(),
                total.to_string(),
                fmt_ppm_pct(share),
                p50.to_string(),
                p90.to_string(),
                p99.to_string(),
            ]);
        }
        t
    }

    /// The top-K busiest links, with vs-mean ratios.
    pub fn hot_links_table(&self) -> Table {
        let total: u64 = self.links.iter().map(|l| l.busy_ps).sum();
        let n = self.links.len() as u64;
        let top = rank::top_k(
            self.links.iter().map(|l| ((l.node, l.to), l.busy_ps)),
            TOP_K,
        );
        let mut t = Table::new(["rank", "link", "busy (ps)", "util %", "vs mean"])
            .with_title(format!("Hottest links (of {n} active)"))
            .with_aligns(vec![
                Align::Right,
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
        for (i, ((node, to), busy)) in top.iter().enumerate() {
            let l = self
                .links
                .iter()
                .find(|l| l.node == *node && l.to == *to)
                .expect("ranked link exists");
            t.row([
                (i + 1).to_string(),
                l.label(),
                busy.to_string(),
                fmt_ppm_pct(l.util_ppm),
                fmt_ppm_ratio(rank::vs_mean_ppm(*busy, total, n)),
            ]);
        }
        t
    }

    /// The top-K busiest routers, with vs-mean ratios.
    pub fn hot_routers_table(&self) -> Table {
        let total: u64 = self.routers.iter().map(|r| r.busy_ps).sum();
        let n = self.routers.len() as u64;
        let top = rank::top_k(self.routers.iter().map(|r| (r.node, r.busy_ps)), TOP_K);
        let mut t = Table::new([
            "rank",
            "router",
            "busy (ps)",
            "fwd",
            "dlvr",
            "util %",
            "vs mean",
        ])
        .with_title(format!("Hottest routers (of {n} active)"))
        .with_aligns(vec![
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for (i, (node, busy)) in top.iter().enumerate() {
            let r = self
                .routers
                .iter()
                .find(|r| r.node == *node)
                .expect("ranked router exists");
            t.row([
                (i + 1).to_string(),
                node.to_string(),
                busy.to_string(),
                r.pkts_forwarded.to_string(),
                r.pkts_delivered.to_string(),
                fmt_ppm_pct(r.util_ppm),
                fmt_ppm_ratio(rank::vs_mean_ppm(*busy, total, n)),
            ]);
        }
        t
    }

    /// ASCII utilization heatmap of the top-K busiest links over time
    /// (one row per link, one column per bucket).
    pub fn heatmap(&self) -> String {
        let top = rank::top_k(
            self.links.iter().map(|l| ((l.node, l.to), l.busy_ps)),
            TOP_K,
        );
        let rows: Vec<(String, Vec<u64>)> = top
            .iter()
            .map(|((node, to), _)| {
                let l = self
                    .links
                    .iter()
                    .find(|l| l.node == *node && l.to == *to)
                    .expect("ranked link exists");
                (l.label(), l.timeline.clone())
            })
            .collect();
        chart::heatmap(&rows)
    }

    /// Render the full human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.decomposition_table().render());
        if let (Some(p50), Some(p99), Some(max)) = (
            self.latency.percentile(50.0),
            self.latency.percentile(99.0),
            self.latency.max(),
        ) {
            out.push_str(&format!(
                "end-to-end latency: p50 ~{p50} ps, p99 ~{p99} ps, max {max} ps\n"
            ));
        }
        if !self.links.is_empty() {
            out.push('\n');
            out.push_str(&self.hot_links_table().render());
            out.push('\n');
            out.push_str(&self.hot_routers_table().render());
            out.push('\n');
            out.push_str(&format!(
                "Link utilization heatmap (top {} links, {} buckets of {} ps):\n",
                TOP_K.min(self.links.len()),
                TIMELINE_BUCKETS,
                self.bucket_ps
            ));
            out.push_str(&self.heatmap());
        }
        if self.dropped + self.retries + self.gave_up + self.reroutes + self.corrupted > 0 {
            out.push_str(&format!(
                "\nfault activity: {} drop(s), {} corrupted, {} retransmission(s), \
                 {} gave up, {} reroute(s)\n",
                self.dropped, self.corrupted, self.retries, self.gave_up, self.reroutes
            ));
        }
        out
    }

    /// The machine-readable `attribution.json` document. Integers only
    /// (picoseconds and parts-per-million), rendered deterministically.
    pub fn to_json(&self) -> String {
        let mut comps = Vec::new();
        for (name, total, share, p50, p90, p99) in self.components() {
            comps.push(Value::Map(vec![
                kv("name", crate::value_json::s(name)),
                kv("total_ps", u(total)),
                kv("share_ppm", u(share)),
                kv("p50_ps", u(p50)),
                kv("p90_ps", u(p90)),
                kv("p99_ps", u(p99)),
            ]));
        }
        let links = self
            .links
            .iter()
            .map(|l| {
                Value::Map(vec![
                    kv("node", u(l.node as u64)),
                    kv("to", u(l.to as u64)),
                    kv("busy_ps", u(l.busy_ps)),
                    kv("intervals", u(l.intervals)),
                    kv("util_ppm", u(l.util_ppm)),
                    kv(
                        "timeline_busy_ps",
                        Value::Seq(l.timeline.iter().map(|&v| u(v)).collect()),
                    ),
                ])
            })
            .collect();
        let routers = self
            .routers
            .iter()
            .map(|r| {
                Value::Map(vec![
                    kv("node", u(r.node as u64)),
                    kv("busy_ps", u(r.busy_ps)),
                    kv("links_out", u(r.links_out)),
                    kv("pkts_forwarded", u(r.pkts_forwarded)),
                    kv("pkts_delivered", u(r.pkts_delivered)),
                    kv("util_ppm", u(r.util_ppm)),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            kv("schema", crate::value_json::s("mermaid-attribution-v1")),
            kv("horizon_ps", u(self.horizon_ps)),
            kv("bucket_ps", u(self.bucket_ps)),
            kv("buckets", u(TIMELINE_BUCKETS as u64)),
            kv("messages", u(self.messages)),
            kv(
                "latency",
                Value::Map(vec![
                    kv("sum_ps", u(self.latency.sum())),
                    kv("p50_ps", u(self.latency.percentile(50.0).unwrap_or(0))),
                    kv("p90_ps", u(self.latency.percentile(90.0).unwrap_or(0))),
                    kv("p99_ps", u(self.latency.percentile(99.0).unwrap_or(0))),
                    kv("max_ps", u(self.latency.max().unwrap_or(0))),
                ]),
            ),
            kv("components", Value::Seq(comps)),
            kv("links", Value::Seq(links)),
            kv("routers", Value::Seq(routers)),
            kv(
                "faults",
                Value::Map(vec![
                    kv("dropped", u(self.dropped)),
                    kv("corrupted", u(self.corrupted)),
                    kv("retries", u(self.retries)),
                    kv("gave_up", u(self.gave_up)),
                    kv("reroutes", u(self.reroutes)),
                ]),
            ),
        ]);
        serde_json::to_string(&Raw(doc)).expect("attribution document is all integers")
    }

    /// Headline figures for campaign records: the dominant component and
    /// the busiest link. `(dominant_name, dominant_share_ppm,
    /// max_link_util_ppm)`.
    pub fn headline(&self) -> (&'static str, u64, u64) {
        let comps = self.components();
        let (name, _, share) = comps
            .iter()
            .map(|&(n, t, s, ..)| (n, t, s))
            .max_by_key(|&(n, t, _)| (t, std::cmp::Reverse(n)))
            .unwrap_or(("overhead", 0, 0));
        let max_link = self.links.iter().map(|l| l.util_ppm).max().unwrap_or(0);
        (name, share, max_link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_event(latency: u64, queue: u64, wire: u64) -> SimEvent {
        SimEvent::MsgPath {
            ts_ps: latency,
            src: 0,
            dst: 1,
            bytes: 64,
            latency_ps: latency,
            overhead_ps: latency - queue - wire,
            retry_ps: 0,
            queue_ps: queue,
            routing_ps: 0,
            ser_ps: 0,
            wire_ps: wire,
        }
    }

    #[test]
    fn folds_are_order_insensitive() {
        let events = vec![
            path_event(1_000, 300, 200),
            path_event(2_000, 900, 400),
            SimEvent::LinkBusy {
                node: 0,
                to: 1,
                start_ps: 100,
                end_ps: 400,
            },
            SimEvent::LinkBusy {
                node: 0,
                to: 1,
                start_ps: 500,
                end_ps: 600,
            },
            SimEvent::PacketForward {
                ts_ps: 100,
                node: 0,
                to: 1,
                packets: 2,
            },
        ];
        let mut fwd = AttributionSink::new();
        let mut rev = AttributionSink::new();
        for ev in &events {
            fwd.record(ev);
        }
        for ev in events.iter().rev() {
            rev.record(ev);
        }
        assert_eq!(fwd.report(2_000).to_json(), rev.report(2_000).to_json());
    }

    #[test]
    fn components_conserve_latency() {
        let mut sink = AttributionSink::new();
        sink.record(&path_event(1_000, 300, 200));
        sink.record(&path_event(2_000, 900, 400));
        let r = sink.report(0);
        assert_eq!(r.messages, 2);
        assert_eq!(r.total_ps(), 3_000, "components sum to latency sum");
        assert_eq!(r.latency.sum(), 3_000);
    }

    #[test]
    fn report_renders_tables_heatmap_and_json() {
        let mut sink = AttributionSink::new();
        sink.record(&path_event(1_000, 300, 200));
        sink.record(&SimEvent::LinkBusy {
            node: 0,
            to: 1,
            start_ps: 0,
            end_ps: 500,
        });
        sink.record(&SimEvent::LinkBusy {
            node: 1,
            to: 2,
            start_ps: 0,
            end_ps: 100,
        });
        sink.record(&SimEvent::PacketForward {
            ts_ps: 0,
            node: 0,
            to: 1,
            packets: 1,
        });
        let r = sink.report(1_000);
        let text = r.render();
        assert!(text.contains("Latency decomposition"), "{text}");
        assert!(text.contains("Hottest links"), "{text}");
        assert!(text.contains("0->1"), "{text}");
        assert!(text.contains("50.0"), "500/1000 = 50% util: {text}");
        let json = r.to_json();
        assert!(json.contains("\"schema\":\"mermaid-attribution-v1\""));
        assert!(json.contains("\"util_ppm\":500000"));
        assert!(!json.contains('.'), "attribution.json is integer-only");
        // Busiest link ranks first and is 500/300-vs-mean ≈ 1.66x.
        let (dom, _, max_link) = r.headline();
        assert_eq!(dom, "overhead");
        assert_eq!(max_link, 500_000);
    }

    #[test]
    fn empty_sink_reports_cleanly() {
        let r = AttributionSink::new().report(0);
        assert_eq!(r.messages, 0);
        assert_eq!(r.total_ps(), 0);
        let text = r.render();
        assert!(text.contains("0 message(s)"));
        let json = r.to_json();
        assert!(json.contains("\"messages\":0"));
        assert_eq!(r.headline().1, 0);
    }

    #[test]
    fn retry_component_is_tracked_separately() {
        let mut sink = AttributionSink::new();
        sink.record(&SimEvent::MsgPath {
            ts_ps: 10,
            src: 0,
            dst: 1,
            bytes: 8,
            latency_ps: 5_000,
            overhead_ps: 0,
            retry_ps: 4_000,
            queue_ps: 0,
            routing_ps: 500,
            ser_ps: 300,
            wire_ps: 200,
        });
        sink.record(&SimEvent::MsgRetry {
            ts_ps: 5,
            src: 0,
            dst: 1,
            attempt: 1,
        });
        let r = sink.report(0);
        assert_eq!(r.total_ps(), 5_000);
        let comps = r.components();
        let retry = comps.iter().find(|c| c.0 == "retry").unwrap();
        assert_eq!(retry.1, 4_000);
        assert_eq!(retry.2, 800_000, "4/5 of the time went to recovery");
        assert_eq!(r.headline().0, "retry");
        assert!(r.to_json().contains("\"retries\":1"));
    }
}
