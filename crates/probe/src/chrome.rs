//! Chrome-trace (`chrome://tracing` / Perfetto) JSON export.
//!
//! Emits the JSON Object Format: a top-level object whose `traceEvents`
//! array holds events with `name`, `ph`, `ts`, `pid`, `tid` (and `dur`
//! for complete spans). Virtual picoseconds are mapped to trace
//! microseconds (`ts = ps / 1e6`), so one simulated microsecond reads as
//! one trace microsecond in the viewer.
//!
//! Track layout:
//!
//! | pid | process        | tracks                                        |
//! |-----|----------------|-----------------------------------------------|
//! | 1   | `engine`       | queue-depth counter, ladder-tier instants     |
//! | 2   | `network`      | per-node activation spans + message instants  |
//! | 3   | `links`        | per-node outgoing-link busy spans             |
//! | 4   | `memory`       | per-node cache instants + bus tenure spans    |
//!
//! The exporter also stamps a non-standard top-level `mermaidSummary`
//! object (exact `u64` delivered-message count and finish time in
//! picoseconds); trace viewers ignore unknown keys, and the workspace's
//! end-to-end test uses it to compare a traced run against an untraced
//! one without going through lossy `f64` microseconds.
//!
//! Recording and rendering are separate. [`ChromeTraceSink::record`]
//! copies the events the trace shows into a `Vec<SimEvent>` (80 bytes
//! each) and keeps the running [`TraceSummary`]; nothing is formatted
//! while the simulation runs. [`ChromeTraceSink::write_json`] later
//! streams the document into any `io::Write`, and because the summary —
//! span-order check included — was taken at record time, the writer of a
//! trace never has to parse it back. [`validate_chrome_trace`] is the
//! parsing counterpart, for documents that come from somewhere else.

use crate::value_json::{fields, JsonObj, JsonVal, Micros, Raw};
use crate::{Probe, SimEvent};
use serde::Value;
use std::collections::HashMap;
use std::io;

/// Engine deliveries are decimated to one queue-depth counter sample
/// every this many events, so long runs stay viewable.
const DEPTH_SAMPLE_EVERY: u64 = 64;

const PID_ENGINE: u64 = 1;
const PID_NETWORK: u64 = 2;
const PID_LINKS: u64 = 3;
const PID_MEMORY: u64 = 4;

/// The `process_name` metadata records that lead every document.
const PROCESSES: [(u64, &str); 4] = [
    (PID_ENGINE, "engine"),
    (PID_NETWORK, "network"),
    (PID_LINKS, "links"),
    (PID_MEMORY, "memory"),
];

/// Records the events the trace shows, as the fixed-width [`SimEvent`]s
/// they arrived as (`size_of::<SimEvent>()` bytes each, nothing else per
/// event), and renders them on demand: [`ChromeTraceSink::write_json`]
/// streams the complete document, [`ChromeTraceSink::summary`] says what
/// it will contain without rendering or parsing anything.
#[derive(Default)]
pub struct ChromeTraceSink {
    events: Vec<SimEvent>,
    deliveries: u64,
    msg_delivers: u64,
    max_ts_ps: u64,
    spans: u64,
    counters: u64,
    fault_events: u64,
    /// Last span start (trace microseconds) per `(pid, tid, name)` track;
    /// the name is keyed by the number that distinguishes it on its pid.
    span_clock: HashMap<(u64, u32, u32), f64>,
    /// The first span found starting before its track's previous one.
    scrambled: Option<String>,
}

impl ChromeTraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        ChromeTraceSink::default()
    }

    /// Number of trace events collected so far (excluding metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// What the rendered document contains, counted as events were
    /// recorded — equal to what [`validate_chrome_trace`] finds by parsing
    /// it, including the error for a span that starts before the previous
    /// span of its `(pid, tid, name)` track.
    pub fn summary(&self) -> Result<TraceSummary, String> {
        if let Some(err) = &self.scrambled {
            return Err(err.clone());
        }
        let metadata = PROCESSES.len() as u64;
        let events = self.events.len() as u64;
        Ok(TraceSummary {
            events: metadata + events,
            spans: self.spans,
            instants: events - self.spans - self.counters,
            counters: self.counters,
            metadata,
            fault_events: self.fault_events,
            delivered_messages: Some(self.msg_delivers),
            finish_ps: Some(self.max_ts_ps),
        })
    }

    /// Count one span and check its start against its track's clock;
    /// `name_key` tells the track's names apart on its pid, `name` renders
    /// the one the document will carry.
    fn span(
        &mut self,
        (pid, tid, name_key): (u64, u32, u32),
        start_ps: u64,
        name: impl FnOnce() -> String,
    ) {
        self.spans += 1;
        // The `f64` microseconds the document carries and a parser
        // compares, so both sides order any two starts the same way.
        let ts = start_ps as f64 / 1e6;
        let prev = self.span_clock.insert((pid, tid, name_key), ts);
        if let Some(prev) = prev.filter(|&prev| ts < prev) {
            let i = PROCESSES.len() + self.events.len();
            self.scrambled
                .get_or_insert_with(|| regressing_span(i, &name(), pid, tid as u64, ts, prev));
        }
    }

    /// Stream the complete Chrome-trace JSON document into `w`, byte for
    /// byte what the vendored `serde_json` would emit for the same tree.
    pub fn write_json(&self, w: &mut impl io::Write) -> io::Result<()> {
        // Events are rendered into a scratch string (infallibly) that is
        // handed to `w` in chunks.
        let mut buf = String::new();
        buf.push_str("{\"traceEvents\":[");
        for (i, (pid, name)) in PROCESSES.into_iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let mut o = head(&mut buf, "process_name", "M", 0, pid, 0);
            o.descend("args");
            fields!(o; name);
            o.end();
        }
        for ev in &self.events {
            buf.push(',');
            write_event(&mut buf, ev);
            if buf.len() >= 1 << 16 {
                w.write_all(buf.as_bytes())?;
                buf.clear();
            }
        }
        buf.push_str("],\"displayTimeUnit\":\"ns\",\"mermaidSummary\":");
        let mut o = JsonObj::new(&mut buf);
        o.field("delivered_messages", self.msg_delivers);
        o.field("finish_ps", self.max_ts_ps);
        o.field("engine_deliveries", self.deliveries);
        o.end();
        buf.push('}');
        w.write_all(buf.as_bytes())
    }

    /// Render the complete Chrome-trace JSON document.
    pub fn to_json(&self) -> String {
        let mut doc = Vec::new();
        self.write_json(&mut doc)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(doc).expect("the writer emits UTF-8")
    }
}

impl Probe for ChromeTraceSink {
    fn record(&mut self, ev: &SimEvent) {
        let mut end_ps = ev.ts_ps();
        match *ev {
            SimEvent::EngineDelivery { .. } => {
                self.deliveries += 1;
                if self.deliveries % DEPTH_SAMPLE_EVERY != 1 {
                    // Not sampled, but it still moves the finish time.
                    self.max_ts_ps = self.max_ts_ps.max(end_ps);
                    return;
                }
                self.counters += 1;
            }
            // Hop-level packet traffic is visible via the link spans;
            // per-packet instants would dominate the trace. The metrics
            // aggregator still counts them.
            SimEvent::PacketForward { .. } | SimEvent::PacketDeliver { .. } => return,
            SimEvent::Activation {
                node,
                kind,
                start_ps,
                end_ps: end,
            } => {
                end_ps = end;
                self.span((PID_NETWORK, node, kind as u32), start_ps, || {
                    kind.label().to_string()
                });
            }
            SimEvent::LinkBusy {
                node,
                to,
                start_ps,
                end_ps: end,
            } => {
                end_ps = end;
                self.span((PID_LINKS, node, to), start_ps, || format!("link->{to}"));
            }
            SimEvent::BusTransaction {
                node,
                start_ps,
                end_ps: end,
                ..
            } => {
                end_ps = end;
                self.span((PID_MEMORY, node, 0), start_ps, || "bus".to_string());
            }
            SimEvent::MsgDeliver { .. } => self.msg_delivers += 1,
            _ => {}
        }
        self.fault_events += ev.is_fault() as u64;
        self.max_ts_ps = self.max_ts_ps.max(end_ps);
        self.events.push(*ev);
    }
}

/// Open a trace event: the five keys every phase carries.
fn head<'a>(
    out: &'a mut String,
    name: impl JsonVal,
    ph: &str,
    ts_ps: u64,
    pid: u64,
    tid: u32,
) -> JsonObj<'a> {
    let mut o = JsonObj::new(out);
    o.field("name", name);
    o.field("ph", ph);
    o.field("ts", Micros(ts_ps));
    fields!(o; pid, tid);
    o
}

/// Open a complete span (`ph == "X"`) on track `(pid, tid)`, up to and
/// into its `args`.
fn span<'a>(
    out: &'a mut String,
    name: impl JsonVal,
    (start_ps, end_ps): (u64, u64),
    (pid, tid): (u64, u32),
) -> JsonObj<'a> {
    let mut o = head(out, name, "X", start_ps, pid, tid);
    o.field("dur", Micros(end_ps.saturating_sub(start_ps)));
    o.descend("args");
    o
}

/// Open a thread-scoped instant (`ph == "i"`) on track `(pid, tid)`, up
/// to and into its `args`.
fn instant<'a>(
    out: &'a mut String,
    name: impl JsonVal,
    ts_ps: u64,
    (pid, tid): (u64, u32),
) -> JsonObj<'a> {
    let mut o = head(out, name, "i", ts_ps, pid, tid);
    o.field("s", "t");
    o.descend("args");
    o
}

/// Render one recorded event as its `traceEvents` entry.
fn write_event(out: &mut String, ev: &SimEvent) {
    // One row per variant: the fields it takes from the event, the opener
    // (phase, name, start, track), and which of the fields become `args`,
    // keyed by their own names. Arms after the `;` are spelled out.
    macro_rules! entries {
        (
            $($variant:ident { $($bind:ident),* } => $open:expr => { $($arg:ident),* })*
            ; $($arms:tt)*
        ) => {
            match *ev {
                $(SimEvent::$variant { $($bind,)* .. } => {
                    #[allow(unused_mut)]
                    let mut a = $open;
                    fields!(a; $($arg),*);
                    a.end();
                })*
                $($arms)*
            }
        };
    }
    entries! {
        QueueTier { ts_ps, kind, total } => instant(out, kind, ts_ps, (PID_ENGINE, 0)) => { total }
        Activation { node, kind, start_ps, end_ps }
            => span(out, kind, (start_ps, end_ps), (PID_NETWORK, node)) => {}
        MsgSend { ts_ps, src, dst, bytes, sync }
            => instant(out, "msg_send", ts_ps, (PID_NETWORK, src)) => { dst, bytes, sync }
        MsgDeliver { ts_ps, src, dst, bytes, latency_ps }
            => instant(out, "msg_deliver", ts_ps, (PID_NETWORK, dst)) => { src, bytes, latency_ps }
        MsgPath {
            ts_ps, src, dst, latency_ps,
            overhead_ps, retry_ps, queue_ps, routing_ps, ser_ps, wire_ps
        }
            => instant(out, "msg_path", ts_ps, (PID_NETWORK, dst))
            => { src, latency_ps, overhead_ps, retry_ps, queue_ps, routing_ps, ser_ps, wire_ps }
        LinkBusy { node, to, start_ps, end_ps }
            => span(out, format_args!("link->{to}"), (start_ps, end_ps), (PID_LINKS, node))
            => { to }
        CacheAccess { ts_ps, node, cpu, kind, hit }
            => instant(
                out, format_args!("{}:{}", kind.label(), hit.label()), ts_ps, (PID_MEMORY, node)
            )
            => { cpu }
        CacheEvict { ts_ps, node, cpu, level, dirty }
            => instant(out, "cache_evict", ts_ps, (PID_MEMORY, node)) => { cpu, level, dirty }
        BusTransaction { node, start_ps, end_ps, wait_ps }
            => span(out, "bus", (start_ps, end_ps), (PID_MEMORY, node)) => { wait_ps }
        LinkFault { ts_ps, node, to, up }
            => instant(out, if up { "link_up" } else { "link_down" }, ts_ps, (PID_LINKS, node))
            => { to }
        RouterFault { ts_ps, node, up }
            => instant(
                out, if up { "router_up" } else { "router_down" }, ts_ps, (PID_NETWORK, node)
            )
            => {}
        PacketDropped { ts_ps, node, src, seq, reason }
            => instant(out, format_args!("drop:{}", reason.label()), ts_ps, (PID_NETWORK, node))
            => { src, seq }
        PacketCorrupted { ts_ps, node, to, src, seq }
            => instant(out, "corrupt", ts_ps, (PID_LINKS, node)) => { to, src, seq }
        MsgRetry { ts_ps, src, dst, attempt }
            => instant(out, "msg_retry", ts_ps, (PID_NETWORK, src)) => { dst, attempt }
        MsgGaveUp { ts_ps, src, dst, retries }
            => instant(out, "msg_gave_up", ts_ps, (PID_NETWORK, src)) => { dst, retries }
        Reroute { ts_ps, node, to } => instant(out, "reroute", ts_ps, (PID_NETWORK, node)) => { to }
        ;
        // The one counter track; its sample is a float.
        SimEvent::EngineDelivery { ts_ps, pending, .. } => {
            let mut a = head(out, "pending_events", "C", ts_ps, PID_ENGINE, 0);
            a.descend("args");
            a.field("pending", pending as f64);
            a.end();
        }
        SimEvent::PacketForward { .. } | SimEvent::PacketDeliver { .. } => {
            unreachable!("record() keeps hop-level packet events out of the trace")
        }
    }
}

/// The validator's (and the sink's) report of a scrambled span track.
fn regressing_span(i: usize, name: &str, pid: u64, tid: u64, ts: f64, prev: f64) -> String {
    format!(
        "traceEvents[{i}] span `{name}` on pid {pid} tid {tid} starts at {ts}us, \
         before the previous span at {prev}us"
    )
}

/// What [`validate_chrome_trace`] found in a trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total entries in `traceEvents` (including metadata).
    pub events: u64,
    /// Complete spans (`ph == "X"`).
    pub spans: u64,
    /// Instant events (`ph == "i"`).
    pub instants: u64,
    /// Counter samples (`ph == "C"`).
    pub counters: u64,
    /// Metadata records (`ph == "M"`).
    pub metadata: u64,
    /// Fault-variant events (link/router up/down, corruption, drops,
    /// retries, give-ups, reroutes) — zero for a healthy run.
    pub fault_events: u64,
    /// `mermaidSummary.delivered_messages`, when present.
    pub delivered_messages: Option<u64>,
    /// `mermaidSummary.finish_ps`, when present.
    pub finish_ps: Option<u64>,
}

/// Event names the sink emits only under fault injection.
fn is_fault_event(name: &str) -> bool {
    matches!(
        name,
        "link_down"
            | "link_up"
            | "router_down"
            | "router_up"
            | "corrupt"
            | "msg_retry"
            | "msg_gave_up"
            | "reroute"
    ) || name.starts_with("drop:")
}

fn get<'a>(m: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    serde::map_get(m, key)
}

fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::U64(n) => Some(n),
        Value::I64(n) if n >= 0 => Some(n as u64),
        _ => None,
    }
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_))
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

/// Parse `json` (round-tripping through the vendored `serde_json`) and
/// check it against the Chrome-trace conventions this crate emits: a
/// top-level object with a `traceEvents` array whose entries carry
/// `name`, `ph`, numeric `ts`, and numeric `pid`/`tid`; complete spans
/// additionally carry a numeric `dur` and start in non-decreasing `ts`
/// order within their `(pid, tid, name)` track (the sink emits spans in
/// completion order over a time-sorted event stream, so regressing start
/// times mean a scrambled trace). Instants are exempt: out-of-order
/// message consumption legitimately emits deliveries with decreasing
/// timestamps on the same track.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let Raw(doc) = serde_json::from_str::<Raw>(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let top = doc
        .as_map()
        .ok_or_else(|| "top level is not a JSON object".to_string())?;
    let events = get(top, "traceEvents")
        .ok_or_else(|| "missing `traceEvents`".to_string())?
        .as_seq()
        .ok_or_else(|| "`traceEvents` is not an array".to_string())?;
    let mut summary = TraceSummary::default();
    let mut span_clock: std::collections::HashMap<(u64, u64, String), f64> =
        std::collections::HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let m = ev
            .as_map()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if get(m, key).is_none() {
                return Err(format!("traceEvents[{i}] missing `{key}`"));
            }
        }
        for key in ["ts", "pid", "tid"] {
            if !is_number(get(m, key).expect("checked above")) {
                return Err(format!("traceEvents[{i}] `{key}` is not a number"));
            }
        }
        let ph = get(m, "ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] `ph` is not a string"))?;
        let name = get(m, "name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] `name` is not a string"))?;
        summary.events += 1;
        if ph != "M" && is_fault_event(name) {
            summary.fault_events += 1;
        }
        match ph {
            "X" => {
                if !get(m, "dur").is_some_and(is_number) {
                    return Err(format!("traceEvents[{i}] span missing numeric `dur`"));
                }
                summary.spans += 1;
                let ts = as_f64(get(m, "ts").expect("checked above")).expect("checked above");
                let pid = as_f64(get(m, "pid").expect("checked above")).expect("checked above");
                let tid = as_f64(get(m, "tid").expect("checked above")).expect("checked above");
                let key = (pid as u64, tid as u64, name.to_string());
                if let Some(&prev) = span_clock.get(&key) {
                    if ts < prev {
                        return Err(regressing_span(i, name, key.0, key.1, ts, prev));
                    }
                }
                span_clock.insert(key, ts);
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            "M" => summary.metadata += 1,
            other => return Err(format!("traceEvents[{i}] unknown phase `{other}`")),
        }
    }
    if let Some(ms) = get(top, "mermaidSummary").and_then(|v| v.as_map().map(|m| m.to_vec())) {
        summary.delivered_messages = get(&ms, "delivered_messages").and_then(as_u64);
        summary.finish_ps = get(&ms, "finish_ps").and_then(as_u64);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActKind, TierMove};

    #[test]
    fn trace_round_trips_and_validates() {
        let mut sink = ChromeTraceSink::new();
        sink.record(&SimEvent::EngineDelivery {
            ts_ps: 1_000,
            src: 0,
            dst: 1,
            pending: 3,
        });
        sink.record(&SimEvent::Activation {
            node: 2,
            kind: ActKind::Compute,
            start_ps: 1_000,
            end_ps: 4_000,
        });
        sink.record(&SimEvent::MsgDeliver {
            ts_ps: 9_000,
            src: 0,
            dst: 2,
            bytes: 128,
            latency_ps: 8_000,
        });
        sink.record(&SimEvent::QueueTier {
            ts_ps: 9_500,
            kind: TierMove::Rebase,
            total: 1,
        });
        let json = sink.to_json();
        let s = validate_chrome_trace(&json).expect("emitted trace must validate");
        assert_eq!(s.metadata, 4);
        assert_eq!(s.spans, 1);
        assert_eq!(s.counters, 1, "first delivery samples the depth counter");
        assert_eq!(s.instants, 2);
        assert_eq!(s.delivered_messages, Some(1));
        assert_eq!(s.finish_ps, Some(9_500));
    }

    #[test]
    fn ts_maps_picoseconds_to_microseconds() {
        let mut sink = ChromeTraceSink::new();
        sink.record(&SimEvent::Activation {
            node: 0,
            kind: ActKind::Compute,
            start_ps: 2_000_000,
            end_ps: 3_500_000,
        });
        let json = sink.to_json();
        assert!(json.contains("\"ts\":2.0"), "2e6 ps = 2 us: {json}");
        assert!(json.contains("\"dur\":1.5"), "1.5e6 ps = 1.5 us: {json}");
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1}]}"#)
                .is_err(),
            "missing tid must fail"
        );
        assert!(
            validate_chrome_trace(
                r#"{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]}"#
            )
            .is_err(),
            "span without dur must fail"
        );
        let ok = validate_chrome_trace(
            r#"{"traceEvents":[{"name":"x","ph":"X","ts":1.5,"pid":1,"tid":1,"dur":2}]}"#,
        )
        .unwrap();
        assert_eq!(ok.spans, 1);
        assert_eq!(ok.delivered_messages, None);
    }

    #[test]
    fn regressing_span_starts_on_one_track_are_rejected() {
        // Same (pid, tid, name) track, second span starts earlier: a
        // scrambled trace. Different tid (or name) is fine.
        let scrambled = r#"{"traceEvents":[
            {"name":"compute","ph":"X","ts":5.0,"pid":2,"tid":1,"dur":1},
            {"name":"compute","ph":"X","ts":2.0,"pid":2,"tid":1,"dur":1}]}"#;
        let err = validate_chrome_trace(scrambled).unwrap_err();
        assert!(err.contains("before the previous span"), "{err}");

        let other_track = r#"{"traceEvents":[
            {"name":"compute","ph":"X","ts":5.0,"pid":2,"tid":1,"dur":1},
            {"name":"compute","ph":"X","ts":2.0,"pid":2,"tid":2,"dur":1}]}"#;
        assert_eq!(validate_chrome_trace(other_track).unwrap().spans, 2);
    }

    #[test]
    fn record_time_summary_agrees_with_the_parser() {
        let mut sink = ChromeTraceSink::new();
        let span = |start_ps| SimEvent::Activation {
            node: 1,
            kind: ActKind::Compute,
            start_ps,
            end_ps: start_ps + 10,
        };
        sink.record(&span(5_000_000));
        sink.record(&SimEvent::Reroute {
            ts_ps: 6_000_000,
            node: 1,
            to: 2,
        });
        assert_eq!(sink.summary(), validate_chrome_trace(&sink.to_json()));
        assert_eq!(sink.summary().unwrap().fault_events, 1);

        // A span starting before its track's previous one: both report it,
        // in the same words.
        sink.record(&span(2_000_000));
        let err = sink.summary().unwrap_err();
        assert!(err.contains("traceEvents[6] span `compute` on pid 2 tid 1"));
        assert_eq!(Err(err), validate_chrome_trace(&sink.to_json()));
    }

    #[test]
    fn fault_variant_events_are_counted() {
        use crate::DropReason;
        let mut sink = ChromeTraceSink::new();
        sink.record(&SimEvent::LinkFault {
            ts_ps: 100,
            node: 0,
            to: 1,
            up: false,
        });
        sink.record(&SimEvent::RouterFault {
            ts_ps: 200,
            node: 2,
            up: true,
        });
        sink.record(&SimEvent::PacketDropped {
            ts_ps: 300,
            node: 0,
            src: 1,
            seq: 7,
            reason: DropReason::LinkDown,
        });
        sink.record(&SimEvent::MsgRetry {
            ts_ps: 400,
            src: 0,
            dst: 1,
            attempt: 1,
        });
        sink.record(&SimEvent::MsgDeliver {
            ts_ps: 500,
            src: 0,
            dst: 1,
            bytes: 64,
            latency_ps: 400,
        });
        let s = validate_chrome_trace(&sink.to_json()).unwrap();
        assert_eq!(s.fault_events, 4, "msg_deliver is not a fault event");
    }

    #[test]
    fn depth_counter_is_decimated() {
        let mut sink = ChromeTraceSink::new();
        for i in 0..200u64 {
            sink.record(&SimEvent::EngineDelivery {
                ts_ps: i * 10,
                src: 0,
                dst: 0,
                pending: 1,
            });
        }
        let s = validate_chrome_trace(&sink.to_json()).unwrap();
        assert_eq!(s.counters, 200u64.div_ceil(DEPTH_SAMPLE_EVERY));
    }
}
