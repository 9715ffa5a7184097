//! Line-per-event JSON stream ("JSONL") for external tooling.
//!
//! Each [`SimEvent`] becomes one compact JSON object on its own line, led
//! by an `"ev"` discriminator, with every timestamp kept as exact `u64`
//! picoseconds — unlike the Chrome trace there is no lossy microsecond
//! conversion, so this is the format of choice for programmatic
//! post-processing.

use crate::value_json::{fields, JsonObj};
use crate::{Probe, SimEvent};

/// Accumulates the JSONL stream in memory.
#[derive(Default)]
pub struct JsonlSink {
    out: String,
    events: u64,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// Number of events recorded.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// The stream recorded so far (one JSON object per line).
    pub fn output(&self) -> &str {
        &self.out
    }
}

/// Append the canonical JSON line of one [`SimEvent`]: an object led by
/// an `"ev"` discriminator, then every field of the variant, in this
/// order, keyed by its own name. The match is exhaustive in variants and
/// (no `..`) in fields, so a new variant or field cannot be left out.
fn write_line(out: &mut String, ev: &SimEvent) {
    macro_rules! all_fields {
        ($($variant:ident { $($f:ident),* })*) => {{
            let mut o = JsonObj::new(out);
            o.field("ev", ev.label());
            match *ev {
                $(SimEvent::$variant { $($f),* } => { fields!(o; $($f),*); })*
            }
            o.end();
        }};
    }
    all_fields! {
        EngineDelivery { ts_ps, src, dst, pending }
        QueueTier { ts_ps, kind, total }
        Activation { node, kind, start_ps, end_ps }
        MsgSend { ts_ps, src, dst, bytes, sync }
        MsgDeliver { ts_ps, src, dst, bytes, latency_ps }
        MsgPath {
            ts_ps, src, dst, bytes, latency_ps,
            overhead_ps, retry_ps, queue_ps, routing_ps, ser_ps, wire_ps
        }
        LinkBusy { node, to, start_ps, end_ps }
        PacketForward { ts_ps, node, to, packets }
        PacketDeliver { ts_ps, node, packets }
        CacheAccess { ts_ps, node, cpu, kind, hit }
        CacheEvict { ts_ps, node, cpu, level, dirty }
        BusTransaction { node, start_ps, end_ps, wait_ps }
        LinkFault { ts_ps, node, to, up }
        RouterFault { ts_ps, node, up }
        PacketDropped { ts_ps, node, src, seq, reason }
        PacketCorrupted { ts_ps, node, to, src, seq }
        MsgRetry { ts_ps, src, dst, attempt }
        MsgGaveUp { ts_ps, src, dst, retries }
        Reroute { ts_ps, node, to }
    }
    out.push('\n');
}

impl Probe for JsonlSink {
    fn record(&mut self, ev: &SimEvent) {
        write_line(&mut self.out, ev);
        self.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value_json::Raw;
    use crate::{AccessKind, HitWhere};
    use serde::{map_get, Value};

    #[test]
    fn one_line_per_event_and_lines_parse_back() {
        let mut sink = JsonlSink::new();
        sink.record(&SimEvent::MsgSend {
            ts_ps: 42,
            src: 1,
            dst: 2,
            bytes: 64,
            sync: false,
        });
        sink.record(&SimEvent::CacheAccess {
            ts_ps: 99,
            node: 0,
            cpu: 1,
            kind: AccessKind::Read,
            hit: HitWhere::L2,
        });
        assert_eq!(sink.len(), 2);
        let lines: Vec<&str> = sink.output().lines().collect();
        assert_eq!(lines.len(), 2);
        let Raw(v) = serde_json::from_str::<Raw>(lines[0]).unwrap();
        let m = v.as_map().unwrap();
        assert_eq!(map_get(m, "ev"), Some(&Value::Str("msg_send".into())));
        assert_eq!(map_get(m, "ts_ps"), Some(&Value::U64(42)));
        let Raw(v) = serde_json::from_str::<Raw>(lines[1]).unwrap();
        let m = v.as_map().unwrap();
        assert_eq!(map_get(m, "hit"), Some(&Value::Str("l2".into())));
    }
}
