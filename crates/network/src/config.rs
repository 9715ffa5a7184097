//! Machine parameters of the communication model.

use pearl::Duration;
use serde::{Deserialize, Serialize};

use crate::topology::Topology;

/// Switching strategy of the routers (paper: "a configurable routing and
/// switching strategy").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Switching {
    /// A router forwards a packet only after receiving it completely.
    StoreAndForward,
    /// A router forwards the header as soon as it is decoded; the packet
    /// body follows pipelined (buffered on contention).
    VirtualCutThrough,
    /// Cut-through with flit-granular buffering. At this model's packet
    /// granularity it times like virtual cut-through; the distinction is
    /// kept for configuration fidelity (see DESIGN.md).
    Wormhole,
}

/// Parameters of one physical link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Wire/propagation latency per hop.
    pub wire_latency: Duration,
}

impl LinkParams {
    /// Serialisation time of `bytes` on this link.
    pub fn transfer_time(&self, bytes: u32) -> Duration {
        // ps = bytes * 1e12 / B/s, rounded up. The product fits u64 up to
        // ~18.4 MB, which covers every packet; only larger sizes pay for
        // the u128 division.
        let bw = self.bandwidth_bytes_per_sec;
        let ps = match (bytes as u64).checked_mul(1_000_000_000_000) {
            Some(scaled) => scaled.div_ceil(bw),
            None => (bytes as u128 * 1_000_000_000_000u128).div_ceil(bw as u128) as u64,
        };
        Duration::from_ps(ps)
    }
}

/// Routing strategy of the routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Routing {
    /// Deterministic minimal routing (dimension-order / e-cube /
    /// shortest-way) — reproducible and what transputer-era machines used.
    DimensionOrder,
    /// Adaptive minimal routing: among the neighbours on minimal paths,
    /// take the one whose output link frees earliest (ties towards the
    /// lowest node id, keeping runs deterministic).
    AdaptiveMinimal,
}

/// Parameters of the router component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterParams {
    /// Time to make a routing decision / decode a header, per hop.
    pub routing_delay: Duration,
    /// Maximum packet payload; larger messages are split (paper: "this may
    /// include splitting up messages into multiple packets").
    pub max_packet_payload: u32,
    /// Per-packet header size in bytes (also the size of control packets).
    pub header_bytes: u32,
    /// Switching strategy.
    pub switching: Switching,
    /// Routing strategy.
    pub routing: Routing,
}

/// Software overheads of the message-passing layer on the abstract
/// processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoftwareParams {
    /// Sender-side setup cost per send operation.
    pub send_overhead: Duration,
    /// Receiver-side cost per completed receive.
    pub recv_overhead: Duration,
}

/// The complete configuration of the multi-node communication model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// The interconnect topology.
    pub topology: Topology,
    /// Link parameters (uniform across the machine).
    pub link: LinkParams,
    /// Router parameters.
    pub router: RouterParams,
    /// Message-layer software costs.
    pub software: SoftwareParams,
}

impl NetworkConfig {
    /// Validate the configuration, returning a user-facing error instead of
    /// panicking on bad input.
    pub fn try_validate(&self) -> Result<(), String> {
        self.topology.try_validate()?;
        if self.link.bandwidth_bytes_per_sec == 0 {
            return Err("link bandwidth must be > 0 bytes/sec".into());
        }
        if self.router.max_packet_payload == 0 {
            return Err("max packet payload must be > 0 bytes".into());
        }
        Ok(())
    }

    /// Validate the configuration (panics on invalid configurations).
    ///
    /// Wrapper over [`NetworkConfig::try_validate`] for model-internal
    /// call sites; user input paths use `try_validate`.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid network config: {e}");
        }
    }

    /// Number of packets a `bytes`-byte message splits into.
    pub fn packets_for(&self, bytes: u32) -> u32 {
        if bytes == 0 {
            1 // a zero-byte message still needs one (header-only) packet
        } else {
            bytes.div_ceil(self.router.max_packet_payload)
        }
    }

    /// A T805-transputer-class network: 20 Mbit/s links (≈1.74 MB/s usable
    /// after protocol bits), software store-and-forward routing with
    /// substantial per-hop and per-message software cost.
    pub fn t805(topology: Topology) -> Self {
        NetworkConfig {
            topology,
            link: LinkParams {
                bandwidth_bytes_per_sec: 1_740_000,
                wire_latency: Duration::from_ns(100),
            },
            router: RouterParams {
                routing_delay: Duration::from_us(5),
                max_packet_payload: 512,
                header_bytes: 8,
                switching: Switching::StoreAndForward,
                routing: Routing::DimensionOrder,
            },
            software: SoftwareParams {
                send_overhead: Duration::from_us(15),
                recv_overhead: Duration::from_us(15),
            },
        }
    }

    /// A generic hardware-routed multicomputer network (CM-5/Paragon
    /// class): 175 MB/s links, wormhole switching, sub-microsecond
    /// per-hop latency.
    pub fn hw_routed(topology: Topology) -> Self {
        NetworkConfig {
            topology,
            link: LinkParams {
                bandwidth_bytes_per_sec: 175_000_000,
                wire_latency: Duration::from_ns(20),
            },
            router: RouterParams {
                routing_delay: Duration::from_ns(50),
                max_packet_payload: 4096,
                header_bytes: 16,
                switching: Switching::Wormhole,
                routing: Routing::DimensionOrder,
            },
            software: SoftwareParams {
                send_overhead: Duration::from_us(2),
                recv_overhead: Duration::from_us(2),
            },
        }
    }

    /// A fast test network with round numbers: 1 GB/s, 1 ns wire, 10 ns
    /// routing, 1 KiB packets, zero software overhead.
    pub fn test(topology: Topology) -> Self {
        NetworkConfig {
            topology,
            link: LinkParams {
                bandwidth_bytes_per_sec: 1_000_000_000,
                wire_latency: Duration::from_ns(1),
            },
            router: RouterParams {
                routing_delay: Duration::from_ns(10),
                max_packet_payload: 1024,
                header_bytes: 8,
                switching: Switching::VirtualCutThrough,
                routing: Routing::DimensionOrder,
            },
            software: SoftwareParams {
                send_overhead: Duration::ZERO,
                recv_overhead: Duration::ZERO,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn transfer_time_rounds_up() {
        let l = LinkParams {
            bandwidth_bytes_per_sec: 1_000_000_000, // 1 B/ns
            wire_latency: Duration::ZERO,
        };
        assert_eq!(l.transfer_time(1000), Duration::from_ns(1000));
        assert_eq!(l.transfer_time(1), Duration::from_ns(1));
        let slow = LinkParams {
            bandwidth_bytes_per_sec: 3,
            wire_latency: Duration::ZERO,
        };
        // 1 byte at 3 B/s = 333333333333.33 ps → rounded up.
        assert_eq!(slow.transfer_time(1), Duration::from_ps(333_333_333_334));
    }

    proptest! {
        /// The u64 fast path and the u128 fallback agree with the plain
        /// u128 formula over the whole `u32` byte range (packet sizes, the
        /// ~18.4 MB switch-over and beyond), at bandwidths from 1 B/s up.
        #[test]
        fn transfer_time_equals_the_u128_formula(
            bytes in prop_oneof![
                0u32..70_000,
                18_446_700u32..18_446_800,
                any::<u32>(),
            ],
            bw in prop_oneof![
                1u64..10_000,
                1_000_000u64..1_000_000_000_000,
                1u64..=u64::MAX,
            ],
        ) {
            let l = LinkParams { bandwidth_bytes_per_sec: bw, wire_latency: Duration::ZERO };
            let want = (bytes as u128 * 1_000_000_000_000u128).div_ceil(bw as u128) as u64;
            prop_assert_eq!(l.transfer_time(bytes), Duration::from_ps(want));
        }
    }

    #[test]
    fn packet_splitting() {
        let c = NetworkConfig::test(Topology::Ring(4));
        assert_eq!(c.packets_for(0), 1);
        assert_eq!(c.packets_for(1), 1);
        assert_eq!(c.packets_for(1024), 1);
        assert_eq!(c.packets_for(1025), 2);
        assert_eq!(c.packets_for(10 * 1024), 10);
    }

    #[test]
    fn presets_validate() {
        NetworkConfig::t805(Topology::Mesh2D { w: 4, h: 4 }).validate();
        NetworkConfig::hw_routed(Topology::Hypercube { dim: 6 }).validate();
        NetworkConfig::test(Topology::Ring(2)).validate();
    }

    #[test]
    fn t805_is_slower_than_hw_routed() {
        let t = NetworkConfig::t805(Topology::Ring(4));
        let h = NetworkConfig::hw_routed(Topology::Ring(4));
        assert!(t.link.transfer_time(1024) > h.link.transfer_time(1024));
        assert!(t.software.send_overhead > h.software.send_overhead);
    }
}
