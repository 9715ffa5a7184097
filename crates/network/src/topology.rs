//! Interconnect topologies with deterministic minimal routing.
//!
//! "The nodes are connected in a topology reflecting the physical
//! interconnect of the multicomputer" (paper, Section 4.2). Routing is
//! deterministic and minimal: dimension-order (X-then-Y) on meshes and
//! tori, e-cube on hypercubes, shortest-way on rings. Deterministic
//! routing keeps simulations reproducible and is what the transputer-era
//! machines Mermaid targeted actually used.

use mermaid_ops::NodeId;
use serde::{Deserialize, Serialize};

/// The physical interconnect of the multicomputer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// A bidirectional ring of `n` nodes.
    Ring(u32),
    /// A `w × h` 2-D mesh (no wraparound), node id = y*w + x.
    Mesh2D { w: u32, h: u32 },
    /// A `w × h` 2-D torus (wraparound), node id = y*w + x.
    Torus2D { w: u32, h: u32 },
    /// A `2^dim`-node hypercube.
    Hypercube { dim: u32 },
    /// Every node links to every other node.
    FullyConnected(u32),
    /// Node 0 is the hub; all others are leaves.
    Star(u32),
}

/// Largest node count any topology may declare (2^20, matching the
/// hypercube dimension limit). Keeps `u32` node-id arithmetic and
/// `as usize` index casts safe everywhere downstream.
pub const MAX_NODES: u64 = 1 << 20;

impl Topology {
    /// Number of nodes.
    ///
    /// Saturates rather than wrapping for shapes that fail
    /// [`Topology::try_validate`] (e.g. a `100000x100000` mesh), so callers
    /// that validate first never observe a wrapped count.
    pub fn nodes(&self) -> u32 {
        match *self {
            Topology::Ring(n) | Topology::FullyConnected(n) | Topology::Star(n) => n,
            Topology::Mesh2D { w, h } | Topology::Torus2D { w, h } => w.saturating_mul(h),
            Topology::Hypercube { dim } => 1u32.checked_shl(dim).unwrap_or(u32::MAX),
        }
    }

    /// Validate the shape, returning a user-facing error for degenerate or
    /// oversized configurations instead of panicking.
    pub fn try_validate(&self) -> Result<(), String> {
        let total: u64 = match *self {
            Topology::Ring(n) => {
                if n < 2 {
                    return Err(format!("ring needs ≥2 nodes (got {n})"));
                }
                n as u64
            }
            Topology::Mesh2D { w, h } | Topology::Torus2D { w, h } => {
                if w < 1 || h < 1 {
                    return Err(format!("mesh/torus dimensions must be ≥1 (got {w}x{h})"));
                }
                let total = w as u64 * h as u64;
                if total < 2 {
                    return Err(format!("mesh/torus needs ≥2 nodes (got {w}x{h})"));
                }
                total
            }
            Topology::Hypercube { dim } => {
                if !(1..=20).contains(&dim) {
                    return Err(format!("hypercube dimension must be in 1..=20 (got {dim})"));
                }
                1u64 << dim
            }
            Topology::FullyConnected(n) => {
                if n < 2 {
                    return Err(format!("full mesh needs ≥2 nodes (got {n})"));
                }
                n as u64
            }
            Topology::Star(n) => {
                if n < 2 {
                    return Err(format!("star needs ≥2 nodes (got {n})"));
                }
                n as u64
            }
        };
        if total > MAX_NODES {
            return Err(format!(
                "{} has {total} nodes, exceeding the supported maximum of {MAX_NODES}",
                self.label()
            ));
        }
        Ok(())
    }

    /// Validate the shape (panics on degenerate configurations).
    ///
    /// Wrapper over [`Topology::try_validate`] for model-internal call
    /// sites; user input paths (the CLI) use `try_validate` directly.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid topology: {e}");
        }
    }

    /// The neighbours of `node` (each is one physical link).
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let n = self.nodes();
        assert!(node < n, "node {node} out of range ({n} nodes)");
        match *self {
            Topology::Ring(n) => {
                if n == 2 {
                    vec![(node + 1) % 2]
                } else {
                    vec![(node + 1) % n, (node + n - 1) % n]
                }
            }
            Topology::Mesh2D { w, h } => {
                let (x, y) = (node % w, node / w);
                let mut v = Vec::with_capacity(4);
                if x + 1 < w {
                    v.push(node + 1);
                }
                if x > 0 {
                    v.push(node - 1);
                }
                if y + 1 < h {
                    v.push(node + w);
                }
                if y > 0 {
                    v.push(node - w);
                }
                v
            }
            Topology::Torus2D { w, h } => {
                let (x, y) = (node % w, node / w);
                let mut v = Vec::with_capacity(4);
                if w > 1 {
                    v.push(y * w + (x + 1) % w);
                    if w > 2 {
                        v.push(y * w + (x + w - 1) % w);
                    }
                }
                if h > 1 {
                    v.push(((y + 1) % h) * w + x);
                    if h > 2 {
                        v.push(((y + h - 1) % h) * w + x);
                    }
                }
                v
            }
            Topology::Hypercube { dim } => (0..dim).map(|d| node ^ (1 << d)).collect(),
            Topology::FullyConnected(n) => (0..n).filter(|&m| m != node).collect(),
            Topology::Star(n) => {
                if node == 0 {
                    (1..n).collect()
                } else {
                    vec![0]
                }
            }
        }
    }

    /// The next hop from `from` towards `to` under the deterministic
    /// minimal routing function. Panics when `from == to`.
    pub fn route_next(&self, from: NodeId, to: NodeId) -> NodeId {
        assert_ne!(from, to, "routing a packet to its own node");
        let n = self.nodes();
        assert!(from < n && to < n, "node out of range");
        // This runs once per packet hop, so coordinates come from one
        // division each and wraps are compares, not `%`.
        match *self {
            Topology::Ring(n) => ring_step(from, to, n),
            Topology::Mesh2D { w, .. } => {
                let (fx, fy) = split(from, w);
                let (tx, ty) = split(to, w);
                // Dimension order: X first, then Y.
                if fx < tx {
                    from + 1
                } else if fx > tx {
                    from - 1
                } else if fy < ty {
                    from + w
                } else {
                    from - w
                }
            }
            Topology::Torus2D { w, h } => {
                let (fx, fy) = split(from, w);
                let (tx, ty) = split(to, w);
                if fx != tx {
                    fy * w + ring_step(fx, tx, w)
                } else {
                    ring_step(fy, ty, h) * w + fx
                }
            }
            Topology::Hypercube { .. } => {
                // e-cube: correct the lowest differing dimension.
                let diff = from ^ to;
                from ^ (1 << diff.trailing_zeros())
            }
            Topology::FullyConnected(_) => to,
            Topology::Star(_) => {
                if from == 0 {
                    to
                } else {
                    0
                }
            }
        }
    }

    /// All neighbours of `from` that lie on some minimal path to `to`
    /// (the candidate set for adaptive minimal routing). Non-empty for any
    /// `from != to`; always contains [`Topology::route_next`]'s choice.
    pub fn minimal_next_hops(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        assert_ne!(from, to, "routing a packet to its own node");
        let d = self.distance(from, to);
        self.neighbors(from)
            .into_iter()
            .filter(|&n| self.distance(n, to) < d)
            .collect()
    }

    /// Minimal hop distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        match *self {
            Topology::Ring(n) => {
                let fwd = (b + n - a) % n;
                fwd.min(n - fwd)
            }
            Topology::Mesh2D { w, .. } => {
                let (ax, ay) = (a % w, a / w);
                let (bx, by) = (b % w, b / w);
                ax.abs_diff(bx) + ay.abs_diff(by)
            }
            Topology::Torus2D { w, h } => {
                let (ax, ay) = (a % w, a / w);
                let (bx, by) = (b % w, b / w);
                let dx = ax.abs_diff(bx).min(w - ax.abs_diff(bx));
                let dy = ay.abs_diff(by).min(h - ay.abs_diff(by));
                dx + dy
            }
            Topology::Hypercube { .. } => (a ^ b).count_ones(),
            Topology::FullyConnected(_) => 1,
            Topology::Star(_) => {
                if a == 0 || b == 0 {
                    1
                } else {
                    2
                }
            }
        }
    }

    /// The network diameter (maximum distance between any pair).
    pub fn diameter(&self) -> u32 {
        match *self {
            Topology::Ring(n) => n / 2,
            Topology::Mesh2D { w, h } => (w - 1) + (h - 1),
            Topology::Torus2D { w, h } => w / 2 + h / 2,
            Topology::Hypercube { dim } => dim,
            Topology::FullyConnected(_) => 1,
            Topology::Star(_) => 2,
        }
    }

    /// Total number of unidirectional links.
    pub fn link_count(&self) -> u32 {
        (0..self.nodes())
            .map(|n| self.neighbors(n).len() as u32)
            .sum()
    }

    /// Human-readable name for reports.
    pub fn label(&self) -> String {
        match *self {
            Topology::Ring(n) => format!("ring({n})"),
            Topology::Mesh2D { w, h } => format!("mesh({w}x{h})"),
            Topology::Torus2D { w, h } => format!("torus({w}x{h})"),
            Topology::Hypercube { dim } => format!("hypercube({dim})"),
            Topology::FullyConnected(n) => format!("full({n})"),
            Topology::Star(n) => format!("star({n})"),
        }
    }
}

/// `(x, y)` of `node` in a row-major grid `w` nodes wide: one division and
/// a multiply-subtract.
#[inline]
fn split(node: NodeId, w: u32) -> (u32, u32) {
    let y = node / w;
    (node - y * w, y)
}

/// The neighbour of `from` one step towards `to` (`from != to`) on a ring
/// of `n`: the shorter way round, forward on a tie.
#[inline]
fn ring_step(from: u32, to: u32, n: u32) -> u32 {
    let fwd = if to > from { to - from } else { to + n - from }; // hops going +1
    if fwd <= n - fwd {
        if from + 1 == n {
            0
        } else {
            from + 1
        }
    } else if from == 0 {
        n - 1
    } else {
        from - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_topologies() -> Vec<Topology> {
        vec![
            Topology::Ring(7),
            Topology::Mesh2D { w: 4, h: 3 },
            Topology::Torus2D { w: 4, h: 4 },
            Topology::Hypercube { dim: 4 },
            Topology::FullyConnected(6),
            Topology::Star(5),
        ]
    }

    #[test]
    fn node_counts() {
        assert_eq!(Topology::Ring(7).nodes(), 7);
        assert_eq!(Topology::Mesh2D { w: 4, h: 3 }.nodes(), 12);
        assert_eq!(Topology::Hypercube { dim: 4 }.nodes(), 16);
        assert_eq!(Topology::Star(5).nodes(), 5);
    }

    #[test]
    fn neighbor_relations_are_symmetric() {
        for topo in all_topologies() {
            for a in 0..topo.nodes() {
                for b in topo.neighbors(a) {
                    assert!(
                        topo.neighbors(b).contains(&a),
                        "{}: {a}->{b} not symmetric",
                        topo.label()
                    );
                    assert_ne!(a, b, "self-link in {}", topo.label());
                }
            }
        }
    }

    #[test]
    fn routing_reaches_destination_in_distance_hops() {
        for topo in all_topologies() {
            let n = topo.nodes();
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    let mut cur = src;
                    let mut hops = 0;
                    while cur != dst {
                        let next = topo.route_next(cur, dst);
                        assert!(
                            topo.neighbors(cur).contains(&next),
                            "{}: route {cur}->{next} is not a link",
                            topo.label()
                        );
                        cur = next;
                        hops += 1;
                        assert!(hops <= n, "routing loop in {}", topo.label());
                    }
                    assert_eq!(
                        hops,
                        topo.distance(src, dst),
                        "{}: non-minimal route {src}->{dst}",
                        topo.label()
                    );
                }
            }
        }
    }

    #[test]
    fn distances_are_metric() {
        for topo in all_topologies() {
            let n = topo.nodes();
            for a in 0..n {
                assert_eq!(topo.distance(a, a), 0);
                for b in 0..n {
                    assert_eq!(topo.distance(a, b), topo.distance(b, a));
                    assert!(topo.distance(a, b) <= topo.diameter());
                }
            }
        }
    }

    /// `route_next`'s ring, mesh and torus arms as they were written with
    /// `%` and `/` everywhere, kept as the oracle for the division-light
    /// arms.
    fn route_next_by_modulo(topo: Topology, from: NodeId, to: NodeId) -> NodeId {
        match topo {
            Topology::Ring(n) => {
                let fwd = (to + n - from) % n;
                let bwd = (from + n - to) % n;
                if fwd <= bwd {
                    (from + 1) % n
                } else {
                    (from + n - 1) % n
                }
            }
            Topology::Mesh2D { w, .. } => {
                let (fx, fy) = (from % w, from / w);
                let (tx, ty) = (to % w, to / w);
                if fx < tx {
                    from + 1
                } else if fx > tx {
                    from - 1
                } else if fy < ty {
                    from + w
                } else {
                    from - w
                }
            }
            Topology::Torus2D { w, h } => {
                let (fx, fy) = (from % w, from / w);
                let (tx, ty) = (to % w, to / w);
                if fx != tx {
                    let fwd = (tx + w - fx) % w;
                    let bwd = (fx + w - tx) % w;
                    fy * w
                        + if fwd <= bwd {
                            (fx + 1) % w
                        } else {
                            (fx + w - 1) % w
                        }
                } else {
                    let fwd = (ty + h - fy) % h;
                    let bwd = (fy + h - ty) % h;
                    let ny = if fwd <= bwd {
                        (fy + 1) % h
                    } else {
                        (fy + h - 1) % h
                    };
                    ny * w + fx
                }
            }
            _ => unreachable!("only the ring, mesh and torus arms were rewritten"),
        }
    }

    /// Every `(from, to)` pair of every ring of 2..=17 nodes and every
    /// mesh and torus up to 9x9, 1-wide and 2-wide shapes included, takes
    /// the hop the modulo formulas took.
    #[test]
    fn division_light_routing_matches_the_modulo_formulas() {
        let mut shapes: Vec<Topology> = (2..=17).map(Topology::Ring).collect();
        for w in 1..=9 {
            for h in (1..=9).filter(|h| w * h >= 2) {
                shapes.push(Topology::Mesh2D { w, h });
                shapes.push(Topology::Torus2D { w, h });
            }
        }
        for topo in shapes {
            let n = topo.nodes();
            for from in 0..n {
                for to in (0..n).filter(|&to| to != from) {
                    assert_eq!(
                        topo.route_next(from, to),
                        route_next_by_modulo(topo, from, to),
                        "{}: {from} -> {to}",
                        topo.label()
                    );
                }
            }
        }
    }

    #[test]
    fn mesh_routes_x_before_y() {
        let m = Topology::Mesh2D { w: 4, h: 4 };
        // From (0,0)=0 to (2,2)=10: first hops go +x.
        assert_eq!(m.route_next(0, 10), 1);
        assert_eq!(m.route_next(1, 10), 2);
        // x aligned → +y.
        assert_eq!(m.route_next(2, 10), 6);
    }

    #[test]
    fn ring_takes_the_short_way() {
        let r = Topology::Ring(8);
        assert_eq!(r.route_next(0, 3), 1); // 3 fwd vs 5 bwd
        assert_eq!(r.route_next(0, 6), 7); // 6 fwd vs 2 bwd
        assert_eq!(r.route_next(0, 4), 1); // tie → forward
    }

    #[test]
    fn hypercube_ecube_fixes_lowest_bit_first() {
        let h = Topology::Hypercube { dim: 3 };
        // 000 → 110: first fix bit 1 (lowest differing), giving 010.
        assert_eq!(h.route_next(0b000, 0b110), 0b010);
        assert_eq!(h.route_next(0b010, 0b110), 0b110);
    }

    #[test]
    fn star_routes_via_hub() {
        let s = Topology::Star(5);
        assert_eq!(s.route_next(3, 4), 0);
        assert_eq!(s.route_next(0, 4), 4);
        assert_eq!(s.distance(3, 4), 2);
    }

    #[test]
    fn minimal_next_hops_contain_the_deterministic_choice() {
        for topo in all_topologies() {
            let n = topo.nodes();
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    let hops = topo.minimal_next_hops(src, dst);
                    assert!(!hops.is_empty(), "{}: empty candidate set", topo.label());
                    assert!(
                        hops.contains(&topo.route_next(src, dst)),
                        "{}: deterministic hop not minimal {src}->{dst}",
                        topo.label()
                    );
                    for h in hops {
                        assert_eq!(topo.distance(h, dst) + 1, topo.distance(src, dst));
                    }
                }
            }
        }
    }

    #[test]
    fn torus_offers_multiple_minimal_paths() {
        let t = Topology::Torus2D { w: 4, h: 4 };
        // Corner to opposite corner: both dimensions need correcting, so
        // at least two candidates exist.
        assert!(t.minimal_next_hops(0, 15 - 5).len() >= 2);
    }

    #[test]
    fn two_node_ring_has_one_link_each_way() {
        let r = Topology::Ring(2);
        assert_eq!(r.neighbors(0), vec![1]);
        assert_eq!(r.neighbors(1), vec![0]);
        assert_eq!(r.route_next(0, 1), 1);
    }

    #[test]
    fn torus_wraps_around() {
        let t = Topology::Torus2D { w: 4, h: 1 };
        // 0 → 3 is one hop backwards through the wraparound.
        assert_eq!(t.distance(0, 3), 1);
        assert_eq!(t.route_next(0, 3), 3);
    }

    #[test]
    fn link_counts() {
        assert_eq!(Topology::Ring(8).link_count(), 16);
        assert_eq!(Topology::FullyConnected(4).link_count(), 12);
        assert_eq!(Topology::Star(5).link_count(), 8);
        // 4x4 torus: every node has 4 links.
        assert_eq!(Topology::Torus2D { w: 4, h: 4 }.link_count(), 64);
    }

    #[test]
    #[should_panic(expected = "own node")]
    fn routing_to_self_panics() {
        Topology::Ring(4).route_next(1, 1);
    }

    #[test]
    fn validate_rejects_degenerate_shapes() {
        for bad in [
            Topology::Ring(1),
            Topology::Mesh2D { w: 1, h: 1 },
            Topology::FullyConnected(1),
            Topology::Star(1),
        ] {
            assert!(
                std::panic::catch_unwind(|| bad.validate()).is_err(),
                "{} should be rejected",
                bad.label()
            );
        }
        Topology::Hypercube { dim: 1 }.validate();
    }

    #[test]
    fn try_validate_reports_errors_without_panicking() {
        assert!(Topology::Ring(1).try_validate().is_err());
        assert!(Topology::Mesh2D { w: 0, h: 4 }.try_validate().is_err());
        assert!(Topology::Mesh2D { w: 1, h: 1 }.try_validate().is_err());
        assert!(Topology::Hypercube { dim: 0 }.try_validate().is_err());
        assert!(Topology::Hypercube { dim: 21 }.try_validate().is_err());
        assert!(Topology::FullyConnected(0).try_validate().is_err());
        assert!(Topology::Star(1).try_validate().is_err());

        assert!(Topology::Ring(2).try_validate().is_ok());
        assert!(Topology::Mesh2D { w: 2, h: 1 }.try_validate().is_ok());
        assert!(Topology::Torus2D { w: 32, h: 32 }.try_validate().is_ok());
        assert!(Topology::Hypercube { dim: 20 }.try_validate().is_ok());
    }

    #[test]
    fn try_validate_rejects_oversized_meshes_without_overflow() {
        // 100000 * 100000 wraps u32 multiplication; the validator must see
        // the true product and reject it with a size error, not a wrap.
        let huge = Topology::Mesh2D {
            w: 100_000,
            h: 100_000,
        };
        let err = huge.try_validate().unwrap_err();
        assert!(err.contains("exceeding"), "unexpected error: {err}");
        // nodes() saturates rather than wrapping for such shapes.
        assert_eq!(huge.nodes(), u32::MAX);

        let too_big_ring = Topology::Ring((MAX_NODES + 1) as u32);
        assert!(too_big_ring.try_validate().is_err());
        // The boundary itself is accepted.
        assert!(Topology::Ring(MAX_NODES as u32).try_validate().is_ok());
        assert!(Topology::Mesh2D { w: 1024, h: 1024 }.try_validate().is_ok());
    }
}
