//! Harness-side spans of the traced run.
//!
//! The program under test has no spans of its own yet, so the harness
//! times each layer from outside: the root of a pass is the real
//! `cli::run` call, and its children are *separate invocations* of the
//! public functions underneath on identical inputs. A child is therefore
//! measured on its own and then laid into its parent's interval, after
//! the children already there, so the tree reads like an inline trace and
//! "self time = span minus children" has its usual meaning.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    pub workload: String,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a parentless span at the instants it really ran.
    pub fn root(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.push(name, ns(start), ns(end), None)
    }

    /// Record a span of `dur` under `parent`, starting where the parent's
    /// previous child ended (or where the parent starts).
    pub fn child(&mut self, parent: usize, name: &str, dur: Duration) -> usize {
        let start = self
            .children(parent)
            .map(|c| c.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.push(name, start, start + dur.as_nanos() as u64, Some(parent))
    }

    /// Time `f` and record it as a child of `parent`.
    pub fn time<R>(&mut self, parent: usize, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let dur = t0.elapsed();
        self.child(parent, name, dur);
        (r, dur)
    }

    fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// The part of span `id`'s interval its children cover (overlaps
    /// counted once, overhang beyond the parent not at all).
    pub fn covered_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut cuts: Vec<(u64, u64)> = self
            .children(id)
            .map(|c| (c.start_ns.max(me.start_ns), c.end_ns.min(me.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        cuts.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (s, e) in cuts {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        covered
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        self.spans[id].dur_ns() - self.covered_ns(id)
    }

    /// Where the time of the roots called `root_name` went: their total
    /// duration, and the self time of every span below them by name.
    pub fn self_ns_by_name(&self, root_name: &str) -> (u64, BTreeMap<&str, u64>) {
        // Parents precede their children, so one forward pass resolves
        // every span's root.
        let mut root_of: Vec<Option<usize>> = Vec::with_capacity(self.spans.len());
        let mut root_ns = 0;
        let mut by_name = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let root = match s.parent {
                None => (s.name == root_name).then_some(id),
                Some(p) => root_of[p],
            };
            root_of.push(root);
            if root == Some(id) {
                root_ns += s.dur_ns();
            } else if root.is_some() {
                *by_name.entry(s.name.as_str()).or_insert(0) += self.self_ns(id);
            }
        }
        (root_ns, by_name)
    }

    /// Chrome trace format (`chrome://tracing`, Perfetto): one complete
    /// event per span, parent and workload in `args`.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload", Json::str(&self.workload)),
                            ("self_us", Json::Num(self.self_ns(id) as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn tree() -> (Spans, usize) {
        let mut s = Spans::new("w");
        let t0 = s.epoch + ms(5);
        let root = s.root("cli.run", t0, t0 + ms(100));
        (s, root)
    }

    #[test]
    fn adjacent_children_are_laid_end_to_end() {
        let (mut s, root) = tree();
        let a = s.child(root, "a", ms(30));
        let b = s.child(root, "b", ms(50));
        assert_eq!(s.spans[a].start_ns, s.spans[root].start_ns);
        assert_eq!(s.spans[b].start_ns, s.spans[a].end_ns);
        assert_eq!(s.covered_ns(root), 80_000_000);
        assert_eq!(s.self_ns(root), 20_000_000);
        assert_eq!(s.self_ns(a), 30_000_000);
    }

    #[test]
    fn nested_children_only_count_against_their_own_parent() {
        let (mut s, root) = tree();
        let mid = s.child(root, "hybrid.run", ms(60));
        s.child(mid, "cpu.extract", ms(45));
        s.child(mid, "network.run", ms(5));
        assert_eq!(s.self_ns(mid), 10_000_000);
        assert_eq!(s.self_ns(root), 40_000_000);
    }

    #[test]
    fn self_time_by_name_covers_descendants_of_the_named_roots_only() {
        let (mut s, root) = tree();
        let mid = s.child(root, "hybrid.run", ms(60));
        s.child(mid, "cpu.extract", ms(45));
        s.child(root, "render", ms(10));
        let t0 = s.epoch + ms(500);
        let aside = s.root("reference.serial", t0, t0 + ms(40));
        s.child(aside, "network.run", ms(30));
        let (root_ns, by_name) = s.self_ns_by_name("cli.run");
        assert_eq!(root_ns, 100_000_000);
        let expect = [("cpu.extract", 45), ("hybrid.run", 15), ("render", 10)];
        assert_eq!(
            by_name.into_iter().collect::<Vec<_>>(),
            expect.map(|(n, ms)| (n, ms * 1_000_000))
        );
    }

    #[test]
    fn childless_and_empty_spans() {
        let (mut s, root) = tree();
        assert_eq!(s.self_ns(root), 100_000_000);
        let empty = s.child(root, "nothing", Duration::ZERO);
        assert_eq!(s.spans[empty].dur_ns(), 0);
        assert_eq!(s.self_ns(empty), 0);
        assert_eq!(s.self_ns(root), 100_000_000);
    }

    #[test]
    fn children_longer_than_the_parent_leave_no_negative_self_time() {
        // Separate invocations can add up to more than the call they
        // decompose; the overhang is not charged to the parent.
        let (mut s, root) = tree();
        s.child(root, "a", ms(70));
        s.child(root, "b", ms(70));
        assert_eq!(s.covered_ns(root), 100_000_000);
        assert_eq!(s.self_ns(root), 0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let (mut s, root) = tree();
        let start = s.spans[root].start_ns;
        s.push("x", start + 10, start + 50, Some(root));
        s.push("y", start + 30, start + 60, Some(root));
        s.push("z", start + 35, start + 40, Some(root));
        assert_eq!(s.covered_ns(root), 50);
    }

    #[test]
    fn chrome_json_reparses_with_one_event_per_span() {
        let (mut s, root) = tree();
        s.time(root, "work", || 1 + 1);
        let doc = crate::json::parse(&s.to_chrome_json().pretty()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("work"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("workload").unwrap().as_str(), Some("w"));
    }
}
