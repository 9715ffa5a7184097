//! A set-associative, tags-only cache with coherence states.
//!
//! One `Cache` instance models one level for one processor (or a shared
//! level). No data is stored — only tags and MESI state — which is what
//! lets Mermaid scale to many simulated nodes (paper, Section 6).

use crate::config::{CacheParams, Replacement};
use crate::Mesi;

/// Statistics of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probe hits (line present and valid).
    pub hits: u64,
    /// Probe misses.
    pub misses: u64,
    /// Lines evicted to make room for fills.
    pub evictions: u64,
    /// Dirty evictions (writebacks generated).
    pub writebacks: u64,
    /// Lines invalidated by snoops.
    pub snoop_invalidations: u64,
    /// Dirty lines flushed by snoops.
    pub snoop_flushes: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (zero when no accesses happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An evicted line, reported so the caller can model its writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The base address of the evicted line.
    pub line_addr: u64,
    /// The coherence state it was evicted in (`Modified` ⇒ writeback).
    pub state: Mesi,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: Mesi,
    /// LRU: last-touch stamp. FIFO: fill stamp.
    stamp: u64,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    state: Mesi::Invalid,
    stamp: 0,
};

/// A tags-only set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    sets: Vec<Line>, // sets * assoc, row-major by set
    set_count: u64,
    set_shift: u32,
    assoc: usize,
    tick: u64,
    rng: u64, // xorshift state for Replacement::Random
    stats: CacheStats,
}

impl Cache {
    /// Build an empty cache with the given parameters.
    pub fn new(params: CacheParams) -> Self {
        let set_count = params.sets();
        let assoc = params.assoc as usize;
        Cache {
            params,
            sets: vec![INVALID_LINE; (set_count as usize) * assoc],
            set_count,
            set_shift: params.line_bytes.trailing_zeros(),
            assoc,
            tick: 0,
            rng: 0x9e3779b97f4a7c15,
            stats: CacheStats::default(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Base address of the line containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !((self.params.line_bytes as u64) - 1)
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.set_shift;
        let set = (line & (self.set_count - 1)) as usize;
        let tag = line >> self.set_count.trailing_zeros();
        (set, tag)
    }

    #[inline]
    fn ways(&self, set: usize) -> &[Line] {
        &self.sets[set * self.assoc..(set + 1) * self.assoc]
    }

    #[inline]
    fn ways_mut(&mut self, set: usize) -> &mut [Line] {
        &mut self.sets[set * self.assoc..(set + 1) * self.assoc]
    }

    /// Look up `addr` without updating statistics or recency — a *snoop
    /// probe*. Returns the line's state (Invalid when absent).
    pub fn probe(&self, addr: u64) -> Mesi {
        let (set, tag) = self.set_and_tag(addr);
        self.ways(set)
            .iter()
            .find(|l| l.state.is_valid() && l.tag == tag)
            .map(|l| l.state)
            .unwrap_or(Mesi::Invalid)
    }

    /// CPU-side lookup: updates hit/miss statistics and (on hits) recency.
    /// Returns the state (Invalid on miss).
    pub fn lookup(&mut self, addr: u64) -> Mesi {
        self.tick += 1;
        let tick = self.tick;
        let lru = self.params.replacement == Replacement::Lru;
        let (set, tag) = self.set_and_tag(addr);
        let found = self
            .ways_mut(set)
            .iter_mut()
            .find(|l| l.state.is_valid() && l.tag == tag)
            .map(|l| {
                if lru {
                    l.stamp = tick;
                }
                l.state
            });
        match found {
            Some(st) => {
                self.stats.hits += 1;
                st
            }
            None => {
                self.stats.misses += 1;
                Mesi::Invalid
            }
        }
    }

    /// Change the state of a present line. Panics if absent (model bug).
    pub fn set_state(&mut self, addr: u64, state: Mesi) {
        let (set, tag) = self.set_and_tag(addr);
        let line = self
            .ways_mut(set)
            .iter_mut()
            .find(|l| l.state.is_valid() && l.tag == tag)
            .expect("set_state on absent line");
        line.state = state;
    }

    /// Insert the line containing `addr` with `state`, evicting if needed.
    /// Returns the victim when a valid line was displaced. Panics if the
    /// line is already present (callers must lookup first).
    pub fn fill(&mut self, addr: u64, state: Mesi) -> Option<Victim> {
        assert!(state.is_valid(), "cannot fill an invalid line");
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        debug_assert!(
            !self
                .ways(set)
                .iter()
                .any(|l| l.state.is_valid() && l.tag == tag),
            "fill of already-present line {addr:#x}"
        );
        // Prefer an invalid way.
        if let Some(l) = self.ways_mut(set).iter_mut().find(|l| !l.state.is_valid()) {
            *l = Line {
                tag,
                state,
                stamp: tick,
            };
            return None;
        }
        // Choose a victim.
        let way = match self.params.replacement {
            Replacement::Lru | Replacement::Fifo => {
                let ways = self.ways(set);
                (0..self.assoc).min_by_key(|&w| ways[w].stamp).unwrap()
            }
            Replacement::Random => {
                // xorshift64*
                self.rng ^= self.rng >> 12;
                self.rng ^= self.rng << 25;
                self.rng ^= self.rng >> 27;
                (self.rng.wrapping_mul(0x2545F4914F6CDD1D) % self.assoc as u64) as usize
            }
        };
        let set_shift = self.set_shift;
        let set_bits = self.set_count.trailing_zeros();
        let victim_line = self.ways(set)[way];
        let victim_addr = ((victim_line.tag << set_bits) | set as u64) << set_shift;
        self.ways_mut(set)[way] = Line {
            tag,
            state,
            stamp: tick,
        };
        self.stats.evictions += 1;
        if victim_line.state.is_dirty() {
            self.stats.writebacks += 1;
        }
        Some(Victim {
            line_addr: victim_addr,
            state: victim_line.state,
        })
    }

    /// Snoop-invalidate the line containing `addr`. Returns the prior state
    /// (Invalid when it was absent). A dirty prior state means the caller
    /// must account a flush.
    pub fn snoop_invalidate(&mut self, addr: u64) -> Mesi {
        let (set, tag) = self.set_and_tag(addr);
        let line = self
            .ways_mut(set)
            .iter_mut()
            .find(|l| l.state.is_valid() && l.tag == tag);
        match line {
            Some(l) => {
                let old = l.state;
                l.state = Mesi::Invalid;
                self.stats.snoop_invalidations += 1;
                if old.is_dirty() {
                    self.stats.snoop_flushes += 1;
                }
                old
            }
            None => Mesi::Invalid,
        }
    }

    /// Snoop-downgrade for a remote read: `M`/`E` lines become `S`. Returns
    /// the prior state (a dirty prior state means a flush was supplied).
    pub fn snoop_downgrade(&mut self, addr: u64) -> Mesi {
        let (set, tag) = self.set_and_tag(addr);
        let line = self
            .ways_mut(set)
            .iter_mut()
            .find(|l| l.state.is_valid() && l.tag == tag);
        match line {
            Some(l) => {
                let old = l.state;
                if matches!(old, Mesi::Modified | Mesi::Exclusive) {
                    l.state = Mesi::Shared;
                }
                if old.is_dirty() {
                    self.stats.snoop_flushes += 1;
                }
                old
            }
            None => Mesi::Invalid,
        }
    }

    /// Approximate simulator-side footprint of this cache model in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.sets.len() * std::mem::size_of::<Line>() + std::mem::size_of::<Self>()
    }

    /// Iterate valid lines as `(line_addr, state)` (diagnostics/tests).
    pub fn iter_valid(&self) -> impl Iterator<Item = (u64, Mesi)> + '_ {
        let set_bits = self.set_count.trailing_zeros();
        let shift = self.set_shift;
        self.sets
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state.is_valid())
            .map(move |(i, l)| {
                let set = (i / self.assoc) as u64;
                (((l.tag << set_bits) | set) << shift, l.state)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Replacement, WritePolicy};
    use pearl::Duration;

    fn params(size: u64, line: u32, assoc: u32, repl: Replacement) -> CacheParams {
        CacheParams {
            size_bytes: size,
            line_bytes: line,
            assoc,
            write_policy: WritePolicy::WriteBack,
            write_allocate: true,
            replacement: repl,
            hit_latency: Duration::from_ns(1),
        }
    }

    fn small_lru() -> Cache {
        // 4 sets × 2 ways × 32-byte lines = 256 B.
        Cache::new(params(256, 32, 2, Replacement::Lru))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_lru();
        assert_eq!(c.lookup(0x100), Mesi::Invalid);
        assert!(c.fill(0x100, Mesi::Exclusive).is_none());
        assert_eq!(c.lookup(0x100), Mesi::Exclusive);
        // Same line, different offset.
        assert_eq!(c.lookup(0x11f), Mesi::Exclusive);
        // Next line misses.
        assert_eq!(c.lookup(0x120), Mesi::Invalid);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = small_lru();
        assert_eq!(c.line_addr(0x137), 0x120);
        assert_eq!(c.line_addr(0x120), 0x120);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_lru();
        // Set 0 holds lines whose (addr >> 5) % 4 == 0: 0x000, 0x080, 0x100…
        c.fill(0x000, Mesi::Shared);
        c.fill(0x080, Mesi::Shared);
        // Touch 0x000 so 0x080 is LRU.
        assert_eq!(c.lookup(0x000), Mesi::Shared);
        let v = c.fill(0x100, Mesi::Shared).unwrap();
        assert_eq!(v.line_addr, 0x080);
        assert_eq!(v.state, Mesi::Shared);
        assert_eq!(c.probe(0x000), Mesi::Shared);
        assert_eq!(c.probe(0x080), Mesi::Invalid);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = Cache::new(params(256, 32, 2, Replacement::Fifo));
        c.fill(0x000, Mesi::Shared);
        c.fill(0x080, Mesi::Shared);
        // Touch 0x000; FIFO still evicts it (filled first).
        c.lookup(0x000);
        let v = c.fill(0x100, Mesi::Shared).unwrap();
        assert_eq!(v.line_addr, 0x000);
    }

    #[test]
    fn random_replacement_is_deterministic() {
        let mut a = Cache::new(params(256, 32, 2, Replacement::Random));
        let mut b = Cache::new(params(256, 32, 2, Replacement::Random));
        for addr in (0..).step_by(0x80).take(20) {
            let va = if a.lookup(addr) == Mesi::Invalid {
                a.fill(addr, Mesi::Shared)
            } else {
                None
            };
            let vb = if b.lookup(addr) == Mesi::Invalid {
                b.fill(addr, Mesi::Shared)
            } else {
                None
            };
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_lru();
        c.fill(0x000, Mesi::Modified);
        c.fill(0x080, Mesi::Shared);
        let v = c.fill(0x100, Mesi::Shared).unwrap();
        assert_eq!(v.line_addr, 0x000);
        assert!(v.state.is_dirty());
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn snoop_invalidate_returns_old_state() {
        let mut c = small_lru();
        c.fill(0x200, Mesi::Modified);
        assert_eq!(c.snoop_invalidate(0x200), Mesi::Modified);
        assert_eq!(c.probe(0x200), Mesi::Invalid);
        assert_eq!(c.snoop_invalidate(0x200), Mesi::Invalid);
        assert_eq!(c.stats().snoop_invalidations, 1);
        assert_eq!(c.stats().snoop_flushes, 1);
    }

    #[test]
    fn snoop_downgrade_demotes_owners() {
        let mut c = small_lru();
        c.fill(0x200, Mesi::Modified);
        assert_eq!(c.snoop_downgrade(0x200), Mesi::Modified);
        assert_eq!(c.probe(0x200), Mesi::Shared);
        // Downgrading a shared line leaves it shared.
        assert_eq!(c.snoop_downgrade(0x200), Mesi::Shared);
        assert_eq!(c.probe(0x200), Mesi::Shared);
        assert_eq!(c.stats().snoop_flushes, 1);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = small_lru();
        c.fill(0x40, Mesi::Exclusive);
        c.set_state(0x40, Mesi::Modified);
        assert_eq!(c.probe(0x40), Mesi::Modified);
    }

    #[test]
    #[should_panic(expected = "absent line")]
    fn set_state_on_absent_line_panics() {
        let mut c = small_lru();
        c.set_state(0x40, Mesi::Modified);
    }

    #[test]
    fn probe_does_not_change_stats_or_recency() {
        let mut c = small_lru();
        c.fill(0x000, Mesi::Shared);
        c.fill(0x080, Mesi::Shared);
        let before = c.stats();
        // Probe 0x000 (would refresh LRU if it were a lookup).
        assert_eq!(c.probe(0x000), Mesi::Shared);
        assert_eq!(c.stats(), before);
        // 0x000 is still the LRU victim.
        let v = c.fill(0x100, Mesi::Shared).unwrap();
        assert_eq!(v.line_addr, 0x000);
    }

    #[test]
    fn iter_valid_reconstructs_addresses() {
        let mut c = small_lru();
        c.fill(0x0123 & !31, Mesi::Shared);
        c.fill(0x4560 & !31, Mesi::Modified);
        let mut lines: Vec<_> = c.iter_valid().collect();
        lines.sort();
        assert_eq!(
            lines,
            vec![
                (0x0123u64 & !31, Mesi::Shared),
                (0x4560u64 & !31, Mesi::Modified)
            ]
        );
    }

    #[test]
    fn footprint_is_small_and_size_independent() {
        // A 1 MiB cache with 64-byte lines = 16384 lines of tag state.
        let big = Cache::new(params(1 << 20, 64, 8, Replacement::Lru));
        // Tags-only: far below the simulated capacity.
        assert!(big.footprint_bytes() < (1 << 20) / 2);
        assert_eq!(big.iter_valid().count(), 0);
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = small_lru();
        c.fill(0x00, Mesi::Shared);
        c.lookup(0x00);
        c.lookup(0x00);
        c.lookup(0x999); // miss
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
