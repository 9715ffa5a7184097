//! Pearl-style synchronous messaging helpers.
//!
//! The kernel itself is purely asynchronous (timestamped one-way events).
//! Pearl models, however, frequently use *synchronous* (rendezvous)
//! communication: a sender blocks until the matching receiver arrives, and
//! vice versa. These helpers implement the bookkeeping for that pattern on
//! top of the event kernel; the architecture models use them to implement
//! blocking `send`/`recv` message passing and request/reply transactions.

use crate::hash::FastHashMap;
use std::collections::VecDeque;
use std::hash::Hash;

/// Generates unique correlation tokens for request/reply transactions.
#[derive(Debug, Default, Clone)]
pub struct TokenGen {
    next: u64,
}

impl TokenGen {
    /// A fresh generator starting at token 0.
    pub fn new() -> Self {
        TokenGen::default()
    }

    /// Produce the next unique token.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let t = self.next;
        self.next += 1;
        t
    }
}

/// A two-sided matcher for rendezvous communication.
///
/// One side posts *arrivals* (e.g. messages that reached a node), the other
/// posts *waiters* (e.g. `recv` operations blocked on a source). Whichever
/// side shows up first is queued; when the opposite side appears it is
/// matched FIFO. The key `K` identifies the rendezvous channel (for
/// message-passing: `(source, tag)` or just `source`).
#[derive(Debug)]
pub struct MatchBox<K, A, W> {
    arrivals: Queues<K, A>,
    waiters: Queues<K, W>,
}

/// One side of a [`MatchBox`]: a FIFO queue per channel.
pub type Queues<K, T> = FastHashMap<K, VecDeque<T>>;

impl<K: Eq + Hash + Clone, A, W> Default for MatchBox<K, A, W> {
    fn default() -> Self {
        MatchBox::new()
    }
}

impl<K: Eq + Hash + Clone, A, W> MatchBox<K, A, W> {
    /// An empty matcher.
    pub fn new() -> Self {
        MatchBox {
            arrivals: FastHashMap::default(),
            waiters: FastHashMap::default(),
        }
    }

    /// Post an arrival on channel `k`. If a waiter is queued, it is removed
    /// and returned (the rendezvous completes); otherwise the arrival is
    /// queued and `None` is returned.
    pub fn arrive(&mut self, k: K, a: A) -> Option<W> {
        if let Some(q) = self.waiters.get_mut(&k) {
            if let Some(w) = q.pop_front() {
                if q.is_empty() {
                    self.waiters.remove(&k);
                }
                return Some(w);
            }
        }
        self.arrivals.entry(k).or_default().push_back(a);
        None
    }

    /// Post a waiter on channel `k`. If an arrival is queued, it is removed
    /// and returned; otherwise the waiter is queued and `None` is returned.
    pub fn wait(&mut self, k: K, w: W) -> Option<A> {
        if let Some(q) = self.arrivals.get_mut(&k) {
            if let Some(a) = q.pop_front() {
                if q.is_empty() {
                    self.arrivals.remove(&k);
                }
                return Some(a);
            }
        }
        self.waiters.entry(k).or_default().push_back(w);
        None
    }

    /// Remove and return the oldest queued arrival on channel `k` without
    /// posting a waiter (a non-blocking poll).
    pub fn take_arrival(&mut self, k: &K) -> Option<A> {
        let q = self.arrivals.get_mut(k)?;
        let a = q.pop_front();
        if q.is_empty() {
            self.arrivals.remove(k);
        }
        a
    }

    /// True when at least one waiter is queued on channel `k`.
    pub fn has_waiter(&self, k: &K) -> bool {
        self.waiters.get(k).is_some_and(|q| !q.is_empty())
    }

    /// True when nothing is queued on either side.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty() && self.waiters.is_empty()
    }

    /// Both sides' FIFO queues by channel, arrivals first (for
    /// checkpointing). Iteration order is the hash maps' — callers needing
    /// determinism must sort.
    pub fn queues_mut(&mut self) -> (&mut Queues<K, A>, &mut Queues<K, W>) {
        (&mut self.arrivals, &mut self.waiters)
    }
}

/// Outstanding request/reply transactions keyed by correlation token.
///
/// A component that issues a request stores its continuation state here and
/// retrieves it when the reply event carries the token back.
#[derive(Debug)]
pub struct Pending<V> {
    tokens: TokenGen,
    inflight: FastHashMap<u64, V>,
}

impl<V> Default for Pending<V> {
    fn default() -> Self {
        Pending::new()
    }
}

impl<V> Pending<V> {
    /// An empty transaction table.
    pub fn new() -> Self {
        Pending {
            tokens: TokenGen::new(),
            inflight: FastHashMap::default(),
        }
    }

    /// Record a new outstanding transaction; returns its token.
    pub fn issue(&mut self, state: V) -> u64 {
        let t = self.tokens.next();
        self.inflight.insert(t, state);
        t
    }

    /// Complete the transaction `token`, returning its stored state.
    ///
    /// Returns `None` if the token is unknown — a duplicate reply, or a
    /// reply arriving after the requester timed out and gave up. Both are
    /// legal under lossy transports (a retry can race its own late ack),
    /// so the caller decides whether an unknown token is a protocol error
    /// or simply ignorable; a table helper must not crash the simulation.
    #[must_use = "an unknown token may be a protocol error the model should handle"]
    pub fn complete(&mut self, token: u64) -> Option<V> {
        self.inflight.remove(&token)
    }

    /// Peek at an outstanding transaction's state.
    pub fn get(&self, token: u64) -> Option<&V> {
        self.inflight.get(&token)
    }

    /// Number of outstanding transactions.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// True when no transactions are outstanding.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Queued (unmatched) entries on one side, across all channels.
    fn queued<K, T>(side: &Queues<K, T>) -> usize {
        side.values().map(VecDeque::len).sum()
    }

    #[test]
    fn tokens_are_unique_and_increasing() {
        let mut g = TokenGen::new();
        assert_eq!(g.next(), 0);
        assert_eq!(g.next(), 1);
        assert_eq!(g.next(), 2);
    }

    #[test]
    fn arrival_first_then_waiter() {
        let mut m: MatchBox<u32, &str, &str> = MatchBox::new();
        assert_eq!(m.arrive(7, "msg"), None);
        assert_eq!(queued(&m.arrivals), 1);
        assert_eq!(m.wait(7, "recv"), Some("msg"));
        assert!(m.is_empty());
    }

    #[test]
    fn waiter_first_then_arrival() {
        let mut m: MatchBox<u32, &str, &str> = MatchBox::new();
        assert_eq!(m.wait(3, "recv"), None);
        assert_eq!(queued(&m.waiters), 1);
        assert_eq!(m.arrive(3, "msg"), Some("recv"));
        assert!(m.is_empty());
    }

    #[test]
    fn matching_is_fifo_per_channel() {
        let mut m: MatchBox<u32, u32, u32> = MatchBox::new();
        m.arrive(1, 10);
        m.arrive(1, 11);
        m.arrive(2, 20);
        assert_eq!(m.wait(1, 0), Some(10));
        assert_eq!(m.wait(1, 0), Some(11));
        assert_eq!(m.wait(2, 0), Some(20));
        assert_eq!(m.wait(1, 99), None);
        assert_eq!(queued(&m.waiters), 1);
    }

    #[test]
    fn channels_are_independent() {
        let mut m: MatchBox<(u32, u32), &str, &str> = MatchBox::new();
        m.arrive((0, 1), "a");
        assert_eq!(m.wait((1, 0), "w"), None);
        assert_eq!(queued(&m.arrivals), 1);
        assert_eq!(queued(&m.waiters), 1);
    }

    #[test]
    fn take_arrival_polls_without_blocking() {
        let mut m: MatchBox<u32, &str, &str> = MatchBox::new();
        assert_eq!(m.take_arrival(&1), None);
        assert!(m.is_empty(), "polling must not register a waiter");
        m.arrive(1, "a");
        m.arrive(1, "b");
        assert_eq!(m.take_arrival(&1), Some("a"));
        assert_eq!(m.take_arrival(&1), Some("b"));
        assert_eq!(m.take_arrival(&1), None);
    }

    #[test]
    fn has_waiter_tracks_queued_waiters() {
        let mut m: MatchBox<u32, &str, &str> = MatchBox::new();
        assert!(!m.has_waiter(&1));
        m.wait(1, "w");
        assert!(m.has_waiter(&1));
        m.arrive(1, "a");
        assert!(!m.has_waiter(&1));
    }

    #[test]
    fn pending_issue_complete_roundtrip() {
        let mut p: Pending<String> = Pending::new();
        let t1 = p.issue("first".into());
        let t2 = p.issue("second".into());
        assert_ne!(t1, t2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(t1).map(String::as_str), Some("first"));
        assert_eq!(p.complete(t2).as_deref(), Some("second"));
        assert_eq!(p.complete(t1).as_deref(), Some("first"));
        assert!(p.is_empty());
    }

    /// A duplicate or post-timeout reply used to panic the whole
    /// simulation; it must instead surface as `None` so the model can
    /// treat it as a protocol error (or ignore a late re-ack).
    #[test]
    fn completing_unknown_token_returns_none() {
        let mut p: Pending<&str> = Pending::new();
        assert_eq!(p.complete(42), None, "never-issued token");
        let t = p.issue("state");
        assert_eq!(p.complete(t), Some("state"));
        assert_eq!(p.complete(t), None, "duplicate reply for the same token");
        assert!(p.is_empty());
    }
}
