//! Cross-obligation lemma pool: learnt clauses keyed by CNF fingerprint.
//!
//! PR 4's [`crate::ObligationCache`] reuses *verdicts*: an obligation
//! whose fingerprint was already decided skips its solver entirely. The
//! [`LemmaPool`] extends that reuse to *lemma level*: when an obligation
//! does have to solve, the short/low-glue clauses its solver learns are
//! stored under the same 128-bit canonical-CNF fingerprint, and the next
//! solver over a fingerprint-identical formula imports them at decision
//! level 0 before searching.
//!
//! Soundness is inherited from the fingerprint: pool entries only ever
//! reach a solver whose canonicalised CNF (plus asserted root) is
//! byte-identical to the exporter's, and every stored clause is a learnt
//! clause of that CNF — i.e. entailed by it. Imports can therefore
//! change *effort* (fewer conflicts on a warm pool), never *answers*.
//!
//! Like the verdict store, the pool is lock-striped (16 shards on the
//! fingerprint's top bits) so parallel obligations populate it
//! concurrently, and it persists alongside the verdict file (see
//! `persist`) so warm process restarts keep their lemmas too.

use crate::fingerprint::Fingerprint;
use sat::Lit;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of lock stripes (same layout as the verdict store).
const SHARDS: usize = 16;

/// Hard cap on stored clauses per fingerprint. Inserts beyond the cap
/// keep the shortest clauses (ties broken lexicographically), which are
/// the cheapest to import and the strongest per literal.
pub const MAX_CLAUSES_PER_ENTRY: usize = 256;

/// Counter snapshot of a [`LemmaPool`] (see [`LemmaPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Lookups that found a non-empty clause list.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Insert calls that stored at least one new clause.
    pub inserts: u64,
    /// Distinct fingerprints currently in the pool.
    pub entries: u64,
    /// Total clauses currently stored across all entries.
    pub clauses: u64,
}

/// A sharded, content-addressed pool of learnt clauses. Disabled pools
/// (the [`crate::noop`] cache's) drop every insert and miss every
/// lookup without counting, keeping uncached paths byte-identical.
#[derive(Debug)]
pub struct LemmaPool {
    enabled: bool,
    shards: Vec<Mutex<HashMap<u128, Vec<Vec<Lit>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl LemmaPool {
    /// Creates an empty, enabled pool.
    pub fn new() -> Self {
        LemmaPool {
            enabled: true,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Creates a disabled pool (all operations are no-ops).
    pub fn disabled() -> Self {
        LemmaPool {
            enabled: false,
            ..LemmaPool::new()
        }
    }

    /// Whether this pool stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<HashMap<u128, Vec<Vec<Lit>>>> {
        &self.shards[((fp.0 >> 124) as usize) % SHARDS]
    }

    /// The clauses stored under `fp` (empty when absent). Counts a hit
    /// when non-empty, a miss otherwise.
    pub fn lookup(&self, fp: Fingerprint) -> Vec<Vec<Lit>> {
        if !self.enabled {
            return Vec::new();
        }
        let shard = self.shard(fp).lock().expect("lemma shard poisoned");
        match shard.get(&fp.0) {
            Some(clauses) if !clauses.is_empty() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                clauses.clone()
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Merges `clauses` into the entry for `fp`: literals are sorted
    /// within each clause, duplicates (and empty clauses) dropped, and
    /// the merged list re-sorted by (length, literals) and truncated to
    /// [`MAX_CLAUSES_PER_ENTRY`] — a deterministic normal form for any
    /// given insert history.
    pub fn insert(&self, fp: Fingerprint, clauses: &[Vec<Lit>]) {
        if !self.enabled || clauses.is_empty() {
            return;
        }
        let mut incoming: Vec<Vec<Lit>> = clauses
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c.dedup();
                c
            })
            .collect();
        if incoming.is_empty() {
            return;
        }
        let mut shard = self.shard(fp).lock().expect("lemma shard poisoned");
        let entry = shard.entry(fp.0).or_default();
        // Compare content, not length: at the cap a shorter clause can
        // displace a longer one and leave the length unchanged.
        let before = entry.clone();
        entry.append(&mut incoming);
        entry.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        entry.dedup();
        entry.truncate(MAX_CLAUSES_PER_ENTRY);
        if *entry != before {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot plus current entry/clause totals.
    pub fn stats(&self) -> PoolStats {
        let (mut entries, mut clauses) = (0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock().expect("lemma shard poisoned");
            entries += shard.len() as u64;
            clauses += shard.values().map(|v| v.len() as u64).sum::<u64>();
        }
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries,
            clauses,
        }
    }

    /// Distinct fingerprints stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("lemma shard poisoned").len())
            .sum()
    }

    /// Whether the pool holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries sorted by fingerprint (clause lists are already in
    /// their deterministic normal form) — the persistence order.
    pub fn entries_sorted(&self) -> Vec<(Fingerprint, Vec<Vec<Lit>>)> {
        let mut all: Vec<(Fingerprint, Vec<Vec<Lit>>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("lemma shard poisoned");
            all.extend(
                shard
                    .iter()
                    .map(|(&fp, clauses)| (Fingerprint(fp), clauses.clone())),
            );
        }
        all.sort_unstable_by_key(|(fp, _)| fp.0);
        all
    }

    /// Copies every entry of `self` into `other` (used to carry lemmas
    /// into a fresh cache — see `ObligationCache::retain_lemmas`).
    pub(crate) fn copy_into(&self, other: &LemmaPool) {
        for (fp, clauses) in self.entries_sorted() {
            other.insert(fp, &clauses);
        }
    }
}

impl Default for LemmaPool {
    fn default() -> Self {
        LemmaPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBuilder;
    use sat::Var;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_polarity(Var::from_index(i), pos)
    }

    fn fp(tag: &str) -> Fingerprint {
        FingerprintBuilder::new(tag).finish()
    }

    #[test]
    fn lookup_miss_then_hit() {
        let pool = LemmaPool::new();
        let f = fp("a");
        assert!(pool.lookup(f).is_empty());
        pool.insert(f, &[vec![lit(0, true), lit(1, false)]]);
        let got = pool.lookup(f);
        assert_eq!(got, vec![vec![lit(0, true), lit(1, false)]]);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!((stats.entries, stats.clauses), (1, 1));
    }

    #[test]
    fn insert_normalises_and_dedups() {
        let pool = LemmaPool::new();
        let f = fp("a");
        pool.insert(f, &[vec![lit(1, false), lit(0, true)]]);
        pool.insert(f, &[vec![lit(0, true), lit(1, false)], vec![lit(2, true)]]);
        let got = pool.lookup(f);
        // Normal form: sorted by (len, lits); the duplicate collapsed.
        assert_eq!(
            got,
            vec![vec![lit(2, true)], vec![lit(0, true), lit(1, false)]]
        );
    }

    #[test]
    fn empty_clauses_are_dropped() {
        let pool = LemmaPool::new();
        let f = fp("a");
        pool.insert(f, &[Vec::new()]);
        assert!(pool.is_empty());
        assert!(pool.lookup(f).is_empty());
    }

    #[test]
    fn cap_keeps_the_shortest_clauses() {
        let pool = LemmaPool::new();
        let f = fp("a");
        // Insert MAX+10 distinct two-literal clauses and one unit.
        let mut clauses: Vec<Vec<Lit>> = (0..MAX_CLAUSES_PER_ENTRY + 10)
            .map(|i| vec![lit(i, true), lit(i + 1, false)])
            .collect();
        clauses.push(vec![lit(0, false)]);
        pool.insert(f, &clauses);
        let got = pool.lookup(f);
        assert_eq!(got.len(), MAX_CLAUSES_PER_ENTRY);
        // The unit survived the truncation (shortest first).
        assert_eq!(got[0], vec![lit(0, false)]);
    }

    #[test]
    fn displacing_insert_at_the_cap_is_counted() {
        let pool = LemmaPool::new();
        let f = fp("a");
        let full: Vec<Vec<Lit>> = (0..MAX_CLAUSES_PER_ENTRY)
            .map(|i| vec![lit(i, true), lit(i + 1, false)])
            .collect();
        pool.insert(f, &full);
        // A unit displaces the longest stored clause: same length, new
        // content, so it counts.
        pool.insert(f, &[vec![lit(0, false)]]);
        assert_eq!(pool.stats().inserts, 2);
        // Re-inserting a stored clause changes nothing and does not count.
        pool.insert(f, &[full[0].clone()]);
        assert_eq!(pool.stats().inserts, 2);
    }

    #[test]
    fn disabled_pool_is_inert() {
        let pool = LemmaPool::disabled();
        let f = fp("a");
        pool.insert(f, &[vec![lit(0, true)]]);
        assert!(pool.lookup(f).is_empty());
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn entries_sort_by_fingerprint() {
        let pool = LemmaPool::new();
        for tag in ["a", "b", "c", "d"] {
            pool.insert(fp(tag), &[vec![lit(0, true)]]);
        }
        let entries = pool.entries_sorted();
        assert_eq!(entries.len(), 4);
        assert!(entries.windows(2).all(|w| w[0].0 .0 < w[1].0 .0));
    }

    #[test]
    fn copy_into_carries_everything() {
        let pool = LemmaPool::new();
        pool.insert(fp("a"), &[vec![lit(0, true)], vec![lit(1, false)]]);
        pool.insert(fp("b"), &[vec![lit(2, true)]]);
        let fresh = LemmaPool::new();
        pool.copy_into(&fresh);
        assert_eq!(fresh.entries_sorted(), pool.entries_sorted());
    }
}
