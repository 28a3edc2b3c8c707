//! The in-memory obligation store: lock-striped, shared across worker
//! threads, with hit/miss accounting.

use crate::Fingerprint;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards. Obligations hash uniformly
/// across shards, so contention between [`exec`-style] worker pools stays
/// negligible at the workspace's worker counts (≤ 16).
const SHARDS: usize = 16;

/// Cache traffic counters, snapshot by [`ObligationCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a payload.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Payloads stored (re-insertions under the same fingerprint count
    /// too, but do not grow `entries`).
    pub inserts: u64,
    /// Distinct fingerprints currently stored.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-engine-tag traffic counters, snapshot by
/// [`ObligationCache::stats_by_tag`]. The tag is the engine label a
/// caller passes to [`ObligationCache::lookup_tagged`] — normally the
/// same string the engine feeds to `FingerprintBuilder::new`, so the
/// breakdown matches the fingerprint domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagStats {
    /// Lookups under this tag that found a payload.
    pub hits: u64,
    /// Lookups under this tag that found nothing.
    pub misses: u64,
    /// Payloads stored under this tag.
    pub inserts: u64,
}

impl TagStats {
    /// Fraction of this tag's lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent map from obligation [`Fingerprint`]s to engine-encoded
/// verdict payloads.
///
/// Lookups and inserts take one shard lock each; the instance is shared
/// by reference across `exec::map` workers.
/// A [`ObligationCache::disabled`] instance (see [`crate::noop`]) ignores
/// all traffic, keeping un-cached entry points byte-identical to the
/// pre-cache code paths.
#[derive(Debug)]
pub struct ObligationCache {
    enabled: bool,
    shards: Vec<Mutex<HashMap<u128, String>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    /// Per-tag traffic. One coarse lock: tagged traffic is a few dozen
    /// probes per flow (the hot sharded path above is untouched), and the
    /// `BTreeMap` keeps [`ObligationCache::stats_by_tag`] deterministic.
    tags: Mutex<BTreeMap<String, TagStats>>,
    /// Fast gate for tenant attribution: `false` (the default) keeps
    /// every legacy code path at one relaxed atomic load of overhead.
    tenancy_on: AtomicBool,
    /// Tenant attribution state (service mode); see
    /// [`ObligationCache::set_tenant`].
    tenancy: Mutex<Tenancy>,
}

/// Per-tenant attribution state, active only while a batch service has
/// declared a current tenant via [`ObligationCache::set_tenant`].
#[derive(Debug, Default)]
struct Tenancy {
    /// Tenant charged for current traffic (`None` = unattributed).
    current: Option<String>,
    /// Per-tenant traffic, keyed by tenant label.
    traffic: BTreeMap<String, TagStats>,
    /// Hits on entries first inserted by a *different* tenant — the
    /// cross-tenant sharing the content-addressed fingerprints make
    /// sound, counted per benefiting tenant.
    cross_hits: BTreeMap<String, u64>,
    /// First inserting tenant per fingerprint (first writer wins;
    /// concurrent writers within one job share one tenant, and equal
    /// fingerprints carry equal payloads anyway).
    owners: HashMap<u128, String>,
}

impl Default for ObligationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ObligationCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        ObligationCache {
            enabled: true,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            tags: Mutex::new(BTreeMap::new()),
            tenancy_on: AtomicBool::new(false),
            tenancy: Mutex::new(Tenancy::default()),
        }
    }

    /// A cache that ignores all traffic (see [`crate::noop`]).
    pub fn disabled() -> Self {
        ObligationCache {
            enabled: false,
            ..ObligationCache::new()
        }
    }

    /// Whether lookups/inserts are live (false only for [`crate::noop`]).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<HashMap<u128, String>> {
        // High bits select the shard; the full value keys the map.
        &self.shards[(fp.0 >> 124) as usize % SHARDS]
    }

    /// Returns the payload stored for `fp`, counting a hit or miss.
    /// Disabled caches always return `None` without counting.
    pub fn lookup(&self, fp: Fingerprint) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let found = self.shard(fp).lock().unwrap().get(&fp.0).cloned();
        if self.tenancy_on.load(Ordering::Relaxed) {
            self.attribute_lookup(fp, found.is_some());
        }
        match found {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `payload` under `fp` (last writer wins — callers only ever
    /// race identical payloads, since equal fingerprints mean equal
    /// obligations decided by a deterministic engine).
    pub fn insert(&self, fp: Fingerprint, payload: String) {
        if !self.enabled {
            return;
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.shard(fp).lock().unwrap().insert(fp.0, payload);
        if self.tenancy_on.load(Ordering::Relaxed) {
            self.attribute_insert(fp);
        }
    }

    /// [`ObligationCache::lookup`] that also attributes the probe to an
    /// engine `tag` for the per-engine breakdown. Disabled caches return
    /// `None` without counting, exactly like the untagged path.
    pub fn lookup_tagged(&self, tag: &str, fp: Fingerprint) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let found = self.lookup(fp);
        let mut tags = self.tags.lock().unwrap_or_else(|p| p.into_inner());
        let t = tags.entry(tag.to_owned()).or_default();
        if found.is_some() {
            t.hits += 1;
        } else {
            t.misses += 1;
        }
        found
    }

    /// [`ObligationCache::insert`] that also attributes the store to an
    /// engine `tag`.
    pub fn insert_tagged(&self, tag: &str, fp: Fingerprint, payload: String) {
        if !self.enabled {
            return;
        }
        self.insert(fp, payload);
        let mut tags = self.tags.lock().unwrap_or_else(|p| p.into_inner());
        tags.entry(tag.to_owned()).or_default().inserts += 1;
    }

    /// Per-tag traffic snapshot, sorted by tag name (deterministic).
    /// Only traffic routed through the `_tagged` entry points appears.
    pub fn stats_by_tag(&self) -> Vec<(String, TagStats)> {
        let tags = self.tags.lock().unwrap_or_else(|p| p.into_inner());
        tags.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Declares the tenant to charge for subsequent traffic (`None`
    /// stops attribution). A batch service brackets each job with
    /// `set_tenant(Some(label))` / `set_tenant(None)` from its
    /// coordinator thread; the job's worker threads then share the label
    /// because they all run inside the bracket. With no tenant declared
    /// (the default), every legacy path pays one relaxed atomic load and
    /// nothing else — the accumulated per-tenant breakdown is untouched.
    /// No-op on disabled caches, which stay observationally inert.
    pub fn set_tenant(&self, tenant: Option<&str>) {
        if !self.enabled {
            return;
        }
        let mut t = self.tenancy.lock().unwrap_or_else(|p| p.into_inner());
        t.current = tenant.map(str::to_owned);
        self.tenancy_on
            .store(t.current.is_some(), Ordering::Relaxed);
    }

    /// Per-tenant traffic snapshot, sorted by tenant label
    /// (deterministic). Only traffic that ran inside a
    /// [`ObligationCache::set_tenant`] bracket appears.
    pub fn stats_by_tenant(&self) -> Vec<(String, TagStats)> {
        let t = self.tenancy.lock().unwrap_or_else(|p| p.into_inner());
        t.traffic.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Cross-tenant sharing snapshot, sorted by tenant label: for each
    /// tenant, how many of its hits were served by entries another
    /// tenant inserted first. Tenants whose hits were all self-inserted
    /// do not appear.
    pub fn cross_tenant_hits(&self) -> Vec<(String, u64)> {
        let t = self.tenancy.lock().unwrap_or_else(|p| p.into_inner());
        t.cross_hits.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Charges one lookup to the current tenant (and, on a hit against
    /// another tenant's entry, counts the cross-tenant share).
    fn attribute_lookup(&self, fp: Fingerprint, hit: bool) {
        let mut t = self.tenancy.lock().unwrap_or_else(|p| p.into_inner());
        let Some(cur) = t.current.clone() else { return };
        let stats = t.traffic.entry(cur.clone()).or_default();
        if hit {
            stats.hits += 1;
            if t.owners.get(&fp.0).is_some_and(|owner| *owner != cur) {
                *t.cross_hits.entry(cur).or_insert(0) += 1;
            }
        } else {
            stats.misses += 1;
        }
    }

    /// Charges one insert to the current tenant and records it as the
    /// entry's owner if the fingerprint is new.
    fn attribute_insert(&self, fp: Fingerprint) {
        let mut t = self.tenancy.lock().unwrap_or_else(|p| p.into_inner());
        let Some(cur) = t.current.clone() else { return };
        t.traffic.entry(cur.clone()).or_default().inserts += 1;
        t.owners.entry(fp.0).or_insert(cur);
    }

    /// Number of distinct entries stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the traffic counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// All entries as `(fingerprint, payload)` pairs, sorted by
    /// fingerprint — the deterministic order used by persistence.
    pub fn entries_sorted(&self) -> Vec<(Fingerprint, String)> {
        let mut out: Vec<(Fingerprint, String)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            for (&fp, payload) in shard.lock().unwrap().iter() {
                out.push((Fingerprint(fp), payload.clone()));
            }
        }
        out.sort_unstable_by_key(|(fp, _)| *fp);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FingerprintBuilder;

    fn fp(i: u64) -> Fingerprint {
        FingerprintBuilder::new("t").param(i).finish()
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let c = ObligationCache::new();
        assert_eq!(c.lookup(fp(1)), None);
        c.insert(fp(1), "P".into());
        assert_eq!(c.lookup(fp(1)), Some("P".into()));
        assert_eq!(c.lookup(fp(2)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 2, 1, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn entries_sorted_is_deterministic() {
        let c = ObligationCache::new();
        for i in (0..50).rev() {
            c.insert(fp(i), format!("v{i}"));
        }
        let e = c.entries_sorted();
        assert_eq!(e.len(), 50);
        assert!(e.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn tagged_traffic_splits_by_engine() {
        let c = ObligationCache::new();
        assert_eq!(c.lookup_tagged("bmc", fp(1)), None);
        c.insert_tagged("bmc", fp(1), "V".into());
        assert_eq!(c.lookup_tagged("bmc", fp(1)), Some("V".into()));
        assert_eq!(c.lookup_tagged("reach", fp(2)), None);
        let by_tag = c.stats_by_tag();
        assert_eq!(by_tag.len(), 2);
        assert_eq!(by_tag[0].0, "bmc");
        assert_eq!(
            (by_tag[0].1.hits, by_tag[0].1.misses, by_tag[0].1.inserts),
            (1, 1, 1)
        );
        assert_eq!(by_tag[1].0, "reach");
        assert_eq!((by_tag[1].1.hits, by_tag[1].1.misses), (0, 1));
        assert_eq!(by_tag[0].1.hit_rate(), 0.5);
        assert_eq!(TagStats::default().hit_rate(), 0.0);
        // Tagged traffic still feeds the aggregate counters.
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        // Disabled caches ignore tagged traffic entirely.
        let d = ObligationCache::disabled();
        assert_eq!(d.lookup_tagged("bmc", fp(1)), None);
        d.insert_tagged("bmc", fp(1), "V".into());
        assert!(d.stats_by_tag().is_empty());
    }

    #[test]
    fn tenant_attribution_counts_cross_tenant_hits() {
        let c = ObligationCache::new();
        // Unattributed traffic never appears in the tenant breakdown.
        c.insert(fp(0), "warm".into());
        assert_eq!(c.lookup(fp(0)), Some("warm".into()));
        assert!(c.stats_by_tenant().is_empty());

        c.set_tenant(Some("alpha"));
        assert_eq!(c.lookup(fp(1)), None);
        c.insert(fp(1), "V".into());
        assert_eq!(c.lookup(fp(1)), Some("V".into()));

        c.set_tenant(Some("beta"));
        // beta hits alpha's entry: a cross-tenant hit.
        assert_eq!(c.lookup(fp(1)), Some("V".into()));
        // beta hits its own entry: not cross-tenant.
        c.insert(fp(2), "W".into());
        assert_eq!(c.lookup(fp(2)), Some("W".into()));
        // beta hits the pre-tenancy entry: unowned, not cross-tenant.
        assert_eq!(c.lookup(fp(0)), Some("warm".into()));
        c.set_tenant(None);
        // Attribution off again: traffic no longer charged.
        assert_eq!(c.lookup(fp(1)), Some("V".into()));

        let by_tenant = c.stats_by_tenant();
        assert_eq!(by_tenant.len(), 2);
        assert_eq!(by_tenant[0].0, "alpha");
        assert_eq!(
            (
                by_tenant[0].1.hits,
                by_tenant[0].1.misses,
                by_tenant[0].1.inserts
            ),
            (1, 1, 1)
        );
        assert_eq!(by_tenant[1].0, "beta");
        assert_eq!(
            (
                by_tenant[1].1.hits,
                by_tenant[1].1.misses,
                by_tenant[1].1.inserts
            ),
            (3, 0, 1)
        );
        assert_eq!(c.cross_tenant_hits(), vec![("beta".to_owned(), 1)]);

        // Disabled caches ignore tenancy entirely.
        let d = ObligationCache::disabled();
        d.set_tenant(Some("alpha"));
        d.insert(fp(1), "V".into());
        assert_eq!(d.lookup(fp(1)), None);
        assert!(d.stats_by_tenant().is_empty());
        assert!(d.cross_tenant_hits().is_empty());
    }

    #[test]
    fn concurrent_traffic_is_safe_and_complete() {
        let c = ObligationCache::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..100 {
                        let k = fp(t * 1000 + i);
                        c.insert(k, "x".into());
                        assert_eq!(c.lookup(k), Some("x".into()));
                    }
                });
            }
        });
        assert_eq!(c.len(), 800);
        assert_eq!(c.stats().hits, 800);
    }
}
