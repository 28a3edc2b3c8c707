//! Content-addressed verification-obligation cache.
//!
//! The Symbad flow discharges many near-identical SAT/BDD obligations:
//! every model-checked property, every equivalence miter and every PCC
//! fault mutant builds a formula, solves it, and throws the verdict away.
//! This crate keeps those verdicts. An obligation is *content-addressed*:
//! its [`Fingerprint`] hashes the sources its engine reads — the engine
//! tag and parameters, the netlists (reset values included) and the
//! property structure (`mc::obligation` is the one key encoder) — so two
//! obligations share a cache entry exactly when the same deterministic
//! engine reads the same sources, in which case the verdicts are
//! interchangeable by construction. A probe costs a hash of those
//! sources; the formula is built only on a miss.
//!
//! In the paper's terms this serves the level-4 "model checking and SAT
//! solving" stage and the PCC refinement loop (§3.4), where the extended
//! property set re-checks every mutant the initial set already visited:
//! the [`ObligationCache`] is shared across the flow's obligations
//! (lock-striped, so `exec::ExecMode::Parallel` workers populate it
//! concurrently) and persisted to `target/symbad-cache/` as versioned
//! JSON, written and read through `telemetry::json`, the workspace's one
//! codec (the build is offline — no serde), so a warm rerun of
//! `flow::run_full_flow` skips already-proved obligations entirely.
//!
//! Payloads are plain strings encoded by the engine that owns the entry
//! (`mc` encodes verdicts and counterexample traces, `pcc`/`level4`
//! booleans via [`encode_bool`]); a payload that
//! fails to decode is treated as a miss, never as an error.
//!
//! ```
//! use cache::{FingerprintBuilder, ObligationCache};
//!
//! let cache = ObligationCache::new();
//! let fp = FingerprintBuilder::new("demo").param(42).finish();
//! assert_eq!(cache.lookup(fp), None); // cold
//! cache.insert(fp, "t".to_owned());
//! assert_eq!(cache.lookup(fp), Some("t".to_owned())); // warm
//! assert_eq!(cache.stats().hits, 1);
//! ```

#![warn(missing_docs)]

mod fingerprint;
mod persist;
mod store;

pub use fingerprint::{Fingerprint, FingerprintBuilder};
pub use store::{CacheStats, ObligationCache, TagStats};

use std::sync::OnceLock;

/// A process-wide disabled cache: every lookup misses (uncounted), every
/// insert is dropped. Entry points that do not thread an explicit cache
/// pass this, keeping their behaviour byte-identical to the pre-cache
/// code paths (mirrors `telemetry::noop`).
pub fn noop() -> &'static ObligationCache {
    static NOOP: OnceLock<ObligationCache> = OnceLock::new();
    NOOP.get_or_init(ObligationCache::disabled)
}

/// Encodes a boolean verdict payload (`"t"` / `"f"`).
pub fn encode_bool(value: bool) -> String {
    if value { "t" } else { "f" }.to_owned()
}

/// Decodes a boolean verdict payload; anything unrecognised is `None`
/// (treated by callers as a cache miss).
pub fn decode_bool(payload: &str) -> Option<bool> {
    match payload {
        "t" => Some(true),
        "f" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_cache_never_stores_and_never_counts() {
        let fp = FingerprintBuilder::new("x").finish();
        let c = noop();
        assert_eq!(c.lookup(fp), None);
        c.insert(fp, "t".into());
        assert_eq!(c.lookup(fp), None);
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn bool_payloads_round_trip() {
        assert_eq!(decode_bool(&encode_bool(true)), Some(true));
        assert_eq!(decode_bool(&encode_bool(false)), Some(false));
        assert_eq!(decode_bool("garbage"), None);
    }
}
