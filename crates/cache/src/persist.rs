//! Versioned on-disk persistence under `target/symbad-cache/`.
//!
//! One JSON file, `obligations-v2.json` (verdict payloads), written and
//! read through the workspace's one codec, `telemetry::json`: its writer
//! quotes every string, its depth-bounded parser reads the file back.
//! Entries are written sorted by fingerprint, one per line, so the file
//! is byte-deterministic for a given cache content. Anything unreadable —
//! missing file, wrong version, malformed JSON — loads as empty:
//! persistence can make reruns faster, never wrong.

use crate::{Fingerprint, ObligationCache};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use telemetry::json::{self, Json};

/// Bump (with the file name) when the payload encodings, the key recipe,
/// or what an engine decides from equal sources change: old files then
/// load as empty instead of resurrecting stale verdicts. Version 1 keyed
/// obligations by their built CNF; version 2 keys them by their sources.
pub const FORMAT_VERSION: u64 = 2;

const FILE_NAME: &str = "obligations-v2.json";
const FORMAT_TAG: &str = "symbad-obligation-cache";

impl ObligationCache {
    /// Serialises every entry to `<dir>/obligations-v2.json`, creating
    /// `dir` if needed. Disabled caches write nothing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, file write).
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        fs::create_dir_all(dir)?;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"format\": \"{FORMAT_TAG}\",");
        let _ = writeln!(out, "  \"version\": {FORMAT_VERSION},");
        let _ = write!(out, "  \"entries\": [");
        let entries = self.entries_sorted();
        let has_entries = !entries.is_empty();
        for (i, (fp, payload)) in entries.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{ \"fp\": \"{}\", \"payload\": {} }}",
                fp.to_hex(),
                Json::Str(payload).render()
            );
        }
        if has_entries {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        // Write-then-rename so a reader (or a crash) never sees a
        // truncated file — load_or_empty would treat it as a cold start.
        let tmp = dir.join(format!("{FILE_NAME}.tmp"));
        fs::write(&tmp, out)?;
        fs::rename(tmp, dir.join(FILE_NAME))
    }

    /// Loads the cache persisted in `dir`, or an empty cache when there
    /// is none (first run), the version does not match, or the file is
    /// malformed — a cold start is always a safe answer.
    pub fn load_or_empty(dir: &Path) -> ObligationCache {
        let cache = ObligationCache::new();
        let Ok(text) = fs::read_to_string(dir.join(FILE_NAME)) else {
            return cache;
        };
        let Some(Json::Obj(members)) = json::parse(&text) else {
            return cache;
        };
        let field = |name: &str| members.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        if field("format") != Some(&Json::Str(FORMAT_TAG.to_owned()))
            || field("version") != Some(&Json::UInt(FORMAT_VERSION))
        {
            return cache;
        }
        let Some(Json::Arr(entries)) = field("entries") else {
            return cache;
        };
        for entry in entries {
            let Json::Obj(fields) = entry else { continue };
            let get = |name: &str| {
                fields.iter().find_map(|(k, v)| match v {
                    Json::Str(s) if k == name => Some(s.as_str()),
                    _ => None,
                })
            };
            if let (Some(fp), Some(payload)) = (get("fp"), get("payload")) {
                if let Some(fp) = Fingerprint::from_hex(fp) {
                    cache.insert(fp, payload.to_owned());
                }
            }
        }
        cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FingerprintBuilder;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("symbad-cache-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips_entries() {
        let dir = tmp_dir("roundtrip");
        let c = ObligationCache::new();
        for i in 0..20u64 {
            let fp = FingerprintBuilder::new("t").param(i).finish();
            c.insert(fp, format!("payload \"{i}\"\nline2\ttab"));
        }
        c.save(&dir).expect("save");
        let loaded = ObligationCache::load_or_empty(&dir);
        assert_eq!(loaded.entries_sorted(), c.entries_sorted());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_byte_deterministic() {
        let dir_a = tmp_dir("det-a");
        let dir_b = tmp_dir("det-b");
        for dir in [&dir_a, &dir_b] {
            let c = ObligationCache::new();
            // Insertion order differs; the files must not.
            let range: Vec<u64> = if dir == &dir_a {
                (0..10).collect()
            } else {
                (0..10).rev().collect()
            };
            for i in range {
                c.insert(FingerprintBuilder::new("t").param(i).finish(), "P".into());
            }
            c.save(dir).expect("save");
        }
        let a = fs::read(dir_a.join(FILE_NAME)).unwrap();
        let b = fs::read(dir_b.join(FILE_NAME)).unwrap();
        assert_eq!(a, b);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn missing_or_malformed_files_load_empty() {
        let dir = tmp_dir("missing");
        assert!(ObligationCache::load_or_empty(&dir).is_empty());
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(FILE_NAME), "{ not json").unwrap();
        assert!(ObligationCache::load_or_empty(&dir).is_empty());
        // Wrong version: also empty.
        fs::write(
            dir.join(FILE_NAME),
            format!("{{\"format\": \"{FORMAT_TAG}\", \"version\": 999, \"entries\": []}}"),
        )
        .unwrap();
        assert!(ObligationCache::load_or_empty(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_files_load_as_an_empty_cache() {
        // A well-formed version-1 file keyed entries by their built CNF;
        // its keys mean nothing under the source-keyed recipe, whether it
        // sits under its own name or under the current one.
        let dir = tmp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        let fp = FingerprintBuilder::new("t").param(1).finish();
        let v1 = format!(
            "{{\"format\": \"{FORMAT_TAG}\", \"version\": 1, \"entries\": [{{ \"fp\": \"{}\", \"payload\": \"t\" }}]}}",
            fp.to_hex()
        );
        fs::write(dir.join("obligations-v1.json"), &v1).unwrap();
        assert!(ObligationCache::load_or_empty(&dir).is_empty());
        fs::write(dir.join(FILE_NAME), &v1).unwrap();
        assert!(ObligationCache::load_or_empty(&dir).is_empty());
        // The same entry under the current version does load.
        let v2 = v1.replace("\"version\": 1", &format!("\"version\": {FORMAT_VERSION}"));
        fs::write(dir.join(FILE_NAME), v2).unwrap();
        assert_eq!(
            ObligationCache::load_or_empty(&dir).entries_sorted(),
            vec![(fp, "t".to_owned())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_cache_saves_and_loads() {
        let dir = tmp_dir("empty");
        let c = ObligationCache::new();
        c.save(&dir).expect("save");
        assert!(ObligationCache::load_or_empty(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_with_nested_extra_fields_load() {
        // The shared parser's depth bound is wider than this file's own
        // layout, so an entry with an unknown nested field still loads
        // its `fp` and `payload`.
        let dir = tmp_dir("nested");
        fs::create_dir_all(&dir).unwrap();
        let fp = FingerprintBuilder::new("t").param(1).finish();
        let text = format!(
            "{{\"format\": \"{FORMAT_TAG}\", \"version\": {FORMAT_VERSION}, \"entries\": [{{ \"fp\": \"{}\", \"payload\": \"t\", \"note\": [[-1, 0.5]] }}]}}",
            fp.to_hex()
        );
        fs::write(dir.join(FILE_NAME), text).unwrap();
        assert_eq!(
            ObligationCache::load_or_empty(&dir).entries_sorted(),
            vec![(fp, "t".to_owned())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_files_load_empty() {
        // Unbounded recursion over a million open brackets would overflow
        // the stack and abort the process instead of loading cold.
        let dir = tmp_dir("deep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(FILE_NAME), "[".repeat(1 << 20)).unwrap();
        assert!(ObligationCache::load_or_empty(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
