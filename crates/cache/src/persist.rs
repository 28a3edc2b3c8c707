//! Versioned on-disk persistence under `target/symbad-cache/`.
//!
//! One hand-rolled JSON file, `obligations-v2.json` (verdict payloads),
//! mirroring the `telemetry` crate's zero-dependency writer, plus the
//! minimal parser needed to read it back. Entries are written sorted by
//! fingerprint, so the file is byte-deterministic for a given cache
//! content. Anything unreadable — missing file, wrong version, malformed
//! JSON — loads as empty: persistence can make reruns faster, never
//! wrong.

use crate::{Fingerprint, ObligationCache};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Bump (with the file name) when the payload encodings, the key recipe,
/// or what an engine decides from equal sources change: old files then
/// load as empty instead of resurrecting stale verdicts. Version 1 keyed
/// obligations by their built CNF; version 2 keys them by their sources.
pub const FORMAT_VERSION: u64 = 2;

const FILE_NAME: &str = "obligations-v2.json";
const FORMAT_TAG: &str = "symbad-obligation-cache";

/// Deepest container nesting the file legitimately has: root object →
/// entries array → entry object. The parser recurses once per level, so
/// a deeper (hostile or corrupted) file is rejected rather than allowed
/// to overflow the stack — an abort no caller could turn into the
/// promised cold start.
const MAX_DEPTH: usize = 3;

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
        for (i, (fp, payload)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{ \"fp\": \"{}\", \"payload\": ", fp.to_hex());
            write_json_string(&mut out, payload);
            out.push_str(" }");
        }
        if !entries.is_empty() {
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
        let Some(Value::Obj(members)) = Parser::new(&text).parse() else {
            return cache;
        };
        let field = |name: &str| members.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        if field("format") != Some(&Value::Str(FORMAT_TAG.to_owned()))
            || field("version") != Some(&Value::Num(FORMAT_VERSION))
        {
            return cache;
        }
        let Some(Value::Arr(entries)) = field("entries") else {
            return cache;
        };
        for entry in entries {
            let Value::Obj(fields) = entry else { continue };
            let get = |name: &str| {
                fields.iter().find_map(|(k, v)| match v {
                    Value::Str(s) if k == name => Some(s.as_str()),
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

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The JSON subset the loader understands: objects, arrays, strings with
/// the escapes the writer emits, unsigned integers, `true`/`false`/`null`.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(u64),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
    Bool(bool),
    Null,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open, capped at [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn parse(mut self) -> Option<Value> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match self.bytes.get(self.pos)? {
            b'"' => self.string().map(Value::Str),
            b'{' | b'[' if self.depth == MAX_DEPTH => None,
            &open @ (b'{' | b'[') => {
                self.depth += 1;
                let container = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                container
            }
            b'0'..=b'9' => self.number(),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => None,
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Option<Value> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Some(value)
        } else {
            None
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
            .map(Value::Num)
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match *self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                b => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let len = utf8_len(b)?;
                    let slice = self.bytes.get(self.pos..self.pos + len)?;
                    out.push_str(std::str::from_utf8(slice).ok()?);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        if !self.eat(b'[') {
            return None;
        }
        let mut items = Vec::new();
        if self.eat(b']') {
            return Some(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if self.eat(b']') {
                return Some(Value::Arr(items));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        if !self.eat(b'{') {
            return None;
        }
        let mut members = Vec::new();
        if self.eat(b'}') {
            return Some(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !self.eat(b':') {
                return None;
            }
            members.push((key, self.value()?));
            if self.eat(b'}') {
                return Some(Value::Obj(members));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
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
