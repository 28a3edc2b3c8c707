//! The workspace's one JSON codec: a deterministic writer and a bounded
//! parser (the build is offline — no serde).
//!
//! Object keys keep insertion order, floats render through one fixed
//! format, strings escape per RFC 8259. Identical input values always
//! produce identical bytes, which is what the golden tests rely on.
//! [`parse`] reads untrusted text back into a [`Json`] tree: the
//! persisted obligation cache and the journal lines both go through it.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. The parser recurses once
/// per level, so deeper (hostile or corrupted) text is rejected rather
/// than allowed to overflow the stack — an abort no caller could turn
/// into a typed failure. The writer's deepest output (a report or a
/// Chrome trace) nests 4 levels.
const MAX_DEPTH: usize = 32;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (rendered without decimal point).
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Finite float, rendered via [`fmt_f64`]. Non-finite values render
    /// as `null` (JSON has no NaN/Inf).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Serializes compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with 2-space indentation and a trailing newline —
    /// the layout used for committed golden files and reports.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => out.push_str(&fmt_f64(*v)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

/// Deterministic float formatting: six decimal places, trailing zeros
/// trimmed down to at least one decimal digit (so `5.0` stays visibly a
/// float). Non-finite values render as `null`.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    let mut s = format!("{v:.6}");
    while s.ends_with('0') && !s.ends_with(".0") {
        s.pop();
    }
    s
}

/// Parses one JSON value spanning the whole of `text`, whitespace
/// around it allowed. Returns `None` on malformed text, trailing bytes,
/// or containers nested deeper than a fixed bound, so a caller treats
/// every unreadable input alike.
///
/// Numbers without a fraction or exponent read as [`Json::UInt`], or
/// [`Json::Int`] when negative; every other number reads as
/// [`Json::Num`]. Out-of-range integers, infinite floats and `\u`
/// surrogates (which the writer never emits) do not parse.
///
/// ```
/// use telemetry::json::{parse, Json};
///
/// let v = Json::obj(vec![("seq", Json::UInt(1)), ("dt", Json::Int(-2))]);
/// assert_eq!(parse(&v.render()), Some(v));
/// assert_eq!(parse("{\"seq\":x}"), None);
/// ```
pub fn parse(text: &str) -> Option<Json> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    (parser.pos == text.len()).then_some(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open, capped at [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
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

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.bytes.get(self.pos)? {
            b'"' => self.string().map(Json::Str),
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
            b'-' | b'0'..=b'9' => self.number(),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => None,
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Some(value)
        } else {
            None
        }
    }

    /// Skips a run of ASCII digits and says whether there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        let negative = self.bytes[start] == b'-';
        self.pos += usize::from(negative);
        if !self.digits() {
            return None;
        }
        let mut integer = true;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            integer = false;
            if !self.digits() {
                return None;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            integer = false;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return None;
            }
        }
        let text = &self.text[start..self.pos];
        match (integer, negative) {
            (true, false) => text.parse().ok().map(Json::UInt),
            (true, true) => text.parse().ok().map(Json::Int),
            (false, _) => text
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .map(Json::Num),
        }
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
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return None;
                            }
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Everything up to the next quote or backslash passes
                    // through verbatim; both are ASCII, so the run ends on
                    // a character boundary.
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), Some(b'"' | b'\\') | None) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        if !self.eat(b'[') {
            return None;
        }
        let mut items = Vec::new();
        if self.eat(b']') {
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if self.eat(b']') {
                return Some(Json::Arr(items));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn object(&mut self) -> Option<Json> {
        if !self.eat(b'{') {
            return None;
        }
        let mut members = Vec::new();
        if self.eat(b'}') {
            return Some(Json::Obj(members));
        }
        loop {
            let key = self.string()?;
            if !self.eat(b':') {
                return None;
            }
            members.push((key, self.value()?));
            if self.eat(b'}') {
                return Some(Json::Obj(members));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Num(0.276).render(), "0.276");
        assert_eq!(Json::Num(5.0).render(), "5.0");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Str("a\"b\nc".into()).render(), "\"a\\\"b\\nc\"");
    }

    #[test]
    fn renders_compound_values_in_order() {
        let v = Json::obj(vec![
            ("b", Json::UInt(1)),
            ("a", Json::Arr(vec![Json::UInt(2), Json::Null])),
        ]);
        // Insertion order is preserved — not sorted.
        assert_eq!(v.render(), "{\"b\":1,\"a\":[2,null]}");
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let v = Json::obj(vec![("k", Json::Arr(vec![Json::UInt(1)]))]);
        assert_eq!(v.render_pretty(), "{\n  \"k\": [\n    1\n  ]\n}\n");
        assert_eq!(Json::obj(vec![]).render_pretty(), "{}\n");
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn float_format_is_deterministic() {
        assert_eq!(fmt_f64(1.0 / 3.0), "0.333333");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(-2.25), "-2.25");
        assert_eq!(fmt_f64(0.0), "0.0");
    }

    #[test]
    fn parses_whitespace_escapes_and_literals() {
        assert_eq!(
            parse(" \n{ \"a\" : [ 1 , true , null ] }\t\r"),
            Some(Json::obj(vec![(
                "a",
                Json::Arr(vec![Json::UInt(1), Json::Bool(true), Json::Null])
            )]))
        );
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t\u00e9é""#),
            Some(Json::Str("\"\\/\u{8}\u{c}\n\r\té\u{e9}".into()))
        );
        for bad in [
            "",
            "tru",
            "nul",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"open",
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn numbers_read_by_their_shape() {
        assert_eq!(parse("42"), Some(Json::UInt(42)));
        assert_eq!(parse("18446744073709551615"), Some(Json::UInt(u64::MAX)));
        assert_eq!(parse("-7"), Some(Json::Int(-7)));
        assert_eq!(parse("-9223372036854775808"), Some(Json::Int(i64::MIN)));
        assert_eq!(parse("1.5e9"), Some(Json::Num(1.5e9)));
        assert_eq!(parse("-2E-2"), Some(Json::Num(-0.02)));
        // Floats render to six decimals, so only such values round-trip.
        for v in [0.276, 5.0, -2.25] {
            assert_eq!(parse(&Json::Num(v).render()), Some(Json::Num(v)));
        }
        for bad in [
            "-",
            "1.",
            ".5",
            "1e",
            "1e+",
            "+1",
            "18446744073709551616",
            "-9223372036854775809",
            "1e999",
            "NaN",
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_some());
        assert_eq!(parse(&nest(MAX_DEPTH + 1)), None);
        let objects = |depth: usize| format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&objects(MAX_DEPTH)).is_some());
        assert_eq!(parse(&objects(MAX_DEPTH + 1)), None);
        // A million open brackets is rejected, not a stack overflow.
        assert_eq!(parse(&"[".repeat(1 << 20)), None);
    }

    /// SplitMix64 step: the trees below are drawn from one `u64` seed,
    /// because the vendored proptest has no recursive strategies.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A string mixing quotes, backslashes, control characters and
    /// non-ASCII text.
    fn string(state: &mut u64) -> String {
        let chars: Vec<char> = "a\"\\/\n\t\u{1}\u{7f}é\u{1F600}".chars().collect();
        (0..next(state) % 6)
            .map(|_| chars[next(state) as usize % chars.len()])
            .collect()
    }

    /// A value tree at most `depth` containers deep. `Int`s are negative:
    /// a non-negative one reads back as `UInt`.
    fn tree(state: &mut u64, depth: usize) -> Json {
        let r = next(state);
        let kinds = if depth == 0 { 5 } else { 7 };
        match r % kinds {
            0 => Json::Null,
            1 => Json::Bool(r & 8 != 0),
            2 => Json::UInt(next(state) >> (next(state) % 64)),
            3 => Json::Int((next(state) >> (next(state) % 64)) as i64 | i64::MIN),
            4 => Json::Str(string(state)),
            5 => Json::Arr(
                (0..next(state) % 4)
                    .map(|_| tree(state, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..next(state) % 4)
                    .map(|_| (string(state), tree(state, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #[test]
        fn rendered_values_parse_back(seed in any::<u64>()) {
            let v = tree(&mut { seed }, 4);
            prop_assert_eq!(parse(&v.render()), Some(v.clone()));
            prop_assert_eq!(parse(&v.render_pretty()), Some(v));
        }

        #[test]
        fn truncated_or_extended_objects_do_not_parse(seed in any::<u64>()) {
            let text = Json::obj(vec![("k", tree(&mut { seed }, 3))]).render();
            for (end, _) in text.char_indices() {
                prop_assert_eq!(parse(&text[..end]), None, "prefix {:?}", &text[..end]);
            }
            for tail in [" x", ",", "}", "0", text.as_str()] {
                let extended = format!("{text}{tail}");
                prop_assert_eq!(parse(&extended), None, "{:?}", extended);
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
