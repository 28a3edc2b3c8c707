//! The benchmark's contract with `BENCHMARK.json`: the declared names
//! and limits, the metrics each mode emits, clean tiny-size runs, and
//! count metrics that repeat exactly for a seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value — just enough of JSON for `BENCHMARK.json` and
/// the benchmark's result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&b), "expected {:?}", b as char);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn names(section: &Json) -> Vec<String> {
    section
        .arr()
        .iter()
        .map(|e| e.get("name").str().to_owned())
        .collect()
}

/// Runs the benchmark and parses the last line of its output.
fn bench(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench runs");
    assert!(
        out.status.success(),
        "bench {args:?} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Json::parse(stdout.lines().last().expect("a result line"))
}

fn assert_clean(result: &Json) {
    assert_eq!(result.get("correct"), &Json::Bool(true), "{result:?}");
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(
        result.obj().keys().collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
}

fn metric_names(result: &Json) -> Vec<String> {
    let mut names: Vec<String> = result.get("metrics").obj().keys().cloned().collect();
    names.sort();
    names
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn declared_names_and_limits() {
    let decl = declared();
    let workloads = names(decl.get("workloads"));
    let end_to_end = names(decl.get("end_to_end"));
    let per_layer = names(decl.get("per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    for name in &all {
        assert!(name.len() <= 64, "{name} is too long");
        assert!(
            name.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-'),
            "{name} has a character outside [A-Za-z0-9_.-]"
        );
        assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    assert!(end_to_end.contains(&"setup_s".to_owned()));
    for m in decl.get("end_to_end").arr() {
        assert!(m.get("bound").num() > 0.0 && m.get("bound").num() <= 0.25);
    }
}

#[test]
fn tiny_end_to_end_runs_are_clean_and_emit_the_declared_metrics() {
    let decl = declared();
    for workload in names(decl.get("workloads")) {
        let result = bench(&["--workload", &workload, "--seed", "1", "--seconds", "0"]);
        assert_clean(&result);
        assert_eq!(metric_names(&result), sorted(names(decl.get("end_to_end"))));
        for (name, m) in result.get("metrics").obj() {
            assert!(
                m.get("value").num() > 0.0,
                "{workload}: {name} is not positive"
            );
        }
    }
}

#[test]
fn traced_counts_repeat_for_a_seed_and_move_with_it() {
    let decl = declared();
    let trace = |seed: &str| {
        let result = bench(&[
            "--workload",
            "paper_flow",
            "--seed",
            seed,
            "--trace",
            "1",
            "--tiny",
        ]);
        assert_clean(&result);
        assert_eq!(metric_names(&result), sorted(names(decl.get("per_layer"))));
        let counts: BTreeMap<String, f64> = result
            .get("metrics")
            .obj()
            .iter()
            .filter(|(_, m)| m.get("unit").str() == "count")
            .map(|(name, m)| (name.clone(), m.get("value").num()))
            .collect();
        assert!(!counts.is_empty());
        counts
    };
    let first = trace("1");
    assert_eq!(first, trace("1"), "count metrics must repeat for a seed");
    assert_ne!(first, trace("2"), "count metrics must depend on the seed");
}
