//! `bench`: one command that measures the Symbad reproduction end to end
//! and layer by layer, and checks every output it measures.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin bench -- \
//!     --workload paper_flow --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it runs the named workload closed-loop for
//! `--seconds` and reports the end-to-end metrics. With `--trace 1` it
//! runs the fixed-size per-layer sweep of all three workloads and
//! reports every per-layer metric. Each workload runs in a child process
//! of its own, so peak memory and allocator state stay per workload, and
//! a child that crashes is counted as failed while the others still run.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod engine_corpus;
mod paper_flow;
mod run;
mod service_batch;

use run::{Report, Run, WORKERS};
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// A workload's end-to-end or trace entry point.
type Entry = fn(&Run, &mut Report);

/// The workloads, each with its end-to-end and trace entry points.
const WORKLOADS: [(&str, Entry, Entry); 3] = [
    ("paper_flow", paper_flow::measure, paper_flow::trace),
    (
        "service_batch",
        service_batch::measure,
        service_batch::trace,
    ),
    (
        "engine_corpus",
        engine_corpus::measure,
        engine_corpus::trace,
    ),
];

/// A child still running this long after the parent started is killed,
/// so the whole command ends within its 180-second limit.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: usize,
    run: Run,
    trace: bool,
    /// Set on the child processes the parent spawns.
    child: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench: {msg}");
    eprintln!(
        "usage: bench --workload <{}> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--tiny]",
        WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut run = Run {
        seed: 1,
        seconds: 20,
        tiny: false,
    };
    let mut trace = false;
    let mut child = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| w.0 == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => run.tiny = true,
            "--child" => child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        run,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    if args.child {
        child(&args);
        return ExitCode::SUCCESS;
    }
    parent(&args)
}

/// Runs one workload in this process and writes its report in the line
/// protocol [`Outcome::parse`] reads.
fn child(args: &Args) {
    let (_, measure, trace) = WORKLOADS[args.workload];
    let mut rep = Report::default();
    if args.trace {
        trace(&args.run, &mut rep);
    } else {
        measure(&args.run, &mut rep);
    }
    println!("attempted {}", rep.attempted);
    println!("failed {}", rep.failed);
    for m in &rep.metrics {
        println!("metric {} {} {}", m.name, m.unit, m.value);
    }
    for (name, n) in &rep.sizes {
        println!("size {name} {n}");
    }
}

/// A child's report as the parent reads it back.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, String, f64)>,
    sizes: Vec<(String, u64)>,
}

impl Outcome {
    fn parse(text: &str) -> Option<Outcome> {
        let mut out = Outcome::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split(' ').collect();
            match fields.as_slice() {
                ["attempted", n] => out.attempted = n.parse().ok()?,
                ["failed", n] => out.failed = n.parse().ok()?,
                ["metric", name, unit, v] => {
                    out.metrics
                        .push(((*name).into(), (*unit).into(), v.parse().ok()?));
                }
                ["size", name, n] => out.sizes.push(((*name).into(), n.parse().ok()?)),
                _ => return None,
            }
        }
        Some(out)
    }
}

/// Runs `workload` in a child process. A child that crashes, hangs past
/// the deadline or reports garbage counts as one failed op.
fn spawn(args: &Args, workload: usize, started: Instant) -> (Outcome, bool) {
    let crashed = |why: String| {
        eprintln!("bench: {} child {why}", WORKLOADS[workload].0);
        let failed = Outcome {
            attempted: 1,
            failed: 1,
            ..Outcome::default()
        };
        (failed, false)
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return crashed(format!("not started: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", WORKLOADS[workload].0])
        .args(["--seed", &args.run.seed.to_string()])
        .args(["--seconds", &args.run.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.run.tiny {
        cmd.arg("--tiny");
    }
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => return crashed(format!("not started: {e}")),
    };
    // The report is a few hundred bytes, far below the pipe buffer, so
    // the child never blocks on its stdout while we poll for its exit.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > CHILD_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                break Err("killed at the deadline".to_owned());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("lost: {e}"));
            }
        }
    };
    let mut text = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = stdout.read_to_string(&mut text);
    }
    match status {
        Err(why) => crashed(why),
        Ok(status) if !status.success() => crashed(format!("exited with {status}")),
        Ok(_) => match Outcome::parse(&text) {
            Some(outcome) => (outcome, true),
            None => crashed("wrote an unreadable report".to_owned()),
        },
    }
}

fn parent(args: &Args) -> ExitCode {
    let started = Instant::now();
    // The trace sweep measures every layer on the workload that drives
    // it, so it covers all workloads whichever one is named.
    let children: Vec<usize> = if args.trace {
        (0..WORKLOADS.len()).collect()
    } else {
        vec![args.workload]
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut all_exited = true;
    let mut metrics = Vec::new();
    let mut sizes = Vec::new();
    for w in children {
        let (outcome, exited) = spawn(args, w, started);
        attempted += outcome.attempted;
        failed += outcome.failed;
        all_exited &= exited;
        for (name, n) in outcome.sizes {
            sizes.push((format!("{}.{name}", WORKLOADS[w].0), n));
        }
        for (name, unit, value) in &outcome.metrics {
            println!("{:<14} {name:<30} {value:>16.4} {unit}", WORKLOADS[w].0);
        }
        metrics.extend(outcome.metrics);
    }
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = all_exited && failed == 0 && attempted > 0 && finite;

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes_json: Vec<String> = sizes
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
         \"nproc\": {host}, \"workers\": {WORKERS}, \"git_sha\": \"{}\", \"sizes\": {{{}}}}}}}",
        WORKLOADS[args.workload].0,
        u8::from(args.trace),
        args.run.seed,
        args.run.seconds,
        git_sha(),
        sizes_json.join(", ")
    );
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics_json.join(", ")
    );
    ExitCode::SUCCESS
}

/// The commit being measured, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let sha = read(".git/HEAD").and_then(|head| {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_owned());
        };
        read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
                    .map(str::to_owned)
            })
    });
    sha.filter(|s| s.len() == 40 && s.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_owned())
}
