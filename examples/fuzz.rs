//! Differential fuzzing driver: runs every oracle family at its standard
//! budget, prints a per-family summary, and writes a machine-readable
//! report (plus one replayable reproducer file per disagreement) under
//! `target/symbad-fuzz/`. Exits nonzero if any oracle disagreed, so CI
//! can gate on it.
//!
//! ```text
//! cargo run --release --example fuzz                  # all families
//! SYMBAD_FUZZ_ITERS=1000 cargo run --release --example fuzz
//! SYMBAD_FUZZ_REPRO=0:sat:17 cargo run --example fuzz # replay one case
//! ```
//!
//! The run is deterministic end to end: the same seeds and budgets
//! reproduce the same cases, the same coverage signatures, and (if the
//! engines disagree) the same minimized counterexamples, bit for bit.

use fuzz::{repro, run, run_repro, Family, FuzzConfig, FuzzOutcome};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use telemetry::Json;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("symbad-fuzz")
}

/// Replays one `seed:family:iter` reproducer and reports what it finds.
fn replay(id: &fuzz::ReproId) -> ExitCode {
    println!("replaying {} ({} iterations)", id, id.iter + 1);
    match run_repro(id) {
        Some(d) => {
            println!("reproduced: {}", d.detail);
            println!("minimized case:\n{}", d.minimized);
            ExitCode::FAILURE
        }
        None => {
            println!("iteration {} is clean — no disagreement", id.iter);
            ExitCode::SUCCESS
        }
    }
}

fn summary_json(outcomes: &[FuzzOutcome]) -> String {
    let families = outcomes
        .iter()
        .map(|o| {
            let repros = o.disagreements.iter();
            Json::obj(vec![
                ("family", Json::Str(o.family.as_str().to_owned())),
                ("iters", Json::UInt(o.iters)),
                ("disagreements", Json::UInt(o.disagreements.len() as u64)),
                (
                    "distinct_signatures",
                    Json::UInt(o.distinct_signatures as u64),
                ),
                ("novel_iterations", Json::UInt(o.novel_iterations)),
                (
                    "repros",
                    Json::Arr(repros.map(|d| Json::Str(d.repro.to_string())).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("families", Json::Arr(families))]).render_pretty()
}

fn main() -> ExitCode {
    if let Some(id) = repro::repro_from_env() {
        return replay(&id);
    }

    let dir = out_dir();
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create target/symbad-fuzz");

    let mut outcomes = Vec::new();
    let mut failed = false;
    for family in Family::ALL {
        let config = FuzzConfig::standard(family);
        let outcome = run(family, &config);
        println!(
            "{:>6}: {} iterations, {} distinct signatures ({} novel), {} disagreement(s)",
            family.as_str(),
            outcome.iters,
            outcome.distinct_signatures,
            outcome.novel_iterations,
            outcome.disagreements.len()
        );
        for d in &outcome.disagreements {
            failed = true;
            println!("  !! {}={}  {}", repro::REPRO_ENV, d.repro, d.detail);
            // One file per disagreement: the replay line, what disagreed,
            // and the delta-debugged minimal case — CI uploads these.
            let name = format!("repro-{}.txt", d.repro.to_string().replace(':', "-"));
            let body = format!(
                "{}={}\n\n{}\n\nminimized case:\n{}\n",
                repro::REPRO_ENV,
                d.repro,
                d.detail,
                d.minimized
            );
            fs::write(dir.join(name), body).expect("write reproducer file");
        }
        outcomes.push(outcome);
    }

    fs::write(dir.join("fuzz_summary.json"), summary_json(&outcomes)).expect("write summary");
    println!("summary: {}", dir.join("fuzz_summary.json").display());

    if failed {
        println!(
            "oracles disagreed — replay with the printed {} lines",
            repro::REPRO_ENV
        );
        ExitCode::FAILURE
    } else {
        println!("all oracles agree");
        ExitCode::SUCCESS
    }
}
