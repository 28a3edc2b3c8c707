//! Tier-1 smoke run of the differential fuzzer: every oracle family at
//! its default budget (raise with `SYMBAD_FUZZ_ITERS`), expecting zero
//! disagreements between the independent engine implementations, plus
//! the determinism contract the reproducer format depends on.
//!
//! The mutation set (`mutants/`) breaks engines on purpose and expects
//! `every_family_runs_clean_at_its_default_budget` to report the broken
//! family, which it does only after the family's first disagreement has
//! replayed.

use fuzz::{run, run_repro, Disagreement, Family, FuzzConfig, FuzzOutcome};

/// Each disagreement of a run with its reproducer, for a failure message.
fn reproducers(outcome: &FuzzOutcome) -> String {
    outcome
        .disagreements
        .iter()
        .map(|d| format!("SYMBAD_FUZZ_REPRO={} ({})", d.repro, d.detail))
        .collect::<Vec<_>>()
        .join("; ")
}

/// The reproducer contract a reported disagreement rests on: the first
/// one replays bit for bit through [`run_repro`], every one carries a
/// detail and a minimized case, and a `vm` witness holds the failing
/// function, so a bug report needs no second fuzzing run.
fn assert_reproducible(family: Family, disagreements: &[Disagreement]) {
    let first = &disagreements[0];
    let replayed = run_repro(&first.repro)
        .unwrap_or_else(|| panic!("replaying {} found nothing", first.repro));
    assert_eq!(
        &replayed, first,
        "replay of {} is not bit-identical",
        first.repro
    );
    for d in disagreements {
        assert!(
            !d.detail.is_empty() && !d.minimized.is_empty(),
            "{} carries no detail or no minimized case",
            d.repro
        );
        if family == Family::Vm {
            assert!(
                d.minimized.contains("fuzzed"),
                "{}'s minimized case holds no function",
                d.repro
            );
        }
    }
}

#[test]
fn every_family_runs_clean_at_its_default_budget() {
    for family in Family::ALL {
        let config = FuzzConfig::standard(family);
        let outcome = run(family, &config);
        assert_eq!(outcome.iters, config.iters);
        if !outcome.disagreements.is_empty() {
            assert_reproducible(family, &outcome.disagreements);
            panic!(
                "{} family found disagreements: {}",
                family.as_str(),
                reproducers(&outcome)
            );
        }
        assert!(
            outcome.distinct_signatures > 1,
            "{} family exercised only one engine-behaviour signature",
            family.as_str()
        );
    }
}

/// The deep interpreter-vs-VM differential run: 10,000 `vm` cases at
/// each of three seeds (about 25 s in release). Ignored by default; run
/// it with `cargo test --release --test fuzz_smoke -- --ignored`.
#[test]
#[ignore = "deep run, about 25 s in release"]
fn vm_family_runs_clean_at_three_seeds() {
    for seed in [0, 7, 11] {
        let config = FuzzConfig {
            seed,
            iters: 10_000,
            steering: true,
        };
        let outcome = run(Family::Vm, &config);
        assert!(
            outcome.disagreements.is_empty(),
            "vm family at seed {seed} found disagreements: {}",
            reproducers(&outcome)
        );
    }
}

#[test]
fn coverage_steering_never_trails_a_frozen_profile() {
    // The coverage-feedback effect reported in EXPERIMENTS.md E15: with
    // steering the bias rotates whenever counter signatures go stale, so
    // the run must reach at least as many distinct signatures as the
    // same seeds with the feedback loop disabled (run with --nocapture
    // to see the measured gap).
    for family in [Family::Sat, Family::Dimacs, Family::Sim] {
        let iters = family.default_iters();
        let steered = run(
            family,
            &FuzzConfig {
                seed: 0,
                iters,
                steering: true,
            },
        );
        let frozen = run(
            family,
            &FuzzConfig {
                seed: 0,
                iters,
                steering: false,
            },
        );
        println!(
            "{}: {} iterations, steered {} signatures vs frozen {}",
            family.as_str(),
            iters,
            steered.distinct_signatures,
            frozen.distinct_signatures
        );
        assert!(
            steered.distinct_signatures >= frozen.distinct_signatures,
            "{}: steered {} < frozen {}",
            family.as_str(),
            steered.distinct_signatures,
            frozen.distinct_signatures
        );
    }
}

#[test]
fn fixed_seed_runs_reproduce_their_outcome_exactly() {
    // The reproducer contract in one assertion: a run is a pure function
    // of its configuration, coverage steering included.
    for family in [Family::Sat, Family::Sim] {
        let config = FuzzConfig {
            seed: 7,
            iters: 20,
            steering: true,
        };
        assert_eq!(run(family, &config), run(family, &config));
    }
}
