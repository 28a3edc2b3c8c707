//! Mutant sanity check for the lemma-pool export oracle: with the
//! `share-mutant` feature the exporter flips one literal in every 64th
//! clause it offers, producing clauses the source formula does not
//! entail. The share differential family must catch the corruption well
//! inside the CI budget, and the reported reproducer must replay to the
//! identical disagreement.
//!
//! Run with `cargo test -p fuzz --features share-mutant`. The test is a
//! no-op without the feature so plain `cargo test` stays green.

#![cfg(feature = "share-mutant")]

use fuzz::{run, run_repro, Family, FuzzConfig};

#[test]
fn the_corrupting_exporter_is_caught_and_its_reproducer_replays() {
    // The bar is "caught in under 1000 iterations"; every iteration's
    // conflict-rich sub-case offers well past the 64-clause corruption
    // stride, so in practice the first few iterations already flag it.
    let config = FuzzConfig {
        seed: 0,
        iters: 40,
        steering: true,
    };
    let outcome = run(Family::Share, &config);
    assert!(
        !outcome.disagreements.is_empty(),
        "the corrupting exporter survived {} iterations of the share oracle",
        config.iters
    );

    // The first disagreement's seed:family:iter ID must regenerate the
    // same case, the same detail, and the same minimized witness.
    let first = &outcome.disagreements[0];
    let replayed = run_repro(&first.repro)
        .unwrap_or_else(|| panic!("replaying {} found nothing", first.repro));
    assert_eq!(
        &replayed, first,
        "replay of {} is not bit-identical",
        first.repro
    );

    // The oracle should localize the unsoundness, not just notice it:
    // at least one disagreement must name a non-entailed export or a
    // verdict flip.
    assert!(
        outcome
            .disagreements
            .iter()
            .any(|d| { d.detail.contains("NOT entailed") || d.detail.contains("flipped") }),
        "no disagreement names the corruption: {:?}",
        outcome
            .disagreements
            .iter()
            .map(|d| &d.detail)
            .collect::<Vec<_>>()
    );
}
