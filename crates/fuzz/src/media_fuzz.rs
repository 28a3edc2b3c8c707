//! The media-pipeline oracle family: random datasets and probe frames
//! through the face-recognition reference model, cross-checked against
//! independent recomputation and the behavioural kernel IR.
//!
//! Oracles:
//!
//! * recognition is deterministic (same probe twice → identical
//!   [`media::reference::RecognitionResult`] including the trace),
//! * the WINNER stage equals an independent argmin scan and every trace
//!   distance equals an independent `root(calcdist(distance(...)))`
//!   recomputation,
//! * a noise-free probe of an enrolled `(identity, pose)` recognizes
//!   itself at distance 0,
//! * the behavioural-IR kernels ([`media::kernels::root_function`] and
//!   [`media::kernels::distance_step_function`]) interpreted through
//!   [`behav::interp::Interpreter`] match the pure-Rust pipeline math on
//!   random operands — including the case's own distance values.

use crate::rng::FuzzRng;
use crate::shrink;
use crate::{Evaluation, FamilyOutcome};
use behav::interp::Interpreter;
use media::kernels::{distance_step_function, root_function};
use media::pipeline::{calcdist, distance, root, winner};
use media::reference::{enroll, extract_features, recognize};
use media::{Dataset, DatasetConfig};

/// A media fuzz case: a dataset shape, one probe, and kernel operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaCase {
    /// Identities in the gallery (2..=4).
    pub identities: usize,
    /// Poses per identity (1..=2).
    pub poses: usize,
    /// Frame width (32..=40).
    pub width: usize,
    /// Frame height (32..=40), drawn apart from the width so that frames
    /// are mostly non-square.
    pub height: usize,
    /// Sensor noise amplitude.
    pub noise_amp: i64,
    /// Probe identity (modulo `identities`).
    pub probe_identity: usize,
    /// Probe pose (modulo `poses`).
    pub probe_pose: usize,
    /// Probe noise seed (0 = noise-free self-recognition check).
    pub probe_seed: u64,
    /// `(a, b, acc)` operand triples for the DISTANCE-step kernel; the
    /// `a` values double as ROOT kernel inputs.
    pub kernel_probes: Vec<(u64, u64, u64)>,
}

/// Generates one random case under the coverage bias.
pub fn generate(rng: &mut FuzzRng, bias: u64) -> MediaCase {
    let kernel_probes = (0..rng.range(2, 6))
        .map(|_| (rng.below(1 << 16), rng.below(1 << 16), rng.below(1 << 31)))
        .collect();
    MediaCase {
        identities: rng.range_usize(2, 4),
        poses: rng.range_usize(1, 2),
        width: 32 + rng.range_usize(0, 8),
        height: 32 + rng.range_usize(0, 8),
        noise_amp: (bias & 7) as i64,
        probe_identity: rng.range_usize(0, 8),
        probe_pose: rng.range_usize(0, 8),
        probe_seed: if rng.chance(1, 3) { 0 } else { rng.next_u64() },
        kernel_probes,
    }
}

/// Runs every oracle on the case.
pub fn evaluate(case: &MediaCase) -> Evaluation {
    let dataset = Dataset::new(DatasetConfig {
        identities: case.identities,
        poses: case.poses,
        width: case.width,
        height: case.height,
        noise_amp: case.noise_amp,
    });
    let gallery = enroll(&dataset);
    let id = case.probe_identity % case.identities;
    let pose = case.probe_pose % case.poses;
    let probe = dataset.frame(id, pose, case.probe_seed);
    let result = recognize(&probe, &gallery);
    let counters = vec![
        gallery.entries.len() as u64,
        result.trace.edge_count,
        u64::from(result.distance),
        result.trace.winner_entry as u64,
    ];
    let fail = |msg: String| Evaluation {
        disagreement: Some(msg),
        counters: counters.clone(),
    };

    if recognize(&probe, &gallery) != result {
        return fail("recognition of the same probe is not deterministic".into());
    }

    // WINNER versus an independent first-argmin scan.
    let mut best = 0usize;
    for (i, &d) in result.trace.distances.iter().enumerate() {
        if d < result.trace.distances[best] {
            best = i;
        }
    }
    if winner(&result.trace.distances) != best || result.trace.winner_entry != best {
        return fail(format!(
            "winner {} disagrees with argmin scan {best}",
            result.trace.winner_entry
        ));
    }
    let (won_id, won_pose, _) = gallery.entries[best].clone();
    if result.identity != won_id
        || result.pose != won_pose
        || result.distance != result.trace.distances[best]
    {
        return fail("recognition result fields disagree with the winning entry".into());
    }

    // Every trace distance must equal an independent recomputation.
    let (features, _) = extract_features(&probe);
    if features != result.trace.features {
        return fail("trace features differ from a fresh extract_features".into());
    }
    for (i, (_, _, g)) in gallery.entries.iter().enumerate() {
        let d = root(calcdist(&distance(&features, g)));
        if d != result.trace.distances[i] {
            return fail(format!(
                "distance[{i}] {} != recomputed {d}",
                result.trace.distances[i]
            ));
        }
    }

    // Noise-free probes of enrolled frames are exact self-matches.
    if case.probe_seed == 0 && (result.identity != id || result.distance != 0) {
        return fail(format!(
            "noise-free probe of ({id}, {pose}) recognized as ({}, distance {})",
            result.identity, result.distance
        ));
    }

    // Behavioural-IR ROOT vs pure-Rust root on the case's own distances
    // (pre-root magnitudes) and on the random kernel operands.
    let root_fn = root_function();
    let mut root_inputs: Vec<u64> = gallery
        .entries
        .iter()
        .map(|(_, _, g)| calcdist(&distance(&features, g)))
        .collect();
    root_inputs.extend(case.kernel_probes.iter().map(|&(a, _, _)| a));
    let mut interp = Interpreter::new(&root_fn);
    for x in root_inputs {
        let x = x & 0xFFFF_FFFF;
        let got = interp
            .run(&[x])
            .expect("root kernel runs")
            .return_value
            .expect("root kernel returns");
        let want = u64::from(root(x)) & 0xFFFF;
        if got != want {
            return fail(format!(
                "behavioural ROOT({x}) = {got}, pure Rust says {want}"
            ));
        }
    }

    // Behavioural-IR DISTANCE step vs the closed-form accumulator update.
    let dist_fn = distance_step_function();
    for &(a, b, acc) in &case.kernel_probes {
        let got = Interpreter::new(&dist_fn)
            .run(&[a, b, acc])
            .expect("distance kernel runs")
            .return_value
            .expect("distance kernel returns");
        let d = (a as i64 - b as i64).unsigned_abs();
        let want = (acc + d * d) & 0xFFFF_FFFF;
        if got != want {
            return fail(format!(
                "behavioural DISTANCE({a},{b},{acc}) = {got}, pure Rust says {want}"
            ));
        }
    }

    Evaluation {
        disagreement: None,
        counters,
    }
}

fn shrink_candidates(case: &MediaCase) -> Vec<MediaCase> {
    let mut out = Vec::new();
    if case.identities > 2 {
        let mut c = case.clone();
        c.identities -= 1;
        out.push(c);
    }
    if case.poses > 1 {
        let mut c = case.clone();
        c.poses -= 1;
        out.push(c);
    }
    if case.width > 32 {
        let mut c = case.clone();
        c.width = 32;
        out.push(c);
    }
    if case.height > 32 {
        let mut c = case.clone();
        c.height = 32;
        out.push(c);
    }
    if case.noise_amp > 0 {
        let mut c = case.clone();
        c.noise_amp = 0;
        out.push(c);
    }
    if case.probe_seed > 1 {
        let mut c = case.clone();
        c.probe_seed = 1;
        out.push(c);
    }
    for i in 0..case.kernel_probes.len() {
        let mut c = case.clone();
        c.kernel_probes.remove(i);
        out.push(c);
    }
    out
}

/// One fuzz iteration: generate, evaluate, shrink on disagreement.
pub(crate) fn run_one(rng: &mut FuzzRng, bias: u64) -> FamilyOutcome {
    let case = generate(rng, bias);
    let eval = evaluate(&case);
    let failure = eval.disagreement.map(|detail| {
        let min = shrink::minimize(case, 60, shrink_candidates, |c| {
            evaluate(c).disagreement.is_some()
        });
        crate::Failure {
            detail,
            minimized: format!("{min:?}"),
        }
    });
    FamilyOutcome {
        counters: eval.counters,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_satisfy_every_oracle() {
        let mut rng = FuzzRng::new(21);
        for bias in 0..4u64 {
            let case = generate(&mut rng, bias);
            let eval = evaluate(&case);
            assert_eq!(eval.disagreement, None, "case {case:?}");
        }
    }

    #[test]
    fn frames_are_non_square_and_shrink_one_axis_at_a_time() {
        let mut rng = FuzzRng::new(23);
        let cases: Vec<MediaCase> = (0..32).map(|_| generate(&mut rng, 0)).collect();
        assert!(cases.iter().all(|c| (32..=40).contains(&c.width)));
        assert!(cases.iter().all(|c| (32..=40).contains(&c.height)));
        assert!(cases.iter().any(|c| c.width != c.height));
        let mut case = cases[0].clone();
        (case.width, case.height) = (37, 39);
        let axes: Vec<(usize, usize)> = shrink_candidates(&case)
            .iter()
            .map(|c| (c.width, c.height))
            .filter(|&shape| shape != (37, 39))
            .collect();
        assert_eq!(axes, vec![(32, 39), (37, 32)]);
    }

    #[test]
    fn noise_free_probe_cases_self_recognize() {
        let mut rng = FuzzRng::new(22);
        let mut case = generate(&mut rng, 0);
        case.probe_seed = 0;
        let eval = evaluate(&case);
        assert_eq!(eval.disagreement, None);
        // distance counter is 0 for a noise-free self-match.
        assert_eq!(eval.counters[2], 0);
    }
}
