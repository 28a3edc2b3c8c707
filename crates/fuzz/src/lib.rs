//! Deterministic coverage-guided differential fuzzing for the
//! verification engines.
//!
//! The flow's engines overlap on purpose — SAT vs BDD, BMC vs
//! k-induction vs BDD reachability, cached vs uncached, sequential vs
//! parallel, instrumented vs plain. This crate turns that redundancy into
//! an oracle: seeded generators produce inputs with *planted* or
//! *exhaustively computed* ground truth, every independent implementation
//! is run on the same input, and any disagreement is shrunk by greedy
//! delta-debugging ([`shrink`]) to a minimal case with a one-line
//! replayable reproducer (`SYMBAD_FUZZ_REPRO=<seed:family:iter>`).
//!
//! Everything is deterministic: no `rand`, no wall clock, no global
//! state. The PRNG ([`rng::FuzzRng`]) is SplitMix64 over the repo's
//! canonical `mix64` finalizer, each iteration draws an independent
//! stream from its [`repro::ReproId`], and even the coverage feedback
//! (telemetry-counter signatures steering the generator bias, see
//! [`coverage`]) evolves as a pure function of the observed counters.
//! Replaying a reproducer therefore regenerates the same case, the same
//! disagreement, and the same minimized witness, bit for bit.
//!
//! ```
//! use fuzz::{run, Family, FuzzConfig};
//!
//! let outcome = run(Family::Sat, &FuzzConfig { seed: 1, iters: 25, steering: true });
//! assert_eq!(outcome.disagreements.len(), 0);
//! assert!(outcome.distinct_signatures > 0);
//! ```

#![warn(missing_docs)]

pub mod coverage;
pub mod dimacs_fuzz;
pub mod mc_fuzz;
pub mod media_fuzz;
pub mod repro;
pub mod rng;
pub mod sat_fuzz;
pub mod share_fuzz;
pub mod shrink;
pub mod sim_fuzz;
pub mod supervise_fuzz;
pub mod vm_fuzz;

pub use repro::{ReproId, ITERS_ENV, REPRO_ENV};

use rng::FuzzRng;
use sim::faults::mix64;

/// The oracle families (one generator + differential-oracle pair each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// CNF instances with planted models / planted unsat cores across
    /// the CDCL solver, the BDD engine, incremental re-solving, and
    /// DIMACS round trips.
    Sat,
    /// Malformed and truncated DIMACS text against the parser's
    /// no-panic contract.
    Dimacs,
    /// Random sequential netlists with BFS-exact reachability ground
    /// truth across BMC, k-induction, BDD reachability, caching, and
    /// instrumentation.
    Mc,
    /// Random bus topologies, fault plans, and traffic scripts across
    /// replay determinism, instrumentation, and accounting oracles.
    Sim,
    /// Random datasets and probes through the face-recognition pipeline
    /// and its behavioural-IR kernels.
    Media,
    /// Random panic and budget scripts against the supervised execution
    /// layer: pool survival and deterministic budget exhaustion.
    Supervise,
    /// Random behavioural-IR functions through the tree-walking
    /// interpreter and the register bytecode VM, whole instrumented
    /// outputs compared bit for bit.
    Vm,
}

impl Family {
    /// Every family, in canonical run order.
    pub const ALL: [Family; 7] = [
        Family::Sat,
        Family::Dimacs,
        Family::Mc,
        Family::Sim,
        Family::Media,
        Family::Supervise,
        Family::Vm,
    ];

    /// The short name used in reproducer IDs.
    pub fn as_str(self) -> &'static str {
        match self {
            Family::Sat => "sat",
            Family::Dimacs => "dimacs",
            Family::Mc => "mc",
            Family::Sim => "sim",
            Family::Media => "media",
            Family::Supervise => "supervise",
            Family::Vm => "vm",
        }
    }

    /// Parses a short family name.
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.as_str() == s)
    }

    /// The default per-family iteration budget for tier-1 test runs,
    /// scaled to each family's per-iteration cost (overridable through
    /// [`ITERS_ENV`]).
    pub fn default_iters(self) -> u64 {
        match self {
            Family::Sat => 120,
            Family::Dimacs => 250,
            Family::Mc => 25,
            Family::Sim => 60,
            Family::Media => 4,
            Family::Supervise => 50,
            Family::Vm => 80,
        }
    }
}

/// The outcome of one oracle evaluation: an optional disagreement and
/// the engine counters used as coverage feedback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluation {
    /// Human-readable description of the disagreement, if any.
    pub disagreement: Option<String>,
    /// Engine work counters (conflicts, SAT calls, bus ticks, ...).
    pub counters: Vec<u64>,
}

/// A disagreement found during one iteration, already minimized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// What disagreed (engines and verdicts).
    pub detail: String,
    /// The delta-debugged minimal case, rendered for a bug report.
    pub minimized: String,
}

/// What one fuzz iteration produced (crate-internal family contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyOutcome {
    /// Coverage counters for this iteration.
    pub counters: Vec<u64>,
    /// The shrunk disagreement, if the oracles disagreed.
    pub failure: Option<Failure>,
}

/// A disagreement attributed to its replayable origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// The `seed:family:iter` identity that regenerates the case.
    pub repro: ReproId,
    /// What disagreed.
    pub detail: String,
    /// The minimized case.
    pub minimized: String,
}

/// Configuration of one fuzzing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Base seed; every iteration derives its own stream from it.
    pub seed: u64,
    /// Iteration count.
    pub iters: u64,
    /// Enable coverage steering (kept on for reproducers — steering is
    /// itself deterministic, so it is part of the replay contract).
    pub steering: bool,
}

impl FuzzConfig {
    /// The standard configuration for a family: seed 0, the family's
    /// default budget (honouring [`ITERS_ENV`]), steering on.
    pub fn standard(family: Family) -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            iters: repro::iters_from_env(family.default_iters()),
            steering: true,
        }
    }
}

/// Summary of one family's fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// The family that ran.
    pub family: Family,
    /// Iterations executed.
    pub iters: u64,
    /// Every disagreement found (normally empty).
    pub disagreements: Vec<Disagreement>,
    /// Distinct coverage signatures observed.
    pub distinct_signatures: usize,
    /// Iterations whose signature was new (a proxy for how long the
    /// generator kept finding fresh engine behaviour).
    pub novel_iterations: u64,
}

fn dispatch(family: Family, rng: &mut FuzzRng, bias: u64) -> FamilyOutcome {
    match family {
        Family::Sat => sat_fuzz::run_one(rng, bias),
        Family::Dimacs => dimacs_fuzz::run_one(rng, bias),
        Family::Mc => mc_fuzz::run_one(rng, bias),
        Family::Sim => sim_fuzz::run_one(rng, bias),
        Family::Media => media_fuzz::run_one(rng, bias),
        Family::Supervise => supervise_fuzz::run_one(rng, bias),
        Family::Vm => vm_fuzz::run_one(rng, bias),
    }
}

/// Runs one family for `config.iters` iterations.
///
/// The loop is a pure function of `config`: iteration `i` draws its
/// case from `FuzzRng::for_iter(seed, family, i)` under the current
/// generator bias, and the bias evolves deterministically — it is kept
/// while the iteration's counter signature is new to the run's
/// [`coverage::CoverageMap`] and re-randomized (by hashing) once the
/// signatures go stale, an AFL-style feedback loop with no
/// instrumentation cost.
pub fn run(family: Family, config: &FuzzConfig) -> FuzzOutcome {
    let mut map = coverage::CoverageMap::new();
    let mut disagreements = Vec::new();
    let mut bias = 0u64;
    let mut stale = 0u64;
    let mut novel = 0u64;
    for iter in 0..config.iters {
        let repro = ReproId {
            seed: config.seed,
            family,
            iter,
        };
        let mut rng = FuzzRng::for_iter(&repro);
        let outcome = dispatch(family, &mut rng, bias);
        if let Some(failure) = outcome.failure {
            disagreements.push(Disagreement {
                repro: repro.clone(),
                detail: failure.detail,
                minimized: failure.minimized,
            });
        }
        if config.steering {
            if map.observe(&outcome.counters) {
                novel += 1;
                stale = 0;
            } else {
                stale += 1;
                if stale >= 8 {
                    // The current profile stopped reaching new engine
                    // behaviour: jump to a fresh deterministic bias.
                    bias = mix64(bias ^ mix64(iter | 1));
                    stale = 0;
                }
            }
        } else {
            map.observe(&outcome.counters);
        }
    }
    FuzzOutcome {
        family,
        iters: config.iters,
        disagreements,
        distinct_signatures: map.distinct(),
        novel_iterations: novel,
    }
}

/// Replays a reproducer: re-runs its family for `id.iter + 1`
/// iterations from `id.seed` (so the coverage-steering state at
/// iteration `id.iter` is identical to the original run) and returns
/// the disagreement found at exactly that iteration, if any.
pub fn run_repro(id: &ReproId) -> Option<Disagreement> {
    let config = FuzzConfig {
        seed: id.seed,
        iters: id.iter + 1,
        steering: true,
    };
    run(id.family, &config)
        .disagreements
        .into_iter()
        .find(|d| d.repro == *id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for family in Family::ALL {
            assert_eq!(Family::parse(family.as_str()), Some(family));
        }
        assert_eq!(Family::parse("nope"), None);
    }

    #[test]
    fn runs_are_deterministic_end_to_end() {
        let config = FuzzConfig {
            seed: 42,
            iters: 30,
            steering: true,
        };
        let a = run(Family::Dimacs, &config);
        let b = run(Family::Dimacs, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn coverage_steering_finds_more_signatures_than_a_frozen_profile() {
        // Not a strict theorem, but with these seeds the bias rotation
        // must reach at least as many distinct signatures.
        let steered = run(
            Family::Sat,
            &FuzzConfig {
                seed: 5,
                iters: 60,
                steering: true,
            },
        );
        let frozen = run(
            Family::Sat,
            &FuzzConfig {
                seed: 5,
                iters: 60,
                steering: false,
            },
        );
        assert!(
            steered.distinct_signatures >= frozen.distinct_signatures,
            "steered {} < frozen {}",
            steered.distinct_signatures,
            frozen.distinct_signatures
        );
        assert_eq!(steered.disagreements, vec![]);
        assert_eq!(frozen.disagreements, vec![]);
    }

    #[test]
    fn replaying_a_clean_iteration_finds_nothing() {
        let id = ReproId {
            seed: 9,
            family: Family::Dimacs,
            iter: 7,
        };
        assert_eq!(run_repro(&id), None);
    }
}
