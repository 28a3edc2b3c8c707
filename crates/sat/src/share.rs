//! Learnt-clause export for the cross-obligation lemma pool.
//!
//! A [`SolverShare::collector`] attached to a [`crate::Solver`] records
//! the short, low-glue clauses the solver learns. Level 4 stores them in
//! the lemma pool under the miter's source key (the hash of the two
//! netlists it compares, `level4::solve_miter`), and the next solver
//! over a miter with the same key imports them with
//! [`crate::Solver::import_clause`] before it searches.
//!
//! Soundness rests on three legs (see DESIGN.md §16):
//!
//! 1. **Entailment.** Every learnt clause is a resolvent of the solver's
//!    *permanent* clause set (assumptions enter the search as scoped
//!    decisions, never as clauses), so every export is entailed by the
//!    formula it was learnt from.
//! 2. **Level-0 import.** Imports are integrated only while the importing
//!    solver rests at decision level 0 — the same discipline as
//!    [`crate::Solver::add_clause`] — so watched-literal and trail
//!    invariants are never violated mid-search.
//! 3. **Identical formulas.** The pool is keyed by the miter's 128-bit
//!    source key. Miter construction and bit-blasting are deterministic,
//!    so equal sources build byte-identical CNFs (DESIGN.md §10), and a
//!    clause can only ever reach a solver whose formula entails it.
//!
//! Exporting and importing may change *effort* (conflicts, decisions) —
//! never *answers*.

use crate::types::Lit;

/// Admission filter for exports: only clauses short enough *and* with low
/// enough glue (LBD — the number of distinct decision levels among the
/// clause's literals at learn time) are worth the import cost on the
/// receiving side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareFilter {
    /// Maximum literal count of an exported clause.
    pub max_len: usize,
    /// Maximum glue (LBD) of an exported clause. Units have glue 1.
    pub max_glue: u32,
}

impl Default for ShareFilter {
    fn default() -> Self {
        ShareFilter {
            max_len: 12,
            max_glue: 6,
        }
    }
}

impl ShareFilter {
    /// A filter that admits everything up to `max_len` literals
    /// regardless of glue — used by tests and the fuzz family to drive
    /// export volume.
    pub fn permissive(max_len: usize) -> Self {
        ShareFilter {
            max_len,
            max_glue: u32::MAX,
        }
    }

    /// Whether a clause of `len` literals and `glue` LBD passes.
    pub fn admits(&self, len: usize, glue: u32) -> bool {
        len <= self.max_len && glue <= self.max_glue
    }
}

/// Export counters of one [`SolverShare`] collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShareStats {
    /// Clauses that passed the filter and were exported.
    pub exported: u64,
    /// Learnt clauses rejected by the length/glue filter.
    pub export_rejected: u64,
}

/// Outcome of integrating one foreign clause at decision level 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportResult {
    /// The clause (or its level-0 simplification) was added.
    Added,
    /// The clause was already satisfied/tautological/out-of-range and was
    /// dropped — always sound, the solver is unchanged.
    Redundant,
    /// The clause closed the formula: it is now unsatisfiable at level 0.
    /// Sound because imports are entailed — this is a real verdict.
    Conflict,
}

/// A lemma-pool collector, attached to a [`crate::Solver`] via
/// [`crate::Solver::set_share`]: the export filter and a bounded buffer
/// of the clauses that passed it.
#[derive(Debug)]
pub struct SolverShare {
    filter: ShareFilter,
    pool_cap: usize,
    pool_exports: Vec<Vec<Lit>>,
    stats: ShareStats,
}

impl SolverShare {
    /// A collector that keeps up to `pool_cap` of the learnt clauses
    /// `filter` admits — what level 4 attaches so an obligation's learnt
    /// clauses seed the cross-obligation lemma pool.
    pub fn collector(filter: ShareFilter, pool_cap: usize) -> Self {
        SolverShare {
            filter,
            pool_cap,
            pool_exports: Vec::new(),
            stats: ShareStats::default(),
        }
    }

    /// Whether a clause of `len` literals could pass the filter at all
    /// (the cheap pre-check the solver runs before computing glue).
    pub(crate) fn wants_len(&self, len: usize) -> bool {
        len <= self.filter.max_len
    }

    /// Offers one just-learnt clause for export. The clause is normalised
    /// (literals sorted) so the pool sees a canonical form.
    pub(crate) fn offer(&mut self, lits: &[Lit], glue: u32) {
        if !self.filter.admits(lits.len(), glue) {
            self.stats.export_rejected += 1;
            return;
        }
        let mut clause = lits.to_vec();
        clause.sort_unstable();
        self.stats.exported += 1;
        #[cfg(feature = "share-mutant")]
        {
            // Injected bug: every 64th export flips its first literal,
            // breaking entailment. The `share` fuzz family's per-export
            // entailment oracle (and `fuzz/tests/share_mutant.rs`) must
            // catch this; never enable outside that check.
            if self.stats.exported.is_multiple_of(64) {
                clause[0] = !clause[0];
            }
        }
        if self.pool_exports.len() < self.pool_cap {
            self.pool_exports.push(clause);
        }
    }

    /// Snapshot of this collector's export counters.
    pub fn stats(&self) -> ShareStats {
        self.stats
    }

    /// Clauses this collector kept so far (sorted-literal canonical
    /// form), without consuming the collector.
    pub fn pool_exports(&self) -> &[Vec<Lit>] {
        &self.pool_exports
    }

    /// Consumes the collector, yielding its pool-bound exports.
    pub fn into_pool_exports(self) -> Vec<Vec<Lit>> {
        self.pool_exports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_polarity(Var::from_index(i), pos)
    }

    #[test]
    fn filter_gates_exports() {
        let mut share = SolverShare::collector(
            ShareFilter {
                max_len: 2,
                max_glue: 2,
            },
            16,
        );
        share.offer(&[lit(0, true)], 1);
        share.offer(&[lit(1, true), lit(2, false)], 2);
        share.offer(&[lit(1, true), lit(2, false), lit(3, true)], 2); // too long
        share.offer(&[lit(4, true), lit(5, true)], 3); // glue too high
        assert_eq!(share.stats().exported, 2);
        assert_eq!(share.stats().export_rejected, 2);
        assert_eq!(share.pool_exports().len(), 2);
    }

    #[cfg(not(feature = "share-mutant"))]
    #[test]
    fn exports_are_normalised_sorted() {
        let mut share = SolverShare::collector(ShareFilter::permissive(8), 16);
        share.offer(&[lit(3, false), lit(1, true), lit(2, true)], 1);
        let exports = share.pool_exports();
        assert_eq!(exports.len(), 1);
        let mut sorted = exports[0].clone();
        sorted.sort_unstable();
        assert_eq!(exports[0], sorted);
    }

    #[test]
    fn pool_cap_bounds_collection() {
        let mut share = SolverShare::collector(ShareFilter::permissive(8), 3);
        for i in 0..10 {
            share.offer(&[lit(i, true)], 1);
        }
        assert_eq!(share.pool_exports().len(), 3);
        assert_eq!(share.stats().exported, 10);
    }

    #[cfg(feature = "share-mutant")]
    #[test]
    fn share_mutant_flips_every_64th_export() {
        let mut share = SolverShare::collector(ShareFilter::permissive(4), 1024);
        for i in 0..128 {
            share.offer(&[lit(i, true), lit(i + 1, true)], 1);
        }
        let exports = share.pool_exports();
        // Exports 64 and 128 (1-indexed) carry a flipped first literal.
        let flipped = exports
            .iter()
            .filter(|c| c.iter().any(|l| !l.is_positive()))
            .count();
        assert_eq!(flipped, 2);
    }
}
