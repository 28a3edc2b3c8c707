//! PCC: the property coverage checker.
//!
//! "How many properties should the verification engineer define to
//! completely check the implementation?" (§3.4). Following the paper's
//! reference \[13\] (Fedeli et al., MEMOCODE 2003), PCC answers by mixing
//! functional and formal verification: a *high-level fault* is injected
//! into the RTL, and the property set **covers** the fault iff at least one
//! property — all of which hold on the fault-free design — fails on the
//! mutant. Faults that no property kills expose behaviour the property set
//! does not constrain; the flow then demands more properties and repeats
//! until no refinement is possible.
//!
//! The fault model mirrors the bit-level high-level faults used by the
//! ATPG: stuck-at-0/1 on every register next-state bit and every output
//! bit.
//!
//! Caveat: a mutant can be functionally equivalent to the original (e.g. a
//! stuck bit that never differs); such faults are inherently uncoverable
//! and show up in the uncovered list — exactly as in the original PCC,
//! where they require manual review.

use behav::BinOp;
use hdl::{Rtl, SigId};
use mc::prop::Property;
use mc::{bmc, reach, Verdict};

/// One injectable fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtlFault {
    /// Stuck bit on a register's next-state function.
    NextState {
        /// Register index (registration order).
        reg: usize,
        /// Bit position.
        bit: u32,
        /// Stuck value.
        stuck_at: bool,
    },
    /// Stuck bit on a declared output.
    Output {
        /// Output index (declaration order).
        output: usize,
        /// Bit position.
        bit: u32,
        /// Stuck value.
        stuck_at: bool,
    },
}

/// Enumerates the full fault list of a netlist.
pub fn enumerate_faults(rtl: &Rtl) -> Vec<RtlFault> {
    let mut faults = Vec::new();
    for (i, &(r, _)) in rtl.registers().iter().enumerate() {
        for bit in 0..rtl.width(r) {
            for stuck_at in [false, true] {
                faults.push(RtlFault::NextState {
                    reg: i,
                    bit,
                    stuck_at,
                });
            }
        }
    }
    for (i, &(_, sig)) in rtl.outputs().iter().enumerate() {
        for bit in 0..rtl.width(sig) {
            for stuck_at in [false, true] {
                faults.push(RtlFault::Output {
                    output: i,
                    bit,
                    stuck_at,
                });
            }
        }
    }
    faults
}

fn stuck(rtl: &mut Rtl, sig: SigId, bit: u32, stuck_at: bool) -> SigId {
    let w = rtl.width(sig);
    if stuck_at {
        let m = rtl.constant(1u64 << bit, w);
        rtl.binary(BinOp::Or, sig, m)
    } else {
        let full = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
        let m = rtl.constant(full & !(1u64 << bit), w);
        rtl.binary(BinOp::And, sig, m)
    }
}

/// Builds the mutant netlist for one fault.
pub fn mutant(rtl: &Rtl, fault: RtlFault) -> Rtl {
    let mut m = rtl.clone();
    match fault {
        RtlFault::NextState { reg, bit, stuck_at } => {
            let (r, next) = m.registers()[reg];
            let faulty = stuck(&mut m, next, bit, stuck_at);
            m.set_next(r, faulty);
        }
        RtlFault::Output {
            output,
            bit,
            stuck_at,
        } => {
            let (name, sig) = m.outputs()[output].clone();
            let faulty = stuck(&mut m, sig, bit, stuck_at);
            m.replace_output(&name, faulty);
        }
    }
    m
}

/// PCC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PccConfig {
    /// BMC bound used for response properties (and for mutants whose state
    /// space is too wide for exact reachability).
    pub bmc_bound: u32,
}

impl Default for PccConfig {
    fn default() -> Self {
        PccConfig { bmc_bound: 16 }
    }
}

/// Errors raised before coverage is even attempted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PccError {
    /// A property already fails on the fault-free design: fix the design or
    /// the property before measuring coverage.
    PropertyFailsOnGoodDesign {
        /// Name of the failing property.
        property: String,
    },
}

impl std::fmt::Display for PccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PccError::PropertyFailsOnGoodDesign { property } => {
                write!(f, "property `{property}` fails on the fault-free design")
            }
        }
    }
}

impl std::error::Error for PccError {}

/// Result of a PCC run.
#[derive(Debug, Clone, PartialEq)]
pub struct PccReport {
    /// Total faults injected.
    pub total: usize,
    /// Faults killed by at least one property.
    pub covered: usize,
    /// Faults no property killed — the unconstrained behaviour.
    pub uncovered: Vec<RtlFault>,
    /// Kill counts per property name.
    pub per_property: Vec<(String, usize)>,
}

impl PccReport {
    /// Property-coverage percentage.
    pub fn pct(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.covered as f64 / self.total as f64
        }
    }
}

/// Whether a property fails (is violated) on a design.
///
/// Invariants use the exact BDD engine when the state space is small
/// enough; response properties are compiled to saturating-counter monitors
/// ([`mc::monitor`]) and decided exactly the same way. BMC at the
/// configured bound is the fallback for wide designs — conservative in the
/// uncovered direction (a violation deeper than the bound counts as "not
/// killed"). The engines count their effort (`bdd.nodes_allocated`, the
/// `bmc.*` and `sat.*` counters) on `instrument`; the caller has already
/// probed the cache, so the engines run uncached.
fn fails_on(
    rtl: &Rtl,
    property: &Property,
    cfg: &PccConfig,
    instrument: &telemetry::SharedInstrument,
) -> bool {
    let reach = |rtl: &Rtl, property: &Property| {
        reach::check_cached(rtl, property, instrument, cache::noop())
    };
    let bmc = || bmc::check_cached(rtl, property, cfg.bmc_bound, instrument, cache::noop());
    let verdict = match property {
        Property::Invariant { .. } if rtl.state_bits() <= 24 => reach(rtl, property),
        Property::Response { .. } if rtl.state_bits() <= 20 => {
            let (aug, inv) = mc::monitor::compile_response_monitor(rtl, property);
            if aug.state_bits() <= 24 {
                reach(&aug, &inv)
            } else {
                bmc()
            }
        }
        _ => bmc(),
    };
    matches!(verdict, Verdict::Violated(_))
}

/// Measures the completeness of `properties` against the full fault list,
/// one fault at a time in enumeration order. Every `(design, property)`
/// decision — good-design pre-check and per-mutant kill checks alike — is
/// looked up in `cache` before an engine runs and stored after
/// ([`cache::noop()`] skips both), and counted as `cache.hits` /
/// `cache.misses` on `instrument`. Caching at this granularity lets a
/// rerun skip every already-decided mutant, and lets an extended property
/// set reuse the initial set's decisions verbatim. The report stays
/// bit-identical to the uncached run for any starting cache, because
/// cached payloads are the engines' own verdicts.
///
/// # Errors
///
/// Returns [`PccError::PropertyFailsOnGoodDesign`] when any property fails
/// on the unmodified design — coverage of a broken specification is
/// meaningless. The first failing property in declaration order is named.
pub fn check_coverage(
    rtl: &Rtl,
    properties: &[Property],
    cfg: &PccConfig,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
) -> Result<PccReport, PccError> {
    // Which properties fail on one netlist, each decision probed in
    // `cache` (engine tag `"pcc.fails_on"`, parameter `bmc_bound`). The
    // netlist is hashed once for all properties, and only when the cache
    // is enabled.
    let failing = |design: &Rtl| -> Vec<bool> {
        let sources = mc::obligation::Sources {
            engine: "pcc.fails_on",
            params: &[u64::from(cfg.bmc_bound)],
            netlists: &[design],
            property: None,
        };
        let prefix = std::cell::OnceCell::new();
        properties
            .iter()
            .map(|p| {
                let key = || prefix.get_or_init(|| sources.netlist_prefix()).key(Some(p));
                let sources = mc::obligation::Sources {
                    property: Some(p),
                    ..sources
                };
                mc::obligation::probe_keyed(cache, instrument, &sources, key, || {
                    fails_on(design, p, cfg, instrument)
                })
            })
            .collect()
    };
    // Pre-check every property on the fault-free design, then report the
    // first failure in declaration order.
    if let Some(pi) = failing(rtl).iter().position(|&fails| fails) {
        return Err(PccError::PropertyFailsOnGoodDesign {
            property: properties[pi].name().to_owned(),
        });
    }
    let faults = enumerate_faults(rtl);
    // One obligation per fault: which properties kill its mutant.
    let kills: Vec<Vec<bool>> = faults
        .iter()
        .map(|&fault| failing(&mutant(rtl, fault)))
        .collect();
    let mut uncovered = Vec::new();
    let mut covered = 0usize;
    let mut per_property = vec![0usize; properties.len()];
    for (&fault, killed_by) in faults.iter().zip(&kills) {
        let mut killed = false;
        for (pi, &kill) in killed_by.iter().enumerate() {
            if kill {
                per_property[pi] += 1;
                killed = true;
            }
        }
        if killed {
            covered += 1;
        } else {
            uncovered.push(fault);
        }
    }
    Ok(PccReport {
        total: faults.len(),
        covered,
        uncovered,
        per_property: properties
            .iter()
            .zip(per_property)
            .map(|(p, c)| (p.name().to_owned(), c))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc::prop::BoolExpr;

    /// Mod-4 counter with an `at_max` flag output.
    fn counter() -> Rtl {
        let mut rtl = Rtl::new("c4");
        let q = rtl.reg("q", 2, 0);
        let one = rtl.constant(1, 2);
        let inc = rtl.binary(BinOp::Add, q, one);
        rtl.set_next(q, inc);
        let three = rtl.constant(3, 2);
        let at_max = rtl.binary(BinOp::Eq, q, three);
        rtl.output("q", q);
        rtl.output("at_max", at_max);
        rtl
    }

    #[test]
    fn fault_list_covers_all_bits() {
        let rtl = counter();
        let faults = enumerate_faults(&rtl);
        // next-state: 2 bits × 2 + outputs: (2 bits q + 1 bit at_max) × 2.
        assert_eq!(faults.len(), 4 + 6);
    }

    #[test]
    fn mutants_actually_differ_in_simulation() {
        let rtl = counter();
        let fault = RtlFault::NextState {
            reg: 0,
            bit: 0,
            stuck_at: false,
        };
        let m = mutant(&rtl, fault);
        let inputs: Vec<Vec<u64>> = (0..6).map(|_| vec![]).collect();
        let good = rtl.simulate(&inputs);
        let bad = m.simulate(&inputs);
        assert_ne!(good, bad);
    }

    #[test]
    fn weak_property_set_has_low_coverage_then_improves() {
        let rtl = counter();
        let cfg = PccConfig { bmc_bound: 12 };
        // A single weak property: q stays in range (trivially true, even
        // for most mutants, since 2 bits can't exceed 3).
        let weak = vec![Property::invariant("range", BoolExpr::le("q", 3))];
        let weak_report = check_coverage(&rtl, &weak, &cfg, &telemetry::noop(), cache::noop())
            .expect("holds on good design");
        // A stronger set pins the q/at_max relationship and the exact
        // counting order via one step-response property per state.
        let mut strong = vec![
            Property::invariant("range", BoolExpr::le("q", 3)),
            Property::invariant(
                "flag_iff_3",
                BoolExpr::and(
                    BoolExpr::implies(BoolExpr::eq("q", 3), BoolExpr::eq("at_max", 1)),
                    BoolExpr::implies(BoolExpr::ne("q", 3), BoolExpr::eq("at_max", 0)),
                ),
            ),
        ];
        for v in 0..4u64 {
            strong.push(Property::response(
                &format!("step_{v}"),
                BoolExpr::eq("q", v),
                BoolExpr::eq("q", (v + 1) % 4),
                1,
            ));
        }
        let strong_report = check_coverage(&rtl, &strong, &cfg, &telemetry::noop(), cache::noop())
            .expect("holds on good design");
        assert!(weak_report.pct() < strong_report.pct());
        assert!(
            strong_report.pct() == 100.0,
            "strong set should kill all faults, uncovered: {:?}",
            strong_report.uncovered
        );
        // The weak report names uncovered faults the engineer must address.
        assert!(!weak_report.uncovered.is_empty());
        // Per-property kill counts are reported.
        assert_eq!(strong_report.per_property.len(), 6);
        assert!(strong_report.per_property.iter().any(|(_, c)| *c > 0));
    }

    #[test]
    fn cached_coverage_reruns_without_new_engine_work() {
        let rtl = counter();
        let cfg = PccConfig { bmc_bound: 12 };
        let properties = vec![
            Property::invariant("range", BoolExpr::le("q", 3)),
            Property::response("step_0", BoolExpr::eq("q", 0), BoolExpr::eq("q", 1), 1),
        ];
        let cache = cache::ObligationCache::new();
        let cold = check_coverage(&rtl, &properties, &cfg, &telemetry::noop(), &cache)
            .expect("good design");
        // The cached run decides exactly what the uncached one decides.
        let reference = check_coverage(&rtl, &properties, &cfg, &telemetry::noop(), cache::noop())
            .expect("good design");
        assert_eq!(cold, reference);

        let after_cold = cache.stats();
        let obligations = properties.len() * (1 + enumerate_faults(&rtl).len());
        let warm = check_coverage(&rtl, &properties, &cfg, &telemetry::noop(), &cache)
            .expect("good design");
        assert_eq!(warm, cold);
        let after_warm = cache.stats();
        // Every warm obligation hit; none escaped to an engine.
        assert_eq!(after_warm.misses, after_cold.misses);
        assert_eq!(after_warm.hits - after_cold.hits, obligations as u64);
    }

    #[test]
    fn cache_probes_count_on_the_instrument() {
        let rtl = counter();
        let cfg = PccConfig { bmc_bound: 12 };
        let properties = vec![Property::invariant("range", BoolExpr::le("q", 3))];
        let collector = telemetry::Collector::shared();
        let instr: telemetry::SharedInstrument = collector.clone();
        let cache = cache::ObligationCache::new();
        for _ in 0..2 {
            check_coverage(&rtl, &properties, &cfg, &instr, &cache).expect("good design");
        }
        let stats = cache.stats();
        assert!(stats.hits > 0 && stats.misses > 0);
        assert_eq!(collector.counter("cache.hits"), stats.hits);
        assert_eq!(collector.counter("cache.misses"), stats.misses);
    }

    #[test]
    fn every_bus_wrapper_mutant_gets_its_own_key() {
        // A shared key would hand a mutant the fault-free design's (or
        // another mutant's) kill verdict.
        let rtl = hdl::fsm::bus_wrapper_fsm("w");
        let p = Property::invariant("state_in_range", BoolExpr::le("state", 3));
        let key = |rtl: &Rtl| {
            mc::obligation::Sources {
                engine: "pcc.fails_on",
                params: &[10],
                netlists: &[rtl],
                property: Some(&p),
            }
            .key()
        };
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(key(&rtl)));
        let faults = enumerate_faults(&rtl);
        assert!(!faults.is_empty());
        for fault in faults {
            assert!(
                seen.insert(key(&mutant(&rtl, fault))),
                "{fault:?} shares a key"
            );
        }
    }

    #[test]
    fn failing_property_on_good_design_is_an_error() {
        let rtl = counter();
        let bad = vec![Property::invariant("wrong", BoolExpr::lt("q", 3))];
        let err = check_coverage(
            &rtl,
            &bad,
            &PccConfig::default(),
            &telemetry::noop(),
            cache::noop(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            PccError::PropertyFailsOnGoodDesign {
                property: "wrong".to_owned()
            }
        );
    }

    #[test]
    fn empty_property_set_covers_nothing() {
        let rtl = counter();
        let report = check_coverage(
            &rtl,
            &[],
            &PccConfig::default(),
            &telemetry::noop(),
            cache::noop(),
        )
        .expect("vacuously ok");
        assert_eq!(report.covered, 0);
        assert_eq!(report.uncovered.len(), report.total);
        assert_eq!(report.pct(), 0.0);
    }
}
