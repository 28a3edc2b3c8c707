//! Content-addressing of cached obligations, and the one cache probe
//! path every cached engine takes.
//!
//! An obligation is keyed by the *sources* its engine reads, never by the
//! CNF or BDD the engine builds from them:
//!
//! * the engine tag and its numeric parameters (bound, k, `bmc_bound`);
//! * each netlist as the engines read it: per node its op, operands,
//!   width, and constant or reset value; then the input order, the
//!   register→next wiring, and the output names in order (the module
//!   name and internal signal names stay out);
//! * the property's structure — kind, atoms, connectives, response
//!   window — without its name.
//!
//! The key is exact because the bit-blaster and every engine are
//! deterministic: equal sources build byte-identical formulas and reach
//! equal verdicts. It is never coarser than a key over the built CNF;
//! the only hits it gives up are between different sources that happen
//! to bit-blast alike. A probe therefore costs one hash of the sources,
//! and an engine builds its formula only on a miss.

use crate::prop::{BoolExpr, Cmp, Property};
use crate::Verdict;
use behav::BinOp;
use cache::{Fingerprint, FingerprintBuilder, ObligationCache};
use hdl::{Rtl, RtlOp, SigId};

/// Everything one cached obligation's result depends on: what its cache
/// key hashes.
#[derive(Debug, Clone, Copy)]
pub struct Sources<'a> {
    /// Engine tag (`"bmc"`, `"induction"`, `"reach"`, `"pcc.fails_on"`,
    /// `"level4.miter"`). Engines with different verdict encodings never
    /// share entries, and the cache's per-engine statistics bucket by it.
    pub engine: &'a str,
    /// The engine's numeric parameters (bound, k, `bmc_bound`).
    pub params: &'a [u64],
    /// The netlists the engine reads (at least one). The first one names
    /// a decoded counterexample's outputs.
    pub netlists: &'a [&'a Rtl],
    /// The checked property, if the engine checks one.
    pub property: Option<&'a Property>,
}

impl Sources<'_> {
    /// The obligation's cache key: its [`Sources::netlist_prefix`], then
    /// the property.
    pub fn key(&self) -> Fingerprint {
        self.netlist_prefix().key(self.property)
    }

    /// The key's netlist prefix: the engine tag, the parameters, the
    /// netlist count and each netlist. It ignores `property`, so one
    /// prefix keys every property checked on the same netlists.
    pub fn netlist_prefix(&self) -> NetlistPrefix {
        let mut b = FingerprintBuilder::new(self.engine)
            .params(self.params)
            .param(self.netlists.len() as u64);
        for rtl in self.netlists {
            b = feed_rtl(b, rtl);
        }
        NetlistPrefix(b)
    }
}

/// A key with its netlists already hashed ([`Sources::netlist_prefix`]).
#[derive(Debug, Clone)]
pub struct NetlistPrefix(FingerprintBuilder);

impl NetlistPrefix {
    /// The key of these sources checking `property`: equal to
    /// [`Sources::key`] with that property.
    pub fn key(&self, property: Option<&Property>) -> Fingerprint {
        let b = self.0.clone();
        match property {
            None => b.param(0),
            Some(p) => feed_property(b.param(1), p),
        }
        .finish()
    }
}

/// A result the obligation cache stores as a payload string.
pub trait Payload: Sized {
    /// The payload to store, or `None` when the result must not be
    /// cached: an exhausted budget describes the budget, not the
    /// obligation, and a retry with more effort may decide it.
    fn encode(&self) -> Option<String>;

    /// Decodes a stored payload; `rtl` names a counterexample's outputs.
    /// An undecodable payload is `None`, which the probe treats as a
    /// miss.
    fn decode(payload: &str, rtl: &Rtl) -> Option<Self>;
}

/// Model-checking verdicts, counterexample traces included.
impl Payload for Verdict {
    fn encode(&self) -> Option<String> {
        (!self.is_budget_exhausted()).then(|| crate::cachefmt::encode_verdict(self))
    }

    fn decode(payload: &str, rtl: &Rtl) -> Option<Self> {
        crate::cachefmt::decode_verdict(rtl, payload)
    }
}

/// A decision that always concludes (a PCC kill check).
impl Payload for bool {
    fn encode(&self) -> Option<String> {
        Some(cache::encode_bool(*self))
    }

    fn decode(payload: &str, _: &Rtl) -> Option<Self> {
        cache::decode_bool(payload)
    }
}

/// A budgeted decision (a level-4 miter): `None` means the budget ran
/// out, and is never stored.
impl Payload for Option<bool> {
    fn encode(&self) -> Option<String> {
        self.map(cache::encode_bool)
    }

    fn decode(payload: &str, _: &Rtl) -> Option<Self> {
        cache::decode_bool(payload).map(Some)
    }
}

/// Discharges one obligation through `cache`. A hit returns the stored
/// result without building anything; a miss — or a payload that fails to
/// decode — runs `run` and stores its result (unless
/// [`Payload::encode`] declines). Hits and misses count as `cache.hits`
/// and `cache.misses` on `instrument`. A disabled cache
/// ([`cache::noop()`]) skips the hash and the counters entirely.
pub fn probe<T: Payload>(
    cache: &ObligationCache,
    instrument: &telemetry::SharedInstrument,
    sources: &Sources<'_>,
    run: impl FnOnce() -> T,
) -> T {
    probe_keyed(cache, instrument, sources, || sources.key(), run)
}

/// [`probe`] with the key computed by `key`, which must return
/// `sources.key()`; a caller that shares a [`NetlistPrefix`] across
/// properties passes its [`NetlistPrefix::key`]. A disabled cache never
/// calls `key`.
pub fn probe_keyed<T: Payload>(
    cache: &ObligationCache,
    instrument: &telemetry::SharedInstrument,
    sources: &Sources<'_>,
    key: impl FnOnce() -> Fingerprint,
    run: impl FnOnce() -> T,
) -> T {
    if !cache.is_enabled() {
        return run();
    }
    let key = key();
    if let Some(payload) = cache.lookup_tagged(sources.engine, key) {
        if let Some(value) = T::decode(&payload, sources.netlists[0]) {
            instrument.counter_add("cache.hits", 1);
            return value;
        }
    }
    instrument.counter_add("cache.misses", 1);
    let value = run();
    if let Some(payload) = value.encode() {
        cache.insert_tagged(sources.engine, key, payload);
    }
    value
}

/// Feeds one netlist: five words per node (op, width, three operand or
/// value slots), then the input order, the register→next wiring, and the
/// named outputs in declaration order.
fn feed_rtl(b: FingerprintBuilder, rtl: &Rtl) -> FingerprintBuilder {
    let idx = |s: SigId| s.index() as u64;
    let mut nodes = Vec::with_capacity(5 * rtl.num_nodes());
    for sig in rtl.signals() {
        let (op, x, y, z) = match *rtl.op(sig) {
            RtlOp::Const(value) => (0, value, 0, 0),
            RtlOp::Input => (1, 0, 0, 0),
            RtlOp::Reg { init } => (2, init, 0, 0),
            RtlOp::Not(a) => (3, idx(a), 0, 0),
            RtlOp::Neg(a) => (4, idx(a), 0, 0),
            RtlOp::Binary(op, a, c) => (5, binop_code(op), idx(a), idx(c)),
            RtlOp::Mux { sel, then_, else_ } => (6, idx(sel), idx(then_), idx(else_)),
        };
        nodes.extend([op, u64::from(rtl.width(sig)), x, y, z]);
    }
    let inputs: Vec<u64> = rtl.inputs().iter().map(|&s| idx(s)).collect();
    let wiring: Vec<u64> = rtl
        .registers()
        .iter()
        .flat_map(|&(r, next)| [idx(r), idx(next)])
        .collect();
    let mut b = b
        .params(&nodes)
        .params(&inputs)
        .params(&wiring)
        .param(rtl.outputs().len() as u64);
    for (name, sig) in rtl.outputs() {
        b = b.text(name).param(idx(*sig));
    }
    b
}

/// Feeds a property's structure, without its name.
fn feed_property(b: FingerprintBuilder, property: &Property) -> FingerprintBuilder {
    match property {
        Property::Invariant { expr, .. } => feed_expr(b.param(0), expr),
        Property::Response {
            trigger,
            response,
            within,
            ..
        } => feed_expr(feed_expr(b.param(1), trigger), response).param(u64::from(*within)),
    }
}

/// Feeds a formula in prefix order; every connective has a fixed arity,
/// so the encoding is unambiguous.
fn feed_expr(b: FingerprintBuilder, expr: &BoolExpr) -> FingerprintBuilder {
    match expr {
        BoolExpr::Const(v) => b.param(0).param(u64::from(*v)),
        BoolExpr::Atom(a) => b
            .param(1)
            .text(&a.output)
            .param(cmp_code(a.cmp))
            .param(a.value),
        BoolExpr::Not(x) => feed_expr(b.param(2), x),
        BoolExpr::And(x, y) => feed_expr(feed_expr(b.param(3), x), y),
        BoolExpr::Or(x, y) => feed_expr(feed_expr(b.param(4), x), y),
        BoolExpr::Implies(x, y) => feed_expr(feed_expr(b.param(5), x), y),
    }
}

/// Fixed codes, not declaration order: reordering the enum must not
/// silently change the persisted keys.
fn binop_code(op: BinOp) -> u64 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Eq => 10,
        BinOp::Ne => 11,
        BinOp::Lt => 12,
        BinOp::Le => 13,
        BinOp::Gt => 14,
        BinOp::Ge => 15,
    }
}

fn cmp_code(cmp: Cmp) -> u64 {
    match cmp {
        Cmp::Eq => 0,
        Cmp::Ne => 1,
        Cmp::Lt => 2,
        Cmp::Le => 3,
        Cmp::Gt => 4,
        Cmp::Ge => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(engine: &str, rtl: &Rtl, property: &Property, params: &[u64]) -> Fingerprint {
        Sources {
            engine,
            params,
            netlists: &[rtl],
            property: Some(property),
        }
        .key()
    }

    fn named_counter(module: &str, reg: &str, modulus: u64, init: u64) -> Rtl {
        let mut rtl = Rtl::new(module);
        let q = rtl.reg(reg, 3, init);
        let one = rtl.constant(1, 3);
        let maxc = rtl.constant(modulus - 1, 3);
        let zero = rtl.constant(0, 3);
        let inc = rtl.binary(BinOp::Add, q, one);
        let at_max = rtl.binary(BinOp::Eq, q, maxc);
        let next = rtl.mux(at_max, zero, inc);
        rtl.set_next(q, next);
        rtl.output("q", q);
        rtl
    }

    fn counter(modulus: u64) -> Rtl {
        named_counter("modc", "q", modulus, 0)
    }

    #[test]
    fn fingerprints_are_reproducible() {
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let a = fingerprint("bmc", &counter(5), &p, &[10]);
        let b = fingerprint("bmc", &counter(5), &p, &[10]);
        assert_eq!(a, b);
    }

    #[test]
    fn renaming_a_property_shares_the_entry() {
        let a = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let b = Property::invariant("other_name", BoolExpr::lt("q", 5));
        let rtl = counter(5);
        assert_eq!(
            fingerprint("bmc", &rtl, &a, &[10]),
            fingerprint("bmc", &rtl, &b, &[10])
        );
    }

    #[test]
    fn module_and_internal_signal_names_stay_out_of_the_key() {
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let base = fingerprint("bmc", &counter(5), &p, &[10]);
        let renamed = named_counter("another_module", "state_reg", 5, 0);
        assert_eq!(fingerprint("bmc", &renamed, &p, &[10]), base);
        // Output names are what properties read, so they do count.
        let mut relabelled = counter(5);
        let q = relabelled.outputs()[0].1;
        relabelled.output("q_again", q);
        assert_ne!(fingerprint("bmc", &relabelled, &p, &[10]), base);
    }

    #[test]
    fn distinct_obligations_separate() {
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let q = Property::invariant("lt5", BoolExpr::lt("q", 4));
        let rtl = counter(5);
        let base = fingerprint("bmc", &rtl, &p, &[10]);
        assert_ne!(fingerprint("bmc", &rtl, &q, &[10]), base, "property");
        assert_ne!(fingerprint("bmc", &rtl, &p, &[11]), base, "bound");
        assert_ne!(fingerprint("reach", &rtl, &p, &[10]), base, "engine");
        assert_ne!(fingerprint("bmc", &counter(6), &p, &[10]), base, "netlist");
    }

    #[test]
    fn every_reset_value_gets_its_own_entry() {
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let keys: std::collections::HashSet<Fingerprint> = (0..8)
            .map(|init| fingerprint("bmc", &named_counter("modc", "q", 5, init), &p, &[10]))
            .collect();
        assert_eq!(keys.len(), 8);
    }

    #[test]
    fn mutants_get_their_own_entries() {
        // Every stuck bit — including output bits that constant-fold —
        // must change the fingerprint, or PCC would reuse the fault-free
        // verdict for a mutant.
        let rtl = counter(5);
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let base = fingerprint("pcc.fails_on", &rtl, &p, &[10]);
        let mut seen = std::collections::HashSet::new();
        seen.insert(base);
        for reg_bit in 0..3u32 {
            for stuck in [false, true] {
                let mut m = rtl.clone();
                let (r, next) = m.registers()[0];
                let w = m.width(next);
                let faulty = if stuck {
                    let mask = m.constant(1 << reg_bit, w);
                    m.binary(BinOp::Or, next, mask)
                } else {
                    let mask = m.constant(0b111 & !(1 << reg_bit), w);
                    m.binary(BinOp::And, next, mask)
                };
                m.set_next(r, faulty);
                assert!(
                    seen.insert(fingerprint("pcc.fails_on", &m, &p, &[10])),
                    "mutant reg bit {reg_bit} stuck_at {stuck} collided"
                );
            }
        }
    }

    #[test]
    fn a_probe_runs_the_engine_once_and_replays_the_result() {
        let cache = ObligationCache::new();
        let rtl = counter(5);
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let sources = Sources {
            engine: "bmc",
            params: &[3],
            netlists: &[&rtl],
            property: Some(&p),
        };
        let mut runs = 0;
        for _ in 0..2 {
            let verdict = probe(&cache, &telemetry::noop(), &sources, || {
                runs += 1;
                Verdict::NoViolationUpTo(3)
            });
            assert_eq!(verdict, Verdict::NoViolationUpTo(3));
        }
        assert_eq!(runs, 1);
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        // Exhausted budgets are never stored.
        let budget = Sources {
            params: &[4],
            ..sources
        };
        for _ in 0..2 {
            probe(&cache, &telemetry::noop(), &budget, || {
                Verdict::Unknown(crate::UnknownReason::BudgetExhausted)
            });
        }
        assert_eq!(cache.stats().misses, 3);
        // A disabled cache always runs the engine.
        let uncached = probe(cache::noop(), &telemetry::noop(), &sources, || {
            Verdict::Proven
        });
        assert_eq!(uncached, Verdict::Proven);
    }
}
