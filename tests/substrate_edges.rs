//! Edge-case integration tests of the substrate crates: kernel event
//! semantics with multiple waiters, DIMACS round-trips, BDD structural
//! identities, VHDL/VCD artifact sanity, and the AHB burst preset in the
//! timed model.

use proptest::prelude::*;
use sim::{Activation, EventId, Process, ProcessCtx, SimTime, Simulator};

/// Several processes blocked on one event must all wake on one notify.
struct ManyWaiters {
    ev: EventId,
    armed: bool,
    label: String,
}

impl Process<u64> for ManyWaiters {
    fn poll(&mut self, ctx: &mut ProcessCtx<'_, u64>) -> Activation {
        if self.armed {
            ctx.trace("woke", ctx.now().ticks());
            return Activation::Done;
        }
        self.armed = true;
        Activation::WaitEvent(self.ev)
    }
    fn name(&self) -> &str {
        &self.label
    }
}

struct Notifier {
    ev: EventId,
    fired: bool,
}

impl Process<u64> for Notifier {
    fn poll(&mut self, ctx: &mut ProcessCtx<'_, u64>) -> Activation {
        if self.fired {
            return Activation::Done;
        }
        self.fired = true;
        ctx.notify(self.ev, SimTime::from_ticks(3));
        Activation::Done
    }
    fn name(&self) -> &str {
        "notifier"
    }
}

#[test]
fn one_notification_wakes_every_waiter() {
    let mut sim = Simulator::new();
    let ev = sim.add_event("go");
    for i in 0..5 {
        sim.add_process(ManyWaiters {
            ev,
            armed: false,
            label: format!("w{i}"),
        });
    }
    sim.add_process(Notifier { ev, fired: false });
    let outcome = sim.run(SimTime::MAX).expect("run");
    assert!(outcome.is_quiescent());
    let woke: Vec<u64> = sim.trace().items_for("woke").into_iter().copied().collect();
    assert_eq!(woke, vec![3; 5]);
    assert_eq!(outcome.stats.notifications, 1);
}

#[test]
fn vhdl_and_vcd_artifacts_cohere() {
    // The same netlist renders to both formats with matching port names.
    let rtl = hdl::fsm::bus_wrapper_fsm("bus_wrapper");
    let vhdl = hdl::vhdl::to_vhdl(&rtl);
    let vcd = hdl::vcd::dump(&rtl, &[vec![1, 0], vec![0, 1], vec![0, 0]]);
    for port in ["start", "ack", "bus_req", "done"] {
        assert!(vhdl.contains(port), "vhdl missing {port}");
        assert!(vcd.contains(port), "vcd missing {port}");
    }
}

#[test]
fn ahb_burst_preset_slows_long_downloads_in_level3() {
    use symbad_core::partition::ArchConfig;
    use symbad_core::timed::{self, TimedSetup};
    use symbad_core::Workload;
    let w = Workload::small();
    let flat = timed::run(TimedSetup::level3(&w), &telemetry::noop()).expect("flat bus");
    let ahb = TimedSetup {
        arch: ArchConfig {
            bus: tlm::BusConfig::ahb(),
            ..ArchConfig::default()
        },
        ..TimedSetup::level3(&w)
    };
    let ahb = timed::run(ahb, &telemetry::noop()).expect("ahb bus");
    // 16-beat bursts re-arbitrate during the 4096-word bitstreams: more
    // simulated time, same functionality.
    assert!(ahb.total_ticks > flat.total_ticks);
    assert_eq!(ahb.recognized, flat.recognized);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dimacs_roundtrip_preserves_satisfiability(
        n in 1usize..6,
        clause_data in proptest::collection::vec(
            proptest::collection::vec((0usize..6, any::<bool>()), 1..4),
            1..10,
        ),
    ) {
        let clauses: Vec<Vec<i64>> = clause_data
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&(v, pos)| {
                        let var = (v % n) as i64 + 1;
                        if pos { var } else { -var }
                    })
                    .collect()
            })
            .collect();
        let cnf = sat::Dimacs { num_vars: n, clauses };
        let text = cnf.render();
        let reparsed = sat::dimacs::parse(&text).expect("round-trips");
        prop_assert_eq!(&cnf, &reparsed);
        let (mut s1, _) = cnf.into_solver();
        let (mut s2, _) = reparsed.into_solver();
        prop_assert_eq!(s1.solve().is_sat(), s2.solve().is_sat());
    }

    #[test]
    fn bdd_restrict_composes_with_exists(
        vars in proptest::collection::vec(0u32..5, 2..5),
    ) {
        // ∃x.f == restrict(f,x,0) ∨ restrict(f,x,1) by definition; check the
        // engine agrees on a random conjunction/disjunction tree.
        let mut m = bdd::Manager::new();
        let mut f = m.constant(true);
        for (i, &v) in vars.iter().enumerate() {
            let lit = if i % 2 == 0 { m.var(v) } else { m.nvar(v) };
            f = if i % 3 == 0 { m.and(f, lit) } else { m.or(f, lit) };
        }
        let x = vars[0];
        let e = m.exists(f, x);
        let f0 = m.restrict(f, x, false);
        let f1 = m.restrict(f, x, true);
        let manual = m.or(f0, f1);
        prop_assert_eq!(e, manual);
        // The quantified variable leaves the support.
        prop_assert!(!m.support(e).contains(&x));
    }

    #[test]
    fn rational_field_axioms(
        a_num in -1000i128..1000, a_den in 1i128..50,
        b_num in -1000i128..1000, b_den in 1i128..50,
    ) {
        use lp::Rational;
        let a = Rational::new(a_num, a_den);
        let b = Rational::new(b_num, b_den);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a + Rational::ZERO, a);
        prop_assert_eq!(a * Rational::ONE, a);
        prop_assert_eq!(a - a, Rational::ZERO);
        if !b.is_zero() {
            prop_assert_eq!((a / b) * b, a);
        }
        // Distributivity.
        let c = Rational::new(7, 3);
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }
}
