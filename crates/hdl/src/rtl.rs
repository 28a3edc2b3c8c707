//! The word-level RTL netlist and its cycle-accurate simulator.
//!
//! A netlist is a DAG of word-valued nodes. Non-register nodes may only
//! reference earlier nodes (enforced by the builder API), so combinational
//! evaluation is a single in-order sweep. Registers close sequential loops:
//! they read their current state during evaluation and latch their `next`
//! input at the cycle boundary.

use behav::interp::{apply_binop, mask};
use behav::BinOp;
use std::fmt;

/// Index of a node (signal) in an [`Rtl`] netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SigId(pub(crate) usize);

impl SigId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Operation of one netlist node.
#[derive(Debug, Clone, PartialEq)]
pub enum RtlOp {
    /// A constant.
    Const(u64),
    /// A primary input (order of declaration = input index).
    Input,
    /// A register with the given reset value; its `next` input is attached
    /// via [`Rtl::set_next`].
    Reg {
        /// Reset / initial value.
        init: u64,
    },
    /// Bitwise complement.
    Not(SigId),
    /// Two's-complement negation.
    Neg(SigId),
    /// A binary word operation (Div/Rem are not representable; the
    /// synthesizer rejects them, as division is implemented iteratively in
    /// hardware).
    Binary(BinOp, SigId, SigId),
    /// 2:1 word multiplexer (`sel` must be 1 bit wide).
    Mux {
        /// 1-bit selector.
        sel: SigId,
        /// Value when `sel` is 1.
        then_: SigId,
        /// Value when `sel` is 0.
        else_: SigId,
    },
}

#[derive(Debug, Clone)]
struct Node {
    op: RtlOp,
    width: u32,
    name: Option<String>,
}

/// A sequential word-level netlist.
#[derive(Debug, Clone, Default)]
pub struct Rtl {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<SigId>,
    registers: Vec<(SigId, Option<SigId>)>,
    outputs: Vec<(String, SigId)>,
}

impl Rtl {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: &str) -> Self {
        Rtl {
            name: name.to_owned(),
            ..Rtl::default()
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, op: RtlOp, width: u32) -> SigId {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        self.nodes.push(Node {
            op,
            width,
            name: None,
        });
        SigId(self.nodes.len() - 1)
    }

    /// Adds a constant node.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `width` bits.
    pub fn constant(&mut self, value: u64, width: u32) -> SigId {
        assert!(
            width == 64 || value < (1u64 << width),
            "constant {value} does not fit in {width} bits"
        );
        self.push(RtlOp::Const(value), width)
    }

    /// Adds a primary input.
    pub fn input(&mut self, name: &str, width: u32) -> SigId {
        let id = self.push(RtlOp::Input, width);
        self.nodes[id.0].name = Some(name.to_owned());
        self.inputs.push(id);
        id
    }

    /// Adds a register with a reset value; connect its next-state input
    /// later with [`Rtl::set_next`].
    pub fn reg(&mut self, name: &str, width: u32, init: u64) -> SigId {
        let id = self.push(RtlOp::Reg { init }, width);
        self.nodes[id.0].name = Some(name.to_owned());
        self.registers.push((id, None));
        id
    }

    /// Connects the next-state input of `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a register or widths mismatch.
    pub fn set_next(&mut self, reg: SigId, next: SigId) {
        assert_eq!(
            self.nodes[reg.0].width, self.nodes[next.0].width,
            "register next-state width mismatch"
        );
        let slot = self
            .registers
            .iter_mut()
            .find(|(r, _)| *r == reg)
            .expect("set_next on a non-register signal");
        slot.1 = Some(next);
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: SigId) -> SigId {
        let w = self.width(a);
        self.push(RtlOp::Not(a), w)
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: SigId) -> SigId {
        let w = self.width(a);
        self.push(RtlOp::Neg(a), w)
    }

    /// Binary word operation; the result width is the max operand width
    /// (operands are zero-extended), or 1 for comparisons.
    ///
    /// # Panics
    ///
    /// Panics on `Div`/`Rem`, which have no combinational RTL node.
    pub fn binary(&mut self, op: BinOp, a: SigId, b: SigId) -> SigId {
        assert!(
            !matches!(op, BinOp::Div | BinOp::Rem),
            "division has no direct RTL node; synthesize it iteratively"
        );
        let w = if op.is_comparison() {
            1
        } else {
            self.width(a).max(self.width(b))
        };
        self.push(RtlOp::Binary(op, a, b), w)
    }

    /// 2:1 multiplexer.
    ///
    /// # Panics
    ///
    /// Panics if `sel` is not 1 bit wide or arm widths mismatch.
    pub fn mux(&mut self, sel: SigId, then_: SigId, else_: SigId) -> SigId {
        assert_eq!(self.width(sel), 1, "mux selector must be 1 bit");
        let w = self.width(then_).max(self.width(else_));
        self.push(RtlOp::Mux { sel, then_, else_ }, w)
    }

    /// Declares `sig` as an output under `name`.
    pub fn output(&mut self, name: &str, sig: SigId) {
        self.outputs.push((name.to_owned(), sig));
    }

    /// Redirects an existing output to another signal (used for fault
    /// injection by the property-coverage checker).
    ///
    /// # Panics
    ///
    /// Panics if no output with that name exists.
    pub fn replace_output(&mut self, name: &str, sig: SigId) {
        let slot = self
            .outputs
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no output named `{name}`"));
        slot.1 = sig;
    }

    /// Width of a signal.
    pub fn width(&self, sig: SigId) -> u32 {
        self.nodes[sig.0].width
    }

    /// Operation of a signal.
    pub fn op(&self, sig: SigId) -> &RtlOp {
        &self.nodes[sig.0].op
    }

    /// Optional name of a signal.
    pub fn signal_name(&self, sig: SigId) -> Option<&str> {
        self.nodes[sig.0].name.as_deref()
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[SigId] {
        &self.inputs
    }

    /// Registers as `(register, next)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any register's next-state input was never connected.
    pub fn registers(&self) -> Vec<(SigId, SigId)> {
        self.registers
            .iter()
            .map(|&(r, n)| (r, n.expect("register next-state not connected")))
            .collect()
    }

    /// Number of registers.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// Outputs as `(name, signal)` pairs.
    pub fn outputs(&self) -> &[(String, SigId)] {
        &self.outputs
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Every node's signal, in node order (operands precede their users,
    /// except for register feedback).
    pub fn signals(&self) -> impl ExactSizeIterator<Item = SigId> {
        (0..self.nodes.len()).map(SigId)
    }

    /// Total state bits (sum of register widths) — the model-checking state
    /// space is `2^state_bits`.
    pub fn state_bits(&self) -> u32 {
        self.registers
            .iter()
            .map(|&(r, _)| self.nodes[r.0].width)
            .sum()
    }

    /// Evaluates all node values for one cycle given primary-input values
    /// and the current register state.
    fn eval_nodes(&self, inputs: &[u64], reg_state: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.inputs.len(), "input arity mismatch");
        let mut values = vec![0u64; self.nodes.len()];
        let mut input_iter = 0usize;
        let mut reg_iter = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            let w = node.width;
            values[i] = match &node.op {
                RtlOp::Const(v) => *v,
                RtlOp::Input => {
                    let v = inputs[input_iter] & mask(w);
                    input_iter += 1;
                    v
                }
                RtlOp::Reg { .. } => {
                    let v = reg_state[reg_iter] & mask(w);
                    reg_iter += 1;
                    v
                }
                RtlOp::Not(a) => !values[a.0] & mask(w),
                RtlOp::Neg(a) => values[a.0].wrapping_neg() & mask(w),
                RtlOp::Binary(op, a, b) => {
                    let wa = self.nodes[a.0].width.max(self.nodes[b.0].width);
                    apply_binop(*op, values[a.0], values[b.0], wa)
                }
                RtlOp::Mux { sel, then_, else_ } => {
                    if values[sel.0] != 0 {
                        values[then_.0]
                    } else {
                        values[else_.0]
                    }
                }
            };
        }
        values
    }

    /// Evaluates a purely combinational netlist (no registers): returns the
    /// output values for the given inputs.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains registers.
    pub fn eval_combinational(&self, inputs: &[u64]) -> Vec<u64> {
        assert!(
            self.registers.is_empty(),
            "eval_combinational on a sequential netlist"
        );
        let values = self.eval_nodes(inputs, &[]);
        self.outputs.iter().map(|&(_, s)| values[s.0]).collect()
    }

    /// Evaluates and returns the value of *every* node for one cycle —
    /// the full visibility a waveform dump ([`crate::vcd`]) needs.
    pub fn node_values(&self, inputs: &[u64], state: &[u64]) -> Vec<u64> {
        self.eval_nodes(inputs, state)
    }

    /// Reset register state.
    pub fn reset_state(&self) -> Vec<u64> {
        self.registers
            .iter()
            .map(|&(r, _)| match self.nodes[r.0].op {
                RtlOp::Reg { init } => init & mask(self.nodes[r.0].width),
                _ => unreachable!("registers vector holds only Reg nodes"),
            })
            .collect()
    }

    /// Simulates one clock cycle: returns `(outputs, next_state)`.
    pub fn step(&self, inputs: &[u64], state: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let values = self.eval_nodes(inputs, state);
        let outputs = self.outputs.iter().map(|&(_, s)| values[s.0]).collect();
        let next = self
            .registers
            .iter()
            .map(|&(r, n)| {
                let n = n.expect("register next-state not connected");
                values[n.0] & mask(self.nodes[r.0].width)
            })
            .collect();
        (outputs, next)
    }

    /// Simulates `input_trace.len()` cycles from reset; returns the output
    /// trace (one vector per cycle).
    pub fn simulate(&self, input_trace: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let mut state = self.reset_state();
        let mut out = Vec::with_capacity(input_trace.len());
        for inputs in input_trace {
            let (o, next) = self.step(inputs, &state);
            out.push(o);
            state = next;
        }
        out
    }
}

impl fmt::Display for Rtl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "module {}: {} nodes, {} inputs, {} regs ({} state bits), {} outputs",
            self.name,
            self.nodes.len(),
            self.inputs.len(),
            self.registers.len(),
            self.state_bits(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinational_adder() {
        let mut r = Rtl::new("adder");
        let a = r.input("a", 8);
        let b = r.input("b", 8);
        let sum = r.binary(BinOp::Add, a, b);
        r.output("sum", sum);
        assert_eq!(r.eval_combinational(&[200, 100])[0], (200 + 100) & 0xFF);
        assert_eq!(r.eval_combinational(&[1, 2])[0], 3);
    }

    #[test]
    fn comparison_yields_one_bit() {
        let mut r = Rtl::new("cmp");
        let a = r.input("a", 8);
        let b = r.input("b", 8);
        let lt = r.binary(BinOp::Lt, a, b);
        assert_eq!(r.width(lt), 1);
        r.output("lt", lt);
        assert_eq!(r.eval_combinational(&[3, 5])[0], 1);
        assert_eq!(r.eval_combinational(&[5, 3])[0], 0);
    }

    #[test]
    fn mux_and_not() {
        let mut r = Rtl::new("m");
        let s = r.input("s", 1);
        let a = r.input("a", 4);
        let na = r.not(a);
        let m = r.mux(s, a, na);
        r.output("o", m);
        assert_eq!(r.eval_combinational(&[1, 0b1010])[0], 0b1010);
        assert_eq!(r.eval_combinational(&[0, 0b1010])[0], 0b0101);
    }

    #[test]
    fn counter_counts() {
        let mut r = Rtl::new("counter");
        let en = r.input("en", 1);
        let q = r.reg("q", 4, 0);
        let one = r.constant(1, 4);
        let inc = r.binary(BinOp::Add, q, one);
        let next = r.mux(en, inc, q);
        r.set_next(q, next);
        r.output("q", q);
        let trace = r.simulate(&[vec![1], vec![1], vec![0], vec![1]]);
        let qs: Vec<u64> = trace.iter().map(|o| o[0]).collect();
        assert_eq!(qs, vec![0, 1, 2, 2]);
        assert_eq!(r.state_bits(), 4);
        assert_eq!(r.num_registers(), 1);
    }

    #[test]
    fn counter_wraps_at_width() {
        let mut r = Rtl::new("counter");
        let q = r.reg("q", 2, 3);
        let one = r.constant(1, 2);
        let inc = r.binary(BinOp::Add, q, one);
        r.set_next(q, inc);
        r.output("q", q);
        let trace = r.simulate(&[vec![], vec![], vec![]]);
        let qs: Vec<u64> = trace.iter().map(|o| o[0]).collect();
        assert_eq!(qs, vec![3, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "division has no direct RTL node")]
    fn division_is_rejected() {
        let mut r = Rtl::new("d");
        let a = r.input("a", 8);
        let b = r.input("b", 8);
        let _ = r.binary(BinOp::Div, a, b);
    }

    #[test]
    #[should_panic(expected = "next-state not connected")]
    fn unconnected_register_panics_on_step() {
        let mut r = Rtl::new("bad");
        let _q = r.reg("q", 4, 0);
        let state = r.reset_state();
        let _ = r.step(&[], &state);
    }

    #[test]
    fn reset_state_uses_init_values() {
        let mut r = Rtl::new("init");
        let q = r.reg("q", 8, 42);
        r.set_next(q, q);
        assert_eq!(r.reset_state(), vec![42]);
    }

    #[test]
    fn display_summarizes() {
        let mut r = Rtl::new("m");
        let a = r.input("a", 8);
        r.output("o", a);
        let s = r.to_string();
        assert!(s.contains("module m"));
        assert!(s.contains("1 inputs"));
    }
}
