//! Gate types and their Boolean semantics.

use std::fmt;

/// Widest n-ary gate: a [`Pin`](crate::Pin) addresses a gate input by a
/// `u8` position, so a wider gate would alias its pins.
const MAX_NARY_ARITY: usize = u8::MAX as usize + 1;

/// The logic operation computed by a node.
///
/// `And`, `Or`, `Nand`, `Nor`, `Xor`, `Xnor` accept two to 256 fanins
/// (n-ary semantics: chained application of the binary operator for
/// `Xor`/`Xnor`, reduction for the others). `Not` and `Buf` are unary.
/// `Mux` has exactly three fanins `(sel, d0, d1)` and computes
/// `sel ? d1 : d0` — the polarity used by the parameterized rectification-
/// point selection of paper §4.2 (data-1 is taken when selected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Primary input; no fanins.
    Input,
    /// Constant false; no fanins.
    Const0,
    /// Constant true; no fanins.
    Const1,
    /// Identity; one fanin.
    Buf,
    /// Negation; one fanin.
    Not,
    /// Conjunction of all fanins.
    And,
    /// Disjunction of all fanins.
    Or,
    /// Negated conjunction.
    Nand,
    /// Negated disjunction.
    Nor,
    /// Parity of all fanins.
    Xor,
    /// Negated parity.
    Xnor,
    /// `fanin[0] ? fanin[2] : fanin[1]`.
    Mux,
}

impl GateKind {
    /// Number of fanins this gate kind requires, or `None` when n-ary
    /// (two or more).
    ///
    /// ```
    /// use eco_netlist::GateKind;
    /// assert_eq!(GateKind::Not.arity(), Some(1));
    /// assert_eq!(GateKind::Mux.arity(), Some(3));
    /// assert_eq!(GateKind::And.arity(), None); // n-ary, >= 2
    /// ```
    pub fn arity(self) -> Option<usize> {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => Some(0),
            GateKind::Buf | GateKind::Not => Some(1),
            GateKind::Mux => Some(3),
            GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => None,
        }
    }

    /// Whether `n` fanins is a legal fanin count for this gate kind: the
    /// fixed [`arity`](GateKind::arity), or two to 256 for n-ary kinds.
    pub fn accepts_arity(self, n: usize) -> bool {
        match self.arity() {
            Some(k) => n == k,
            None => (2..=MAX_NARY_ARITY).contains(&n),
        }
    }

    /// True for the two constant kinds.
    pub fn is_const(self) -> bool {
        matches!(self, GateKind::Const0 | GateKind::Const1)
    }

    /// True when the output value is independent of fanin order.
    pub fn is_commutative(self) -> bool {
        !matches!(
            self,
            GateKind::Mux | GateKind::Input | GateKind::Const0 | GateKind::Const1
        )
    }

    /// Evaluates the gate over boolean fanin values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` violates [`GateKind::accepts_arity`], or when
    /// called on [`GateKind::Input`] (inputs have no local function).
    pub fn eval(self, inputs: &[bool]) -> bool {
        debug_assert!(
            self.accepts_arity(inputs.len()),
            "gate {self} applied to {} fanins",
            inputs.len()
        );
        match self {
            GateKind::Input => panic!("primary input has no gate function"),
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Mux => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }

    /// Evaluates the gate over 64 parallel patterns packed in `u64` words.
    ///
    /// Bit `i` of the result is the gate output for pattern `i`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GateKind::eval`].
    pub fn eval64(self, inputs: &[u64]) -> u64 {
        debug_assert!(
            self.accepts_arity(inputs.len()),
            "gate {self} applied to {} fanins",
            inputs.len()
        );
        match self {
            GateKind::Input => panic!("primary input has no gate function"),
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(!0, |acc, &w| acc & w),
            GateKind::Or => inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Nand => !inputs.iter().fold(!0, |acc, &w| acc & w),
            GateKind::Nor => !inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Xor => inputs.iter().fold(0, |acc, &w| acc ^ w),
            GateKind::Xnor => !inputs.iter().fold(0, |acc, &w| acc ^ w),
            GateKind::Mux => (inputs[0] & inputs[2]) | (!inputs[0] & inputs[1]),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "input",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux => "mux",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: [bool; 2] = [false, true];

    #[test]
    fn binary_truth_tables() {
        for &a in &B {
            for &b in &B {
                assert_eq!(GateKind::And.eval(&[a, b]), a && b);
                assert_eq!(GateKind::Or.eval(&[a, b]), a || b);
                assert_eq!(GateKind::Nand.eval(&[a, b]), !(a && b));
                assert_eq!(GateKind::Nor.eval(&[a, b]), !(a || b));
                assert_eq!(GateKind::Xor.eval(&[a, b]), a ^ b);
                assert_eq!(GateKind::Xnor.eval(&[a, b]), !(a ^ b));
            }
        }
    }

    #[test]
    fn unary_and_const() {
        assert!(!GateKind::Const0.eval(&[]));
        assert!(GateKind::Const1.eval(&[]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(!GateKind::Not.eval(&[true]));
        assert!(GateKind::Buf.eval(&[true]));
    }

    #[test]
    fn mux_selects_data1_when_sel_true() {
        for &s in &B {
            for &d0 in &B {
                for &d1 in &B {
                    let expect = if s { d1 } else { d0 };
                    assert_eq!(GateKind::Mux.eval(&[s, d0, d1]), expect);
                }
            }
        }
    }

    #[test]
    fn nary_gates() {
        assert!(GateKind::And.eval(&[true, true, true]));
        assert!(!GateKind::And.eval(&[true, false, true]));
        assert!(GateKind::Or.eval(&[false, false, true]));
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(!GateKind::Xor.eval(&[true, true]));
    }

    #[test]
    fn eval64_matches_eval_bitwise() {
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        // Patterns: bit i of word j = bit j of i (exhaustive 2-input tables
        // in the low 4 bits).
        let w0 = 0b1010u64;
        let w1 = 0b1100u64;
        for kind in kinds {
            let packed = kind.eval64(&[w0, w1]);
            for i in 0..4 {
                let a = (w0 >> i) & 1 == 1;
                let b = (w1 >> i) & 1 == 1;
                assert_eq!((packed >> i) & 1 == 1, kind.eval(&[a, b]), "{kind} at {i}");
            }
        }
        let sel = 0b1100u64;
        let d0 = 0b1010u64;
        let d1 = 0b0110u64;
        let packed = GateKind::Mux.eval64(&[sel, d0, d1]);
        for i in 0..4 {
            let bits = [(sel >> i) & 1 == 1, (d0 >> i) & 1 == 1, (d1 >> i) & 1 == 1];
            assert_eq!((packed >> i) & 1 == 1, GateKind::Mux.eval(&bits));
        }
    }

    #[test]
    fn arity_checks() {
        assert!(GateKind::And.accepts_arity(2));
        assert!(GateKind::And.accepts_arity(5));
        assert!(GateKind::And.accepts_arity(256));
        assert!(!GateKind::And.accepts_arity(257));
        assert!(!GateKind::And.accepts_arity(1));
        assert!(GateKind::Not.accepts_arity(1));
        assert!(!GateKind::Not.accepts_arity(2));
        assert!(GateKind::Mux.accepts_arity(3));
        assert!(!GateKind::Mux.accepts_arity(2));
        assert!(GateKind::Input.accepts_arity(0));
    }

    #[test]
    fn commutativity_flags() {
        assert!(GateKind::And.is_commutative());
        assert!(GateKind::Xor.is_commutative());
        assert!(!GateKind::Mux.is_commutative());
    }
}
