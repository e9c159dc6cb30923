//! BLIF-style text serialization of circuits.
//!
//! The dialect is the structural subset of Berkeley BLIF extended with a
//! `.gate`-like single-line form for the typed gates of [`GateKind`]:
//!
//! ```text
//! .model half_adder
//! .inputs a b
//! .outputs sum carry
//! .gate xor w2 a b
//! .gate and w3 a b
//! .assign sum w2
//! .assign carry w3
//! .end
//! ```
//!
//! Net names are explicit; `.gate KIND OUT IN...` defines a gate driving
//! `OUT`, `.assign PORT NET` binds an output port, and `.const0`/`.const1`
//! name the constants. Round-tripping preserves structure exactly (modulo
//! dead nodes, which are not emitted).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::{Circuit, GateKind, NetId, NetlistError};

/// Errors produced when parsing the BLIF-style format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseBlifError {
    /// A line did not match any known directive.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The offending directive token.
        directive: String,
    },
    /// A directive had too few tokens.
    MissingTokens {
        /// 1-based line number.
        line: usize,
    },
    /// An unknown gate kind name.
    UnknownGateKind {
        /// 1-based line number.
        line: usize,
        /// The offending kind token.
        kind: String,
    },
    /// A net name was used before being defined.
    UndefinedNet {
        /// 1-based line number.
        line: usize,
        /// The undefined name.
        name: String,
    },
    /// A net name was defined twice.
    Redefined {
        /// 1-based line number.
        line: usize,
        /// The redefined name.
        name: String,
    },
    /// The resulting structure violated a netlist invariant.
    Netlist(NetlistError),
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBlifError::UnknownDirective { line, directive } => {
                write!(f, "line {line}: unknown directive {directive:?}")
            }
            ParseBlifError::MissingTokens { line } => {
                write!(f, "line {line}: missing tokens")
            }
            ParseBlifError::UnknownGateKind { line, kind } => {
                write!(f, "line {line}: unknown gate kind {kind:?}")
            }
            ParseBlifError::UndefinedNet { line, name } => {
                write!(f, "line {line}: undefined net {name:?}")
            }
            ParseBlifError::Redefined { line, name } => {
                write!(f, "line {line}: net {name:?} redefined")
            }
            ParseBlifError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for ParseBlifError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseBlifError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<NetlistError> for ParseBlifError {
    fn from(e: NetlistError) -> Self {
        ParseBlifError::Netlist(e)
    }
}

fn kind_name(kind: GateKind) -> &'static str {
    match kind {
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
    }
}

fn kind_from_name(name: &str) -> Option<GateKind> {
    Some(match name {
        "buf" => GateKind::Buf,
        "not" => GateKind::Not,
        "and" => GateKind::And,
        "or" => GateKind::Or,
        "nand" => GateKind::Nand,
        "nor" => GateKind::Nor,
        "xor" => GateKind::Xor,
        "xnor" => GateKind::Xnor,
        "mux" => GateKind::Mux,
        _ => return None,
    })
}

/// Serializes `circuit` to the BLIF-style text format.
///
/// Dead nodes are skipped; internal nets get synthetic `w<INDEX>` names.
pub fn write_blif(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", circuit.name()));
    let mut names: HashMap<NetId, String> = HashMap::new();
    let mut inputs_line = String::from(".inputs");
    for &id in circuit.inputs() {
        let name = circuit
            .node(id)
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("w{}", id.index()));
        inputs_line.push(' ');
        inputs_line.push_str(&name);
        names.insert(id.into(), name);
    }
    out.push_str(&inputs_line);
    out.push('\n');
    let mut outputs_line = String::from(".outputs");
    for port in circuit.outputs() {
        outputs_line.push(' ');
        outputs_line.push_str(port.name());
    }
    out.push_str(&outputs_line);
    out.push('\n');

    let order = crate::topo::topo_order(circuit).expect("well-formed circuit");
    for id in order {
        let node = circuit.node(id);
        let net: NetId = id.into();
        match node.kind() {
            GateKind::Input => {}
            GateKind::Const0 => {
                let name = format!("w{}", net.index());
                out.push_str(&format!(".const0 {name}\n"));
                names.insert(net, name);
            }
            GateKind::Const1 => {
                let name = format!("w{}", net.index());
                out.push_str(&format!(".const1 {name}\n"));
                names.insert(net, name);
            }
            kind => {
                let name = format!("w{}", net.index());
                let mut line = format!(".gate {} {name}", kind_name(kind));
                for f in node.fanins() {
                    line.push(' ');
                    line.push_str(&names[f]);
                }
                out.push_str(&line);
                out.push('\n');
                names.insert(net, name);
            }
        }
    }
    for port in circuit.outputs() {
        out.push_str(&format!(".assign {} {}\n", port.name(), names[&port.net()]));
    }
    out.push_str(".end\n");
    out
}

/// Renders `circuit` as a Graphviz dot graph (inputs as boxes, gates as
/// ellipses labelled with their kind, outputs as double circles).
pub fn write_dot(circuit: &Circuit) -> String {
    use std::fmt::Write;
    let mut out = format!("digraph \"{}\" {{\n  rankdir=LR;\n", circuit.name());
    for id in circuit.iter_live() {
        let node = circuit.node(id);
        match node.kind() {
            GateKind::Input => {
                let _ = writeln!(
                    out,
                    "  n{} [shape=box,label=\"{}\"];",
                    id.index(),
                    node.name().unwrap_or("?")
                );
            }
            kind => {
                let _ = writeln!(out, "  n{} [label=\"{}\"];", id.index(), kind);
            }
        }
        for f in node.fanins() {
            let _ = writeln!(out, "  n{} -> n{};", f.index(), id.index());
        }
    }
    for (i, port) in circuit.outputs().iter().enumerate() {
        let _ = writeln!(
            out,
            "  o{i} [shape=doublecircle,label=\"{}\"];\n  n{} -> o{i};",
            port.name(),
            port.net().index()
        );
    }
    out.push_str("}\n");
    out
}

/// Parses the BLIF-style text format produced by [`write_blif`].
///
/// # Errors
///
/// See [`ParseBlifError`]; the parser is strict (unknown directives and
/// undefined nets are rejected).
pub fn read_blif(text: &str) -> Result<Circuit, ParseBlifError> {
    let mut circuit = Circuit::new("unnamed");
    let mut nets: HashMap<String, NetId> = HashMap::new();
    let mut pending_outputs: Vec<String> = Vec::new();
    let mut assigns: Vec<(usize, String, String)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        match tokens[0] {
            ".model" => {
                if tokens.len() < 2 {
                    return Err(ParseBlifError::MissingTokens { line });
                }
                circuit = Circuit::new(tokens[1]);
                nets.clear();
            }
            ".inputs" => {
                for &name in &tokens[1..] {
                    if nets.contains_key(name) {
                        return Err(ParseBlifError::Redefined {
                            line,
                            name: name.to_string(),
                        });
                    }
                    let w = circuit.add_input(name);
                    nets.insert(name.to_string(), w);
                }
            }
            ".outputs" => {
                pending_outputs.extend(tokens[1..].iter().map(|s| s.to_string()));
            }
            ".const0" | ".const1" => {
                if tokens.len() < 2 {
                    return Err(ParseBlifError::MissingTokens { line });
                }
                let w = circuit.constant(tokens[0] == ".const1");
                if nets.insert(tokens[1].to_string(), w).is_some() {
                    return Err(ParseBlifError::Redefined {
                        line,
                        name: tokens[1].to_string(),
                    });
                }
            }
            ".gate" => {
                if tokens.len() < 4 {
                    return Err(ParseBlifError::MissingTokens { line });
                }
                let kind =
                    kind_from_name(tokens[1]).ok_or_else(|| ParseBlifError::UnknownGateKind {
                        line,
                        kind: tokens[1].to_string(),
                    })?;
                let out_name = tokens[2];
                let mut fanins = Vec::with_capacity(tokens.len() - 3);
                for &t in &tokens[3..] {
                    let w = nets
                        .get(t)
                        .copied()
                        .ok_or_else(|| ParseBlifError::UndefinedNet {
                            line,
                            name: t.to_string(),
                        })?;
                    fanins.push(w);
                }
                let w = circuit.add_gate(kind, &fanins)?;
                if nets.insert(out_name.to_string(), w).is_some() {
                    return Err(ParseBlifError::Redefined {
                        line,
                        name: out_name.to_string(),
                    });
                }
            }
            ".assign" => {
                if tokens.len() < 3 {
                    return Err(ParseBlifError::MissingTokens { line });
                }
                assigns.push((line, tokens[1].to_string(), tokens[2].to_string()));
            }
            ".end" => break,
            other => {
                return Err(ParseBlifError::UnknownDirective {
                    line,
                    directive: other.to_string(),
                })
            }
        }
    }
    for (line, port, net) in assigns {
        let w = nets
            .get(&net)
            .copied()
            .ok_or(ParseBlifError::UndefinedNet { line, name: net })?;
        circuit.add_output(port, w);
    }
    let _ = pending_outputs;
    circuit.check_well_formed()?;
    Ok(circuit)
}

impl FromStr for Circuit {
    type Err = ParseBlifError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        read_blif(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new("sample");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s = c.add_input("s");
        let k = c.constant(true);
        let g1 = c.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Mux, &[s, g1, k]).unwrap();
        let g3 = c.add_gate(GateKind::Nand, &[g2, a, b]).unwrap();
        c.add_output("y", g3);
        c.add_output("t", g1);
        c
    }

    #[test]
    fn roundtrip_preserves_function() {
        let original = sample();
        let text = write_blif(&original);
        let parsed: Circuit = text.parse().unwrap();
        assert_eq!(parsed.name(), "sample");
        assert_eq!(parsed.num_inputs(), original.num_inputs());
        assert_eq!(parsed.num_outputs(), original.num_outputs());
        for j in 0..8u8 {
            let assign = [(j & 1) == 1, (j & 2) == 2, (j & 4) == 4];
            assert_eq!(
                parsed.eval(&assign).unwrap(),
                original.eval(&assign).unwrap(),
                "pattern {j}"
            );
        }
    }

    #[test]
    fn dead_nodes_not_emitted() {
        let mut c = sample();
        let a = c.input_by_name("a").unwrap();
        let b = c.input_by_name("b").unwrap();
        let _dead = c.add_gate(GateKind::Or, &[a, b]).unwrap();
        c.sweep();
        let text = write_blif(&c);
        // Gate count in text matches live gates.
        let gate_lines = text.lines().filter(|l| l.starts_with(".gate")).count();
        assert_eq!(gate_lines, 3);
    }

    #[test]
    fn parse_rejects_unknown_directive() {
        let err = read_blif(".model x\n.bogus a\n.end\n").unwrap_err();
        assert!(matches!(
            err,
            ParseBlifError::UnknownDirective { line: 2, .. }
        ));
    }

    #[test]
    fn parse_rejects_undefined_net() {
        let err = read_blif(".model x\n.inputs a\n.gate and y a ghost\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::UndefinedNet { .. }));
    }

    #[test]
    fn parse_rejects_redefinition() {
        let err = read_blif(".model x\n.inputs a b\n.gate and a a b\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::Redefined { .. }));
    }

    #[test]
    fn parse_rejects_bad_kind() {
        let err = read_blif(".model x\n.inputs a b\n.gate frob y a b\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::UnknownGateKind { .. }));
    }

    #[test]
    fn parse_rejects_bad_arity_via_netlist() {
        let err = read_blif(".model x\n.inputs a\n.gate mux y a a\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::Netlist(_)));
    }

    /// A gate input is addressed by a `u8` pin position, so the parser
    /// accepts 256 fanins and rejects 257 instead of aliasing pins.
    #[test]
    fn parse_caps_nary_arity_at_256() {
        let blif = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
            let names = names.join(" ");
            format!(".model w\n.inputs {names}\n.gate and y {names}\n.assign o y\n.end\n")
        };
        let c = read_blif(&blif(256)).unwrap();
        let gate = c.outputs()[0].net().source();
        assert_eq!(c.node(gate).fanins().len(), 256);
        assert!(matches!(
            read_blif(&blif(257)).unwrap_err(),
            ParseBlifError::Netlist(NetlistError::BadArity { got: 257, .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n.model x\n\n.inputs a\n# mid\n.gate not y a\n.assign o y\n.end\n";
        let c = read_blif(text).unwrap();
        assert_eq!(c.num_outputs(), 1);
        assert_eq!(c.eval(&[false]).unwrap(), vec![true]);
    }

    #[test]
    fn dot_output_mentions_ports_and_gates() {
        let c = sample();
        let dot = write_dot(&c);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("xor"));
        assert!(dot.contains("shape=box"));
        // One edge per sink pin.
        let edges = dot.matches(" -> ").count();
        let stats = crate::CircuitStats::of(&c);
        assert_eq!(edges, stats.sinks);
    }

    #[test]
    fn error_display_nonempty() {
        let cases = [
            ParseBlifError::UnknownDirective {
                line: 1,
                directive: ".x".into(),
            },
            ParseBlifError::MissingTokens { line: 2 },
            ParseBlifError::UnknownGateKind {
                line: 3,
                kind: "q".into(),
            },
            ParseBlifError::UndefinedNet {
                line: 4,
                name: "n".into(),
            },
            ParseBlifError::Redefined {
                line: 5,
                name: "m".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
