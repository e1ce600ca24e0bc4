//! Lowering from the deck AST to an [`rlckit_circuit::Circuit`].
//!
//! Node names become [`NodeId`]s on first reference (with `0`/`gnd` mapping
//! to ground), subcircuit instances expand inline with their parameter
//! environments, and an element that [`Circuit`] rejects surfaces as a
//! [`ParseError`] citing the offending card, its error wrapped in
//! [`CircuitError::Element`] with the hierarchical element name (`X3/R1`).

use std::collections::{BTreeMap, HashMap};

use rlckit_circuit::{Circuit, CircuitError, InductorId, NodeId, SourceId, SourceWaveform};
use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

use crate::error::{ParseError, ParseErrorKind};
use crate::lex::Token;
use crate::parse::{is_ground, parse_deck, CardKind, Deck, ElementCard, Value, WaveformAst};

/// Deepest allowed subcircuit instantiation. Well-formed hierarchies are a
/// handful of levels; hitting this limit means the definitions are (mutually)
/// recursive, which the subset rejects rather than expanding forever.
pub const MAX_SUBCKT_DEPTH: usize = 32;

/// A lowered deck: the circuit plus name → identifier maps so callers can
/// address nodes, sources and inductors by their deck names.
///
/// Names inside subcircuit instances are hierarchical, joined with `/`:
/// instance `X3` of a subcircuit containing `R1` and internal node `s`
/// contributes element `X3/R1` and node `X3/s`.
#[derive(Debug, Clone)]
pub struct ParsedCircuit {
    /// The lowered circuit.
    pub circuit: Circuit,
    nodes: BTreeMap<String, NodeId>,
    sources: BTreeMap<String, SourceId>,
    inductors: BTreeMap<String, InductorId>,
}

impl ParsedCircuit {
    /// Looks up a node by its (hierarchical) deck name. Ground is `"0"` or
    /// any-case `"gnd"`.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        if is_ground(name) {
            return Some(NodeId::GROUND);
        }
        self.nodes.get(name).copied()
    }

    /// Looks up a source by the name of its `V`/`I` card.
    pub fn source(&self, name: &str) -> Option<SourceId> {
        self.sources.get(name).copied()
    }

    /// All non-ground node names with their identifiers, in name order.
    pub fn node_names(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.nodes.iter().map(|(name, id)| (name.as_str(), *id))
    }
}

/// One level of name resolution: the maps are keyed by *local* names, the
/// prefix makes them hierarchical for diagnostics and the global maps.
struct Scope {
    prefix: String,
    nodes: HashMap<String, NodeId>,
    inductors: HashMap<String, InductorId>,
    params: HashMap<String, f64>,
}

struct Lowerer<'d> {
    deck: &'d Deck,
    out: ParsedCircuit,
}

impl Lowerer<'_> {
    fn card_err(card: &ElementCard, kind: ParseErrorKind) -> ParseError {
        ParseError::at_line(card.name.line, card.name.column, &card.text, kind)
    }

    fn tok_err(tok: &Token, card: &ElementCard, kind: ParseErrorKind) -> ParseError {
        ParseError::at_line(tok.line, tok.column, &card.text, kind)
    }

    fn resolve_node(&mut self, scope: &mut Scope, tok: &Token) -> NodeId {
        if is_ground(&tok.text) {
            return NodeId::GROUND;
        }
        if let Some(id) = scope.nodes.get(&tok.text) {
            return *id;
        }
        let id = self.out.circuit.add_node();
        scope.nodes.insert(tok.text.clone(), id);
        self.out.nodes.insert(format!("{}{}", scope.prefix, tok.text), id);
        id
    }

    fn declare_node(
        &mut self,
        scope: &mut Scope,
        tok: &Token,
        card_text: &str,
    ) -> Result<(), ParseError> {
        // Parse-time checks cover duplicates within the `.nodes` lists; a
        // collision here means a declared name shadows a port.
        if scope.nodes.contains_key(&tok.text) {
            return Err(ParseError::at_line(
                tok.line,
                tok.column,
                card_text,
                ParseErrorKind::DuplicateNode { name: tok.text.clone() },
            ));
        }
        let id = self.out.circuit.add_node();
        scope.nodes.insert(tok.text.clone(), id);
        self.out.nodes.insert(format!("{}{}", scope.prefix, tok.text), id);
        Ok(())
    }

    fn resolve_value(scope: &Scope, value: &Value, card: &ElementCard) -> Result<f64, ParseError> {
        match value {
            Value::Literal(v) => Ok(*v),
            Value::Param(tok) => {
                let name = Value::param_name(tok);
                scope.params.get(name).copied().ok_or_else(|| {
                    Self::tok_err(
                        tok,
                        card,
                        ParseErrorKind::UnknownParameter { name: name.to_owned() },
                    )
                })
            }
        }
    }

    fn resolve_waveform(
        scope: &Scope,
        ast: &WaveformAst,
        card: &ElementCard,
    ) -> Result<SourceWaveform, ParseError> {
        let v = |value: &Value| Self::resolve_value(scope, value, card);
        Ok(match ast {
            WaveformAst::Dc(level) => SourceWaveform::Dc { level: Voltage::from_volts(v(level)?) },
            WaveformAst::Step(amplitude, delay) => SourceWaveform::Step {
                amplitude: Voltage::from_volts(v(amplitude)?),
                delay: Time::from_seconds(v(delay)?),
            },
            WaveformAst::Ramp(amplitude, delay, rise) => SourceWaveform::Ramp {
                amplitude: Voltage::from_volts(v(amplitude)?),
                delay: Time::from_seconds(v(delay)?),
                rise_time: Time::from_seconds(v(rise)?),
            },
            WaveformAst::Pulse(amplitude, delay, edge, width) => SourceWaveform::Pulse {
                amplitude: Voltage::from_volts(v(amplitude)?),
                delay: Time::from_seconds(v(delay)?),
                edge_time: Time::from_seconds(v(edge)?),
                width: Time::from_seconds(v(width)?),
            },
            WaveformAst::Pwl(points) => SourceWaveform::PieceWiseLinear {
                points: points
                    .iter()
                    .map(|(t, value)| {
                        Ok((Time::from_seconds(v(t)?), Voltage::from_volts(v(value)?)))
                    })
                    .collect::<Result<Vec<_>, ParseError>>()?,
            },
        })
    }

    fn lower_cards(
        &mut self,
        cards: &[ElementCard],
        scope: &mut Scope,
        depth: usize,
    ) -> Result<(), ParseError> {
        for card in cards {
            let full_name = format!("{}{}", scope.prefix, card.name.text);
            let wrap = |e: CircuitError| {
                let error = CircuitError::Element { name: full_name.clone(), source: Box::new(e) };
                Self::card_err(card, ParseErrorKind::Element { error })
            };
            match &card.kind {
                CardKind::Resistor { plus, minus, value } => {
                    let v = Self::resolve_value(scope, value, card)?;
                    let p = self.resolve_node(scope, plus);
                    let m = self.resolve_node(scope, minus);
                    self.out.circuit.add_resistor(p, m, Resistance::from_ohms(v)).map_err(wrap)?;
                }
                CardKind::Capacitor { plus, minus, value } => {
                    let v = Self::resolve_value(scope, value, card)?;
                    let p = self.resolve_node(scope, plus);
                    let m = self.resolve_node(scope, minus);
                    self.out
                        .circuit
                        .add_capacitor(p, m, Capacitance::from_farads(v))
                        .map_err(wrap)?;
                }
                CardKind::Inductor { plus, minus, value } => {
                    let v = Self::resolve_value(scope, value, card)?;
                    let p = self.resolve_node(scope, plus);
                    let m = self.resolve_node(scope, minus);
                    let id = self
                        .out
                        .circuit
                        .add_inductor(p, m, Inductance::from_henries(v))
                        .map_err(wrap)?;
                    scope.inductors.insert(card.name.text.clone(), id);
                    self.out.inductors.insert(full_name, id);
                }
                CardKind::Mutual { first, second, value } => {
                    let v = Self::resolve_value(scope, value, card)?;
                    let lookup = |tok: &Token| -> Result<InductorId, ParseError> {
                        scope.inductors.get(&tok.text).copied().ok_or_else(|| {
                            Self::tok_err(
                                tok,
                                card,
                                ParseErrorKind::UnknownInductorRef { name: tok.text.clone() },
                            )
                        })
                    };
                    let l1 = lookup(first)?;
                    let l2 = lookup(second)?;
                    self.out.circuit.add_mutual_inductor(l1, l2, v).map_err(wrap)?;
                }
                CardKind::Voltage { plus, minus, waveform } => {
                    let wf = Self::resolve_waveform(scope, waveform, card)?;
                    let p = self.resolve_node(scope, plus);
                    let m = self.resolve_node(scope, minus);
                    let id = self.out.circuit.add_voltage_source(p, m, wf).map_err(wrap)?;
                    self.out.sources.insert(full_name, id);
                }
                CardKind::Current { plus, minus, waveform } => {
                    let wf = Self::resolve_waveform(scope, waveform, card)?;
                    let p = self.resolve_node(scope, plus);
                    let m = self.resolve_node(scope, minus);
                    let id = self.out.circuit.add_current_source(p, m, wf).map_err(wrap)?;
                    self.out.sources.insert(full_name, id);
                }
                CardKind::Instance { nodes, subckt, overrides } => {
                    if depth + 1 > MAX_SUBCKT_DEPTH {
                        return Err(Self::card_err(
                            card,
                            ParseErrorKind::RecursionLimit { name: subckt.text.clone() },
                        ));
                    }
                    let Some(def) = self.deck.subckts.get(&subckt.text) else {
                        return Err(Self::tok_err(
                            subckt,
                            card,
                            ParseErrorKind::UnknownSubckt { name: subckt.text.clone() },
                        ));
                    };
                    if nodes.len() != def.ports.len() {
                        return Err(Self::card_err(
                            card,
                            ParseErrorKind::PortCountMismatch {
                                subckt: def.name.clone(),
                                expected: def.ports.len(),
                                found: nodes.len(),
                            },
                        ));
                    }
                    let mut params: HashMap<String, f64> = def.params.iter().cloned().collect();
                    for (name, value) in overrides {
                        if !params.contains_key(&name.text) {
                            return Err(Self::tok_err(
                                name,
                                card,
                                ParseErrorKind::UnknownParameter { name: name.text.clone() },
                            ));
                        }
                        // Override values resolve in the *enclosing* scope,
                        // so a subcircuit can pass its own parameters down.
                        let v = Self::resolve_value(scope, value, card)?;
                        params.insert(name.text.clone(), v);
                    }
                    let mut bound = HashMap::new();
                    for (port, node_tok) in def.ports.iter().zip(nodes) {
                        let id = self.resolve_node(scope, node_tok);
                        bound.insert(port.clone(), id);
                    }
                    let mut child = Scope {
                        prefix: format!("{full_name}/"),
                        nodes: bound,
                        inductors: HashMap::new(),
                        params,
                    };
                    // Clone: expanding the body borrows the deck immutably
                    // while `self` mutates the circuit.
                    let def = def.clone();
                    for tok in &def.declared_nodes {
                        self.declare_node(&mut child, tok, &card.text)?;
                    }
                    self.lower_cards(&def.cards, &mut child, depth + 1)?;
                }
            }
        }
        Ok(())
    }
}

/// Lowers a parsed [`Deck`] into a circuit with name maps.
///
/// # Errors
///
/// Returns a [`ParseError`] citing the offending card for unresolvable names,
/// parameter problems, recursion, and any element the circuit rejects.
pub fn lower_deck(deck: &Deck) -> Result<ParsedCircuit, ParseError> {
    let mut lowerer = Lowerer {
        deck,
        out: ParsedCircuit {
            circuit: Circuit::new(),
            nodes: BTreeMap::new(),
            sources: BTreeMap::new(),
            inductors: BTreeMap::new(),
        },
    };
    let mut top = Scope {
        prefix: String::new(),
        nodes: HashMap::new(),
        inductors: HashMap::new(),
        params: HashMap::new(),
    };
    // `.nodes` declarations establish numbering before any element card.
    for tok in &deck.declared_nodes {
        lowerer.declare_node(&mut top, tok, "")?;
    }
    lowerer.lower_cards(&deck.cards, &mut top, 0)?;
    Ok(lowerer.out)
}

/// Parses deck text and lowers it to a circuit in one step, under the
/// `netlist.parse` and `netlist.lower` telemetry spans.
///
/// # Errors
///
/// Returns the first [`ParseError`] from either phase.
pub fn parse_circuit(text: &str) -> Result<ParsedCircuit, ParseError> {
    let deck = {
        let _span = rlckit_telemetry::span("netlist.parse");
        parse_deck(text)?
    };
    let parsed = {
        let _span = rlckit_telemetry::span("netlist.lower");
        lower_deck(&deck)?
    };
    rlckit_telemetry::counter_add("netlist.decks_parsed", 1);
    rlckit_telemetry::gauge_set("netlist.last_deck_nodes", parsed.circuit.node_count() as f64);
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowers_a_flat_deck_with_name_maps() {
        let parsed = parse_circuit(
            "V1 in 0 STEP(1 0)\nRd in a 50\nL1 a out 1n\nC1 out 0 1p\nC2 out gnd 1p\n",
        )
        .unwrap();
        assert_eq!(parsed.circuit.node_count(), 4); // gnd, in, a, out
        assert_eq!(parsed.circuit.elements().len(), 5);
        assert_eq!(parsed.node("in").unwrap().index(), 1);
        assert_eq!(parsed.node("0"), Some(NodeId::GROUND));
        assert_eq!(parsed.node("GND"), Some(NodeId::GROUND));
        assert!(parsed.node("missing").is_none());
        assert!(parsed.source("V1").is_some());
        assert!(parsed.inductors.contains_key("L1"));
        let names: Vec<&str> = parsed.node_names().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "in", "out"]);
    }

    #[test]
    fn declared_nodes_fix_the_numbering() {
        let parsed = parse_circuit(".nodes b a\nR1 a b 1\n").unwrap();
        assert_eq!(parsed.node("b").unwrap().index(), 1);
        assert_eq!(parsed.node("a").unwrap().index(), 2);
        // An unused declared node still exists in the circuit.
        let parsed = parse_circuit(".nodes a spare\nR1 a 0 1\n").unwrap();
        assert_eq!(parsed.circuit.node_count(), 3);
    }

    #[test]
    fn subckt_expansion_binds_ports_and_params() {
        let parsed = parse_circuit(
            ".subckt cell w b r=100 c=1p\nRa w s {r}\nCc s b {c}\n.ends\nX1 top mid cell\nX2 mid 0 cell r=200\n",
        )
        .unwrap();
        // Nodes: top, mid, X1/s, X2/s (+ ground).
        assert_eq!(parsed.circuit.node_count(), 5);
        assert_eq!(parsed.circuit.elements().len(), 4);
        assert!(parsed.node("X1/s").is_some());
        assert!(parsed.node("X2/s").is_some());
        let elements = parsed.circuit.elements();
        assert!(matches!(
            elements[0],
            rlckit_circuit::netlist::Element::Resistor { value, .. } if value.ohms() == 100.0
        ));
        assert!(matches!(
            elements[2],
            rlckit_circuit::netlist::Element::Resistor { value, .. } if value.ohms() == 200.0
        ));
    }

    #[test]
    fn nested_instances_pass_parameters_down() {
        let parsed = parse_circuit(
            ".subckt inner p r=1\nRi p 0 {r}\n.ends\n.subckt outer q r=2\nX1 q inner r={r}\n.ends\nXo n1 outer r=7\n",
        )
        .unwrap();
        assert!(matches!(
            parsed.circuit.elements()[0],
            rlckit_circuit::netlist::Element::Resistor { value, .. } if value.ohms() == 7.0
        ));
        assert!(parsed.node("Xo/X1").is_none());
        assert_eq!(parsed.node("n1").unwrap().index(), 1);
    }

    #[test]
    fn lowering_errors_cite_the_card() {
        let err = parse_circuit("R1 a 0 -5\n").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(matches!(err.kind(), ParseErrorKind::Element { .. }));
        assert!(err.to_string().contains("element \"R1\""));

        let err = parse_circuit(".subckt cell p\nRa p 0 0\n.ends\nX1 n cell\n").unwrap_err();
        assert_eq!(err.line(), 2, "the cited line is the body card inside the deck");
        assert!(err.to_string().contains("element \"X1/Ra\""));

        let err = parse_circuit("K1 L1 L2 0.5\n").unwrap_err();
        assert!(matches!(err.kind(), ParseErrorKind::UnknownInductorRef { name } if name == "L1"));

        let err = parse_circuit("X1 a b cell\n").unwrap_err();
        assert!(matches!(err.kind(), ParseErrorKind::UnknownSubckt { name } if name == "cell"));

        let err = parse_circuit(".subckt cell p q\nRa p q 1\n.ends\nX1 a cell\n").unwrap_err();
        assert!(matches!(
            err.kind(),
            ParseErrorKind::PortCountMismatch { expected: 2, found: 1, .. }
        ));

        let err = parse_circuit(".subckt cell p\nRa p 0 1\n.ends\nX1 a cell w=2\n").unwrap_err();
        assert!(matches!(err.kind(), ParseErrorKind::UnknownParameter { name } if name == "w"));

        let err = parse_circuit("R1 a 0 {r}\n").unwrap_err();
        assert!(matches!(err.kind(), ParseErrorKind::UnknownParameter { name } if name == "r"));
    }

    #[test]
    fn every_card_kind_cites_its_element_when_the_circuit_rejects_it() {
        for (deck, name, what) in [
            ("R1 a 0 -5\n", "R1", "resistance"),
            ("Cload a 0 -1p\n", "Cload", "capacitance"),
            ("L1 a 0 0\n", "L1", "inductance"),
            ("L1 a 0 1n\nL2 b 0 1n\nK12 L1 L2 1.5\n", "K12", "coupling"),
            ("Vin a 0 PWL(0 0 10p 1 5p 0)\n", "Vin", "PWL corner times"),
            ("Ibias a 0 PULSE(1 0 -1p 1p)\n", "Ibias", "edge time"),
        ] {
            let err = parse_circuit(deck).unwrap_err();
            let ParseErrorKind::Element { error } = err.kind() else {
                panic!("{deck:?}: {err}");
            };
            let CircuitError::Element { name: cited, source } = error else {
                panic!("{deck:?}: {error:?} does not cite its element");
            };
            assert_eq!(cited, name, "{deck:?}");
            assert!(source.to_string().contains(what), "{deck:?}: {source}");
            assert!(err.to_string().contains(&format!("element \"{name}\": ")), "{err}");
        }
    }

    #[test]
    fn recursion_is_cut_off() {
        let err = parse_circuit(".subckt loop p\nX1 p loop\n.ends\nX0 n loop\n").unwrap_err();
        assert!(matches!(err.kind(), ParseErrorKind::RecursionLimit { name } if name == "loop"));
        // Mutual recursion hits the same limit.
        let err = parse_circuit(".subckt a p\nX1 p b\n.ends\n.subckt b p\nX1 p a\n.ends\nX0 n a\n")
            .unwrap_err();
        assert!(matches!(err.kind(), ParseErrorKind::RecursionLimit { .. }));
    }

    #[test]
    fn k_cards_resolve_in_their_own_scope() {
        let parsed = parse_circuit(
            ".subckt pair a b\nL1 a 0 1n\nL2 b 0 1n\nK1 L1 L2 0.4\n.ends\nX1 p q pair\nX2 r s pair\n",
        )
        .unwrap();
        assert_eq!(parsed.circuit.inductor_count(), 4);
        assert!(parsed.inductors.contains_key("X1/L1"));
        assert!(parsed.inductors.contains_key("X2/L2"));
        // Each expansion couples its own inductor pair.
        let mutuals: Vec<_> = parsed
            .circuit
            .elements()
            .iter()
            .filter_map(|e| match e {
                rlckit_circuit::netlist::Element::MutualInductor { first, second, .. } => {
                    Some((first.index(), second.index()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(mutuals, [(0, 1), (2, 3)]);
    }
}
