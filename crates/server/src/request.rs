//! Wire-request validation: JSON lines into the typed scenario space.
//!
//! Every inbound line is parsed ([`parse_line`]) into a [`Request`] — either
//! a control operation ([`Op`]) or an evaluation job ([`Job`]) whose base
//! scenario, axes and deadline have been fully validated against the typed
//! [`Scenario`]/[`Param`] space of `rlckit-sweep`. Anything malformed
//! produces a structured [`RequestError`] carrying a stable machine-readable
//! code, a message pinpointing the offending field and a remedial hint —
//! the same error shape the netlist front-end uses for deck diagnostics.

use rlckit_sweep::{
    Axis, BusCrosstalkEvaluator, BusRepeaterEvaluator, DelayModelEvaluator, Evaluator,
    MeshDelayEvaluator, Param, ReducedDelayEvaluator, RepeaterDesignPointEvaluator,
    RepeaterOptimumEvaluator, Scenario, SramReadEvaluator, SweepCell, SweepSpec, TechnologyNode,
    TreeDelayEvaluator,
};
use rlckit_telemetry::json::{self, Value};

/// Upper bound on any integer-valued scenario parameter — large enough for
/// every real workload, small enough that one request cannot ask the
/// evaluators to build an absurd system.
const MAX_SIZE_PARAM: u64 = 1_000_000;

/// Resolves a wire evaluator name to its (zero-sized, `'static`) instance.
pub(crate) fn evaluator_by_name(name: &str) -> Option<&'static dyn Evaluator> {
    match name {
        "delay_model" => Some(&DelayModelEvaluator),
        "repeater_optimum" => Some(&RepeaterOptimumEvaluator),
        "repeater_design_point" => Some(&RepeaterDesignPointEvaluator),
        "reduced_delay" => Some(&ReducedDelayEvaluator),
        "bus_crosstalk" => Some(&BusCrosstalkEvaluator),
        "bus_repeater" => Some(&BusRepeaterEvaluator),
        "tree_delay" => Some(&TreeDelayEvaluator),
        "mesh_delay" => Some(&MeshDelayEvaluator),
        "sram_read" => Some(&SramReadEvaluator),
        _ => None,
    }
}

/// A validated inbound request.
pub enum Request {
    /// A control operation (`{"op": ...}` lines).
    Op(Op),
    /// An evaluation job.
    Evaluate(Job),
}

/// The control operations of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; answered immediately with `{"type":"pong"}`.
    Ping,
    /// Cache/queue/counter snapshot.
    Stats,
    /// Graceful drain: finish queued work, then stop accepting.
    Shutdown,
}

/// A fully validated evaluation job: the expanded cells of one request.
pub struct Job {
    /// Echoed request id.
    pub id: String,
    /// The evaluator every cell runs under.
    pub evaluator: &'static dyn Evaluator,
    /// Axis names in declaration order (empty for a single-point request).
    pub axis_names: Vec<String>,
    /// The expanded grid, in deterministic row-major order.
    pub cells: Vec<SweepCell>,
    /// Optional per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// A structured request diagnostic: stable code, message, remedial hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Machine-readable error class (`bad_json`, `unknown_param`, …).
    pub code: &'static str,
    /// Human-readable description naming the offending field or value.
    pub message: String,
    /// One-line remedial hint.
    pub hint: &'static str,
}

impl RequestError {
    fn new(code: &'static str, message: impl Into<String>, hint: &'static str) -> Self {
        Self { code, message: message.into(), hint }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("evaluator", &self.evaluator.name())
            .field("axis_names", &self.axis_names)
            .field("cells", &self.cells.len())
            .field("deadline_ms", &self.deadline_ms)
            .finish()
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Op(op) => f.debug_tuple("Op").field(op).finish(),
            Self::Evaluate(job) => f.debug_tuple("Evaluate").field(job).finish(),
        }
    }
}

/// Parses and validates one wire line.
///
/// # Errors
///
/// Returns a [`RequestError`] (paired with the request id when one was
/// recoverable from the line) describing the first problem found.
pub fn parse_line(line: &str) -> Result<Request, (Option<String>, RequestError)> {
    let doc = json::parse(line).map_err(|e| {
        (
            None,
            RequestError::new(
                "bad_json",
                format!("request is not valid JSON: {e}"),
                "send one complete JSON object per line",
            ),
        )
    })?;
    let id = doc.get("id").and_then(|v| v.as_str()).map(str::to_owned);
    validate(&doc, &id).map_err(|e| (id, e))
}

fn validate(doc: &Value, id: &Option<String>) -> Result<Request, RequestError> {
    let obj = doc.as_obj().ok_or_else(|| {
        RequestError::new(
            "bad_request",
            "request line must be a JSON object",
            "wrap the request fields in {...}",
        )
    })?;

    if let Some(op) = doc.get("op") {
        let name = op.as_str().ok_or_else(|| {
            RequestError::new(
                "bad_request",
                "\"op\" must be a string",
                "valid operations: ping, stats, shutdown",
            )
        })?;
        return match name {
            "ping" => Ok(Request::Op(Op::Ping)),
            "stats" => Ok(Request::Op(Op::Stats)),
            "shutdown" => Ok(Request::Op(Op::Shutdown)),
            other => Err(RequestError::new(
                "bad_request",
                format!("unknown operation \"{other}\""),
                "valid operations: ping, stats, shutdown",
            )),
        };
    }

    for (key, _) in obj {
        if !matches!(key.as_str(), "id" | "evaluator" | "base" | "axes" | "deadline_ms") {
            return Err(RequestError::new(
                "bad_request",
                format!("unknown request field \"{key}\""),
                "evaluation requests carry: id, evaluator, base, axes, deadline_ms",
            ));
        }
    }

    let id = id.clone().ok_or_else(|| {
        RequestError::new(
            "bad_request",
            "evaluation request is missing its \"id\" string",
            "give every request a unique string id; responses echo it",
        )
    })?;

    let eval_name = doc.get("evaluator").and_then(|v| v.as_str()).ok_or_else(|| {
        RequestError::new(
            "bad_request",
            "evaluation request is missing its \"evaluator\" string",
            "pick one of the built-in evaluators (see docs/PROTOCOL.md)",
        )
    })?;
    let evaluator = evaluator_by_name(eval_name).ok_or_else(|| {
        RequestError::new(
            "unknown_evaluator",
            format!("unknown evaluator \"{eval_name}\""),
            "valid evaluators: delay_model, repeater_optimum, repeater_design_point, \
             reduced_delay, bus_crosstalk, bus_repeater, tree_delay, mesh_delay, sram_read",
        )
    })?;

    let mut base = Scenario::default();
    if let Some(overrides) = doc.get("base") {
        let fields = overrides.as_obj().ok_or_else(|| {
            RequestError::new(
                "bad_request",
                "\"base\" must be an object of scenario field overrides",
                "example: \"base\": {\"line_length_mm\": 12.5, \"shielded\": true}",
            )
        })?;
        for (name, value) in fields {
            base.apply(&parse_param(name, value)?);
        }
    }

    let mut axes: Vec<Axis> = Vec::new();
    if let Some(axes_doc) = doc.get("axes") {
        let list = axes_doc.as_arr().ok_or_else(|| {
            RequestError::new(
                "bad_request",
                "\"axes\" must be an array",
                "example: \"axes\": [{\"param\": \"driver_size\", \"values\": [50, 100]}]",
            )
        })?;
        for (i, axis_doc) in list.iter().enumerate() {
            axes.push(parse_axis(i, axis_doc)?);
        }
    }

    let deadline_ms = match doc.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(v) => Some(v.as_u64().filter(|&ms| ms > 0).ok_or_else(|| {
            RequestError::new(
                "bad_request",
                "\"deadline_ms\" must be a positive integer",
                "omit the field for no deadline",
            )
        })?),
    };

    let (axis_names, cells) = if axes.is_empty() {
        // A scenario-only request: one cell, no axis columns.
        (Vec::new(), vec![SweepCell { index: 0, scenario: base, labels: Vec::new() }])
    } else {
        let mut spec = SweepSpec::new(base);
        for axis in axes {
            spec = spec.axis(axis);
        }
        let cells = spec.expand().map_err(|e| {
            RequestError::new(
                "bad_request",
                format!("axes do not expand to a grid: {e}"),
                "every axis needs at least one value",
            )
        })?;
        (spec.axis_names(), cells)
    };

    Ok(Request::Evaluate(Job { id, evaluator, axis_names, cells, deadline_ms }))
}

fn parse_axis(index: usize, doc: &Value) -> Result<Axis, RequestError> {
    let param_name = doc.get("param").and_then(|v| v.as_str()).ok_or_else(|| {
        RequestError::new(
            "bad_request",
            format!("axis {index} is missing its \"param\" string"),
            "each axis names one scenario parameter and lists its values",
        )
    })?;
    let values = doc.get("values").and_then(|v| v.as_arr()).ok_or_else(|| {
        RequestError::new(
            "bad_request",
            format!("axis {index} (\"{param_name}\") is missing its \"values\" array"),
            "each axis names one scenario parameter and lists its values",
        )
    })?;
    if values.is_empty() {
        return Err(RequestError::new(
            "bad_request",
            format!("axis {index} (\"{param_name}\") has no values"),
            "every axis needs at least one value",
        ));
    }
    let name = match doc.get("name") {
        None => param_name.to_owned(),
        Some(v) => v
            .as_str()
            .ok_or_else(|| {
                RequestError::new(
                    "bad_request",
                    format!("axis {index} has a non-string \"name\""),
                    "\"name\" overrides the label column header and must be a string",
                )
            })?
            .to_owned(),
    };
    let params = values
        .iter()
        .map(|v| parse_param(param_name, v))
        .collect::<Result<Vec<Param>, RequestError>>()?;
    Ok(Axis::new(name, params))
}

/// Parses one `field: value` pair into a typed [`Param`] assignment.
fn parse_param(name: &str, value: &Value) -> Result<Param, RequestError> {
    let bad_value = |expected: &str| {
        RequestError::new(
            "bad_value",
            format!("parameter \"{name}\" expects {expected}"),
            "see docs/PROTOCOL.md for every parameter's type and unit",
        )
    };
    let float = |ctor: fn(f64) -> Param| -> Result<Param, RequestError> {
        let v = value.as_f64().ok_or_else(|| bad_value("a finite number"))?;
        if v <= 0.0 {
            return Err(bad_value("a positive number"));
        }
        Ok(ctor(v))
    };
    let coupling = |ctor: fn(f64) -> Param| -> Result<Param, RequestError> {
        let v = value.as_f64().ok_or_else(|| bad_value("a finite number"))?;
        if v < 0.0 {
            return Err(bad_value("a non-negative number"));
        }
        Ok(ctor(v))
    };
    let size = |ctor: fn(usize) -> Param| -> Result<Param, RequestError> {
        let v = value
            .as_u64()
            .filter(|&v| (1..=MAX_SIZE_PARAM).contains(&v))
            .ok_or_else(|| bad_value("an integer in 1..=1000000"))?;
        Ok(ctor(v as usize))
    };
    match name {
        "technology" => {
            let tag = value.as_str().ok_or_else(|| bad_value("a technology name string"))?;
            let node = TechnologyNode::ROADMAP
                .into_iter()
                .find(|n| n.name() == tag)
                .ok_or_else(|| bad_value("one of: 0.25um, 0.18um, 0.13um, 90nm"))?;
            Ok(Param::Technology(node))
        }
        "line_length_mm" => float(Param::LineLengthMm),
        "resistance_ohm_per_mm" => float(Param::ResistanceOhmPerMm),
        "inductance_nh_per_mm" => float(Param::InductanceNhPerMm),
        "capacitance_ff_per_um" => float(Param::CapacitanceFfPerUm),
        "driver_size" => float(Param::DriverSize),
        "sections" => float(Param::Sections),
        "bus_lines" => size(Param::BusLines),
        "coupling_cap_ff_per_um" => coupling(Param::CouplingCapFfPerUm),
        "inductive_coupling" => coupling(Param::InductiveCoupling),
        "shielded" => Ok(Param::Shielded(value.as_bool().ok_or_else(|| bad_value("a boolean"))?)),
        "ladder_sections" => size(Param::LadderSections),
        "reduction_order" => size(Param::ReductionOrder),
        "tree_levels" => size(Param::TreeLevels),
        "tree_fanout" => size(Param::TreeFanout),
        "mesh_rows" => size(Param::MeshRows),
        "mesh_cols" => size(Param::MeshCols),
        "sram_rows" => size(Param::SramRows),
        "sram_cols" => size(Param::SramCols),
        other => Err(RequestError::new(
            "unknown_param",
            format!("unknown scenario parameter \"{other}\""),
            "valid parameters are the Scenario field names (see docs/PROTOCOL.md)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_evaluator_resolves() {
        for name in [
            "delay_model",
            "repeater_optimum",
            "repeater_design_point",
            "reduced_delay",
            "bus_crosstalk",
            "bus_repeater",
            "tree_delay",
            "mesh_delay",
            "sram_read",
        ] {
            let ev = evaluator_by_name(name).expect("registered evaluator");
            assert_eq!(ev.name(), name);
            assert!(!ev.columns().is_empty());
        }
        assert!(evaluator_by_name("nope").is_none());
    }

    #[test]
    fn single_point_requests_synthesize_one_cell() {
        let req =
            parse_line(r#"{"id":"a","evaluator":"delay_model","base":{"line_length_mm":12.5}}"#)
                .unwrap();
        let Request::Evaluate(job) = req else { panic!("expected a job") };
        assert_eq!(job.id, "a");
        assert_eq!(job.cells.len(), 1);
        assert!(job.axis_names.is_empty());
        assert_eq!(job.cells[0].scenario.line_length_mm, 12.5);
        assert_eq!(job.deadline_ms, None);
    }

    #[test]
    fn axes_expand_row_major_with_the_last_axis_fastest() {
        let req = parse_line(
            r#"{"id":"g","evaluator":"delay_model",
                "axes":[{"param":"line_length_mm","values":[5,10]},
                        {"param":"driver_size","values":[50,100,200]}],
                "deadline_ms":2000}"#,
        )
        .unwrap();
        let Request::Evaluate(job) = req else { panic!("expected a job") };
        assert_eq!(job.cells.len(), 6);
        assert_eq!(job.axis_names, ["line_length_mm", "driver_size"]);
        assert_eq!(job.deadline_ms, Some(2000));
        assert_eq!(job.cells[0].labels, ["5", "50"]);
        assert_eq!(job.cells[1].labels, ["5", "100"]);
        assert_eq!(job.cells[3].labels, ["10", "50"]);
        assert_eq!(job.cells[4].scenario.driver_size, 100.0);
    }

    #[test]
    fn ops_parse_and_unknown_ops_are_diagnosed() {
        assert!(matches!(parse_line(r#"{"op":"ping"}"#), Ok(Request::Op(Op::Ping))));
        assert!(matches!(parse_line(r#"{"op":"stats"}"#), Ok(Request::Op(Op::Stats))));
        assert!(matches!(parse_line(r#"{"op":"shutdown"}"#), Ok(Request::Op(Op::Shutdown))));
        let (_, err) = parse_line(r#"{"op":"reboot"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("reboot"));
    }

    #[test]
    fn diagnostics_carry_codes_messages_and_hints() {
        let cases = [
            ("not json at all", "bad_json"),
            (r#"{"evaluator":"delay_model"}"#, "bad_request"),
            (r#"{"id":"x","evaluator":"warp_drive"}"#, "unknown_evaluator"),
            (r#"{"id":"x","evaluator":"delay_model","base":{"warp":1}}"#, "unknown_param"),
            (r#"{"id":"x","evaluator":"delay_model","base":{"line_length_mm":-1}}"#, "bad_value"),
            (r#"{"id":"x","evaluator":"delay_model","base":{"bus_lines":0}}"#, "bad_value"),
            (
                r#"{"id":"x","evaluator":"delay_model","axes":[{"param":"driver_size"}]}"#,
                "bad_request",
            ),
            (
                r#"{"id":"x","evaluator":"delay_model","axes":[{"param":"driver_size","values":[]}]}"#,
                "bad_request",
            ),
            (r#"{"id":"x","evaluator":"delay_model","deadline_ms":0}"#, "bad_request"),
            (r#"{"id":"x","evaluator":"delay_model","bogus_field":1}"#, "bad_request"),
        ];
        for (line, code) in cases {
            let (_, err) = parse_line(line).unwrap_err();
            assert_eq!(err.code, code, "line {line:?}");
            assert!(!err.message.is_empty());
            assert!(!err.hint.is_empty());
        }
        // The id is recovered even from otherwise-broken requests.
        let (id, _) = parse_line(r#"{"id":"keep-me","evaluator":"warp"}"#).unwrap_err();
        assert_eq!(id.as_deref(), Some("keep-me"));
    }

    #[test]
    fn technology_parses_by_display_name() {
        let req =
            parse_line(r#"{"id":"t","evaluator":"delay_model","base":{"technology":"90nm"}}"#)
                .unwrap();
        let Request::Evaluate(job) = req else { panic!("expected a job") };
        assert_eq!(job.cells[0].scenario.technology, TechnologyNode::N90);
        let (_, err) =
            parse_line(r#"{"id":"t","evaluator":"delay_model","base":{"technology":"7nm"}}"#)
                .unwrap_err();
        assert_eq!(err.code, "bad_value");
    }
}
