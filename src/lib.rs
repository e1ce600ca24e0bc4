//! The crate documentation is the repository README: the module table, the
//! architecture diagram and every runnable example live there (and the Rust
//! code fences below compile as doctests, so they cannot rot).
#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rlckit_circuit as circuit;
pub use rlckit_core as model;
pub use rlckit_coupling as coupling;
pub use rlckit_interconnect as interconnect;
pub use rlckit_netlist as netlist;
pub use rlckit_numeric as numeric;
pub use rlckit_reduce as reduce;
pub use rlckit_repeater as repeater;
pub use rlckit_server as server;
pub use rlckit_sweep as sweep;
pub use rlckit_telemetry as telemetry;
pub use rlckit_units as units;

/// Commonly used types and functions, re-exported for convenient glob imports.
pub mod prelude {
    pub use rlckit_circuit::ladder::{measure_step_delay, LadderSpec, SegmentStyle};
    pub use rlckit_circuit::tree::{measure_tree_delays, TreeSpec};
    pub use rlckit_core::load::GateRlcLoad;
    pub use rlckit_core::model::{propagation_delay, scaled_delay};
    pub use rlckit_coupling::bus::UniformBusSpec;
    pub use rlckit_coupling::crosstalk::crosstalk_metrics;
    pub use rlckit_coupling::netlist::BusDrive;
    pub use rlckit_coupling::scenario::{LineDrive, SwitchingPattern};
    pub use rlckit_interconnect::merit::{assess_inductance, t_l_over_r};
    pub use rlckit_interconnect::technology::Technology;
    pub use rlckit_interconnect::twoport::DrivenLine;
    pub use rlckit_interconnect::{DistributedLine, RoutingTree};
    pub use rlckit_netlist::{
        circuit_to_deck, measure_sram_read, parse_circuit, ParseError, SramArraySpec,
    };
    pub use rlckit_reduce::{
        prima, reduce_bus, reduce_ladder, PoleResidueModel, ReducedBus, ReducedLadder,
        ReductionOptions, StepMetrics,
    };
    pub use rlckit_repeater::design::{DesignStrategy, RepeaterDesigner};
    pub use rlckit_repeater::tree::evaluate_tree_repeaters;
    pub use rlckit_repeater::RepeaterProblem;
    pub use rlckit_sweep::cache::ResultStore;
    pub use rlckit_sweep::eval::{
        BusCrosstalkEvaluator, BusRepeaterEvaluator, DelayModelEvaluator, Evaluator,
        ReducedDelayEvaluator, RepeaterDesignPointEvaluator, RepeaterOptimumEvaluator,
        SramReadEvaluator, TreeDelayEvaluator,
    };
    pub use rlckit_sweep::exec::{run_sweep, run_sweep_cached, SweepOptions, SweepResult};
    pub use rlckit_sweep::scenario::{Param, Scenario, TechnologyNode};
    pub use rlckit_sweep::sink::CsvSink;
    pub use rlckit_sweep::spec::{Axis, SweepSpec};
    pub use rlckit_telemetry::{span, Collector, ProfileSnapshot};
    pub use rlckit_units::{
        Area, Capacitance, CapacitancePerLength, Energy, Inductance, InductancePerLength, Length,
        Resistance, ResistancePerLength, Time, Voltage,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_modules_are_wired_together() {
        let tech = Technology::quarter_micron();
        let line = tech.global_wire.line(Length::from_millimeters(10.0)).unwrap();
        let load = GateRlcLoad::from_line(
            &line,
            tech.buffer_resistance(100.0).unwrap(),
            tech.buffer_capacitance(100.0).unwrap(),
        )
        .unwrap();
        let delay = propagation_delay(&load);
        assert!(delay.picoseconds() > 1.0);
        assert_eq!(
            assess_inductance(&line, Time::from_picoseconds(50.0)),
            rlckit_interconnect::merit::InductanceAssessment::Significant
        );
    }
}
