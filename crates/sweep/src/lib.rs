//! Parallel scenario sweeps and paper-figure reproduction for `rlckit`.
//!
//! The paper's headline results are *sweeps* — delay error against the RC
//! model across line length and driver strength, the shift of the optimal
//! repeater count and size as inductance grows, worst-case crosstalk across
//! bus pitch — yet each workspace example evaluates one hand-written
//! scenario. This crate makes whole grids first-class:
//!
//! * [`scenario`] — the typed parameter space ([`Scenario`], [`Param`],
//!   [`TechnologyNode`]) shared by every evaluator;
//! * [`spec`] — declarative [`SweepSpec`]s: cartesian products of plain and
//!   *zipped* [`Axis`] values, expanding to deterministically indexed cells;
//! * [`eval`] — the [`Evaluator`] trait plus built-ins wiring
//!   `rlckit-core`, `rlckit-repeater` and `rlckit-coupling` into the engine;
//! * [`exec`] — the multi-threaded chunked work-queue executor
//!   ([`run_sweep`], [`run_sweep_cached`]) with thread-count-independent
//!   result ordering;
//! * [`cache`] — the content-hash [`ResultStore`]: re-runs replay stored
//!   cells bit-exactly and only compute changed ones, in memory or on disk,
//!   under an LRU byte budget;
//! * [`sink`] — the deterministic [`CsvSink`] emitter;
//! * [`figures`] — the builders behind the committed `figures/FIG_*.csv`
//!   paper datasets and the CI drift check.
//!
//! # Example: sweep the Elmore error across length and driver strength
//!
//! ```
//! use rlckit_sweep::prelude::*;
//!
//! # fn main() -> Result<(), rlckit_sweep::SweepError> {
//! let spec = SweepSpec::new(Scenario::default())
//!     .axis(Axis::new("length_mm", [5.0, 10.0, 20.0].map(Param::LineLengthMm)))
//!     .axis(Axis::new("h", [50.0, 100.0].map(Param::DriverSize)));
//! let result = run_sweep(&spec, &DelayModelEvaluator, &SweepOptions::with_threads(2))?;
//! assert_eq!(result.rows.len(), 6);
//! // Every cell: the paper's Eq. (9) delay plus the RC baselines and errors.
//! let csv = CsvSink.render(&result);
//! assert!(csv.starts_with("length_mm,h,rlc_delay_ps,"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod eval;
pub mod exec;
pub mod figures;
pub mod scenario;
pub mod sink;
pub mod spec;

pub use cache::{cache_key, ResultStore, StoreStats};
pub use error::SweepError;
pub use eval::{
    BusCrosstalkEvaluator, BusRepeaterEvaluator, DelayModelEvaluator, Evaluator,
    MeshDelayEvaluator, ReducedDelayEvaluator, RepeaterDesignPointEvaluator,
    RepeaterOptimumEvaluator, SramReadEvaluator, TreeDelayEvaluator,
};
pub use exec::{
    evaluate_checked, run_sweep, run_sweep_cached, SweepOptions, SweepResult, SweepRow,
};
pub use scenario::{Param, Scenario, TechnologyNode};
pub use sink::CsvSink;
pub use spec::{Axis, AxisValue, SweepCell, SweepSpec};

/// Commonly used sweep types, re-exported for convenient glob imports.
pub mod prelude {
    pub use crate::cache::ResultStore;
    pub use crate::eval::{
        BusCrosstalkEvaluator, BusRepeaterEvaluator, DelayModelEvaluator, Evaluator,
        MeshDelayEvaluator, ReducedDelayEvaluator, RepeaterDesignPointEvaluator,
        RepeaterOptimumEvaluator, SramReadEvaluator, TreeDelayEvaluator,
    };
    pub use crate::exec::{run_sweep, run_sweep_cached, SweepOptions, SweepResult};
    pub use crate::scenario::{Param, Scenario, TechnologyNode};
    pub use crate::sink::CsvSink;
    pub use crate::spec::{Axis, SweepSpec};
}
