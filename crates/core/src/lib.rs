//! # rpwf-core — the model of *Optimizing Latency and Reliability of Pipeline Workflow Applications*
//!
//! This crate implements the application/platform/mapping model of Benoit,
//! Rehn-Sonigo and Robert (INRIA RR-6345, IPDPS 2008): linear pipeline
//! workflows mapped onto heterogeneous clique platforms whose processors may
//! fail, with **replicated interval mappings** trading latency against
//! reliability.
//!
//! ## Layout
//!
//! * [`stage`] — pipelines `S_1 … S_n` with per-stage work `w_k` and
//!   inter-stage data sizes `δ_i`,
//! * [`platform`] — processors, speeds, failure probabilities, the symmetric
//!   bandwidth matrix with `P_in`/`P_out`, and the platform taxonomy,
//! * [`mapping`] — interval mappings with replication, one-to-one and
//!   general mappings,
//! * [`metrics`] — failure probability and the worst-case latency formulas
//!   (equations (1) and (2) of the paper),
//! * [`eval`] — incremental (delta) evaluation of neighborhood moves with
//!   bit-exact agreement to the full formulas,
//! * [`throughput`] — steady-state period (extension, paper §5),
//! * [`intervals`] — enumeration of interval partitions,
//! * [`memo`] — per-thread reuse of decoded pipelines and platforms by
//!   their exact input bytes,
//! * [`pareto`] — bi-objective Pareto fronts,
//! * [`ring`] — the consistent-hash ring fleets use to partition the
//!   instance keyspace, with replicated (successor-list) ownership,
//! * [`backoff`] — seeded jittered exponential backoff (fleet circuit
//!   breakers),
//! * [`trace`] — structured per-request tracing (spans, attributes, and
//!   the mergeable span tree fleet hops return),
//! * [`num`] — numeric conventions (tolerances, log-space probabilities),
//! * [`error`] — the shared error type.
//!
//! ## Quick example
//!
//! Figure 5 of the paper — a slow reliable processor plus ten fast
//! unreliable ones:
//!
//! ```
//! use rpwf_core::prelude::*;
//!
//! let pipeline = Pipeline::new(vec![1.0, 100.0], vec![10.0, 1.0, 0.0])?;
//! let mut speeds = vec![100.0; 11];
//! speeds[0] = 1.0;
//! let mut fps = vec![0.8; 11];
//! fps[0] = 0.1;
//! let platform = Platform::comm_homogeneous(speeds, 1.0, fps)?;
//!
//! // Slow stage on the reliable processor, fast stage replicated ×10.
//! let mapping = IntervalMapping::new(
//!     vec![Interval::singleton(0), Interval::singleton(1)],
//!     vec![vec![ProcId(0)], (1..=10).map(ProcId).collect()],
//!     2,
//!     11,
//! )?;
//! assert!((latency(&mapping, &pipeline, &platform) - 22.0).abs() < 1e-9);
//! assert!(failure_probability(&mapping, &platform) < 0.2);
//! # Ok::<(), rpwf_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backoff;
pub mod budget;
pub mod error;
pub mod eval;
pub mod hash;
pub mod intervals;
pub mod mapping;
pub mod memo;
pub mod metrics;
pub mod num;
pub mod pareto;
pub mod platform;
pub mod ring;
pub mod stage;
pub mod throughput;
pub mod trace;

pub use backoff::JitteredBackoff;
pub use budget::{Budget, BudgetPoller, CancelHandle};
pub use error::{CoreError, Result};
pub use eval::{DeltaEval, EvalContext, Move, Scores};
pub use hash::{CanonicalDigest, CanonicalHasher};
pub use mapping::{GeneralMapping, Interval, IntervalMapping, OneToOneMapping};
pub use metrics::{
    failure_probability, general_latency, latency, latency_eq1, latency_eq2, latency_eq2_breakdown,
    log_success_probability, one_to_one_latency, reliability, LatencyBreakdown,
};
pub use platform::{FailureClass, Platform, PlatformBuilder, PlatformClass, ProcId, Vertex};
pub use ring::HashRing;
pub use stage::{Pipeline, PipelineBuilder, Stage};
pub use trace::{Span, SpanTree, Trace, TraceId, TraceScope};

/// One-stop imports for downstream crates and examples.
pub mod prelude {
    pub use crate::backoff::JitteredBackoff;
    pub use crate::budget::{Budget, BudgetPoller, CancelHandle};
    pub use crate::error::{CoreError, Result};
    pub use crate::eval::{DeltaEval, EvalContext, Move, Scores};
    pub use crate::hash::{CanonicalDigest, CanonicalHasher};
    pub use crate::intervals::{count_partitions, IntervalPartitions, PartitionsWithParts};
    pub use crate::mapping::{GeneralMapping, Interval, IntervalMapping, OneToOneMapping};
    pub use crate::metrics::{
        failure_probability, general_latency, latency, latency_eq1, latency_eq2,
        latency_eq2_breakdown, log_success_probability, one_to_one_latency, reliability,
    };
    pub use crate::pareto::{ParetoFront, ParetoPoint};
    pub use crate::platform::{
        FailureClass, Platform, PlatformBuilder, PlatformClass, ProcId, Vertex,
    };
    pub use crate::ring::HashRing;
    pub use crate::stage::{Pipeline, PipelineBuilder, Stage};
    pub use crate::throughput::{period, throughput};
    pub use crate::trace::{Span, SpanTree, Trace, TraceId, TraceScope};
}
