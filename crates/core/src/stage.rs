//! The application side of the model: linear pipelines of stages.
//!
//! A pipeline of `n` stages `S_1 … S_n` (Figure 1 of the paper) is fully
//! described by two vectors:
//!
//! * `works[k]` — the computation volume `w_{k+1}` of stage `k` (0-based),
//! * `deltas[i]` — the data size `δ_i` flowing *between* stage `i` and stage
//!   `i+1`, with `deltas[0] = δ_0` the input read from `P_in` and
//!   `deltas[n] = δ_n` the result sent to `P_out`.
//!
//! [`Pipeline`] is immutable after construction and precomputes a prefix-sum
//! of works so that the `Σ w_i` term of every latency formula is O(1) per
//! interval. Decoding goes through [`Pipeline::new`] too, so a decoded
//! pipeline is validated and carries its prefix sums.

use crate::error::{CoreError, Result};
use crate::mapping::Interval;
use serde::{Deserialize, Reader, Serialize, Value};

/// A single pipeline stage: its compute volume and output data size.
///
/// Used by [`PipelineBuilder`]; the packed [`Pipeline`] representation is
/// what the solvers consume.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Computation volume `w_k` (floating point operations).
    pub work: f64,
    /// Size `δ_k` of the data this stage sends onward.
    pub output_size: f64,
}

/// An immutable `n`-stage linear pipeline.
///
/// Wire form: `{"deltas": [...], "works": [...]}`.
#[derive(Clone, Debug, PartialEq)]
pub struct Pipeline {
    /// `δ_0 … δ_n` (length `n + 1`).
    deltas: Vec<f64>,
    /// `w_1 … w_n` (length `n`).
    works: Vec<f64>,
    /// `work_prefix[i] = Σ_{k < i} works[k]` (length `n + 1`).
    work_prefix: Vec<f64>,
}

impl Serialize for Pipeline {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("deltas".into(), self.deltas.to_value()),
            ("works".into(), self.works.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for Pipeline {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        if value.as_map().is_none() {
            return Err(serde::Error::msg("expected map for struct Pipeline"));
        }
        let deltas = Vec::from_value(value.get_or_null("deltas"))?;
        let works = Vec::from_value(value.get_or_null("works"))?;
        Pipeline::new(works, deltas).map_err(invalid_pipeline)
    }

    /// Through this thread's decode memo ([`crate::memo`]).
    fn from_json(reader: &mut Reader<'_>) -> std::result::Result<Self, serde::Error> {
        crate::memo::decode(reader, decode_pipeline)
    }
}

/// The full streaming decode of a pipeline object.
fn decode_pipeline(reader: &mut Reader<'_>) -> std::result::Result<Pipeline, serde::Error> {
    let (mut deltas, mut works) = (None, None);
    reader.begin_object()?;
    while let Some(key) = reader.next_key()? {
        match &*key {
            "deltas" if deltas.is_none() => deltas = Some(Vec::from_json(reader)?),
            "works" if works.is_none() => works = Some(Vec::from_json(reader)?),
            _ => reader.skip()?,
        }
    }
    let (Some(deltas), Some(works)) = (deltas, works) else {
        return Err(serde::Error::msg("pipeline needs `deltas` and `works`"));
    };
    Pipeline::new(works, deltas).map_err(invalid_pipeline)
}

fn invalid_pipeline(e: CoreError) -> serde::Error {
    serde::Error::msg(format!("invalid pipeline: {e}"))
}

impl Pipeline {
    /// Builds a pipeline from its work vector (`n` entries) and data-size
    /// vector (`n + 1` entries, `δ_0 … δ_n`).
    ///
    /// # Errors
    /// * [`CoreError::EmptyPipeline`] when `works` is empty,
    /// * [`CoreError::DimensionMismatch`] when `deltas.len() != works.len()+1`,
    /// * [`CoreError::InvalidValue`] when any entry is negative or non-finite
    ///   (zero is legal: a stage may be pure compute or pure forwarding).
    pub fn new(works: Vec<f64>, deltas: Vec<f64>) -> Result<Self> {
        if works.is_empty() {
            return Err(CoreError::EmptyPipeline);
        }
        if deltas.len() != works.len() + 1 {
            return Err(CoreError::DimensionMismatch {
                what: "pipeline deltas",
                expected: works.len() + 1,
                actual: deltas.len(),
            });
        }
        for &w in &works {
            if !w.is_finite() || w < 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "stage work",
                    value: w,
                });
            }
        }
        for &d in &deltas {
            if !d.is_finite() || d < 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "data size",
                    value: d,
                });
            }
        }
        let work_prefix = prefix_sums(&works);
        Ok(Pipeline {
            deltas,
            works,
            work_prefix,
        })
    }

    /// A pipeline whose `n` stages all have work `w` and whose `n + 1` data
    /// sizes all equal `delta`.
    pub fn uniform(n: usize, w: f64, delta: f64) -> Result<Self> {
        Pipeline::new(vec![w; n], vec![delta; n + 1])
    }

    /// Number of stages `n`.
    #[inline]
    #[must_use]
    pub fn n_stages(&self) -> usize {
        self.works.len()
    }

    /// Work `w_{k+1}` of 0-based stage `k`.
    #[inline]
    #[must_use]
    pub fn work(&self, stage: usize) -> f64 {
        self.works[stage]
    }

    /// Data size `δ_i`, `0 ≤ i ≤ n`. `delta(0)` is the pipeline input size,
    /// `delta(n)` the output size.
    #[inline]
    #[must_use]
    pub fn delta(&self, i: usize) -> f64 {
        self.deltas[i]
    }

    /// Input size `δ_0` read from `P_in`.
    #[inline]
    #[must_use]
    pub fn input_size(&self) -> f64 {
        self.deltas[0]
    }

    /// Output size `δ_n` sent to `P_out`.
    #[inline]
    #[must_use]
    pub fn output_size(&self) -> f64 {
        self.deltas[self.works.len()]
    }

    /// All works, `w_1 … w_n`.
    #[inline]
    #[must_use]
    pub fn works(&self) -> &[f64] {
        &self.works
    }

    /// All data sizes, `δ_0 … δ_n`.
    #[inline]
    #[must_use]
    pub fn deltas(&self) -> &[f64] {
        &self.deltas
    }

    /// `Σ_{k ∈ [start, end]} w_k` for 0-based inclusive stage bounds, O(1).
    #[inline]
    #[must_use]
    pub fn work_sum(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end && end < self.works.len());
        self.work_prefix[end + 1] - self.work_prefix[start]
    }

    /// Total work of an [`Interval`], O(1).
    #[inline]
    #[must_use]
    pub fn interval_work(&self, iv: Interval) -> f64 {
        self.work_sum(iv.start(), iv.end())
    }

    /// Data size entering an interval: `δ_{d_j − 1}` in paper indexing, i.e.
    /// `deltas[iv.start()]` in 0-based indexing.
    #[inline]
    #[must_use]
    pub fn interval_input(&self, iv: Interval) -> f64 {
        self.deltas[iv.start()]
    }

    /// Data size leaving an interval: `δ_{e_j}` in paper indexing, i.e.
    /// `deltas[iv.end() + 1]`.
    #[inline]
    #[must_use]
    pub fn interval_output(&self, iv: Interval) -> f64 {
        self.deltas[iv.end() + 1]
    }

    /// `Σ w_k` over the whole pipeline.
    #[inline]
    #[must_use]
    pub fn total_work(&self) -> f64 {
        self.work_prefix[self.works.len()]
    }

    /// Rebuilds the prefix-sum cache. Every constructor, decoding
    /// included, already builds it; this only recomputes it.
    #[must_use]
    pub fn with_rebuilt_cache(mut self) -> Self {
        self.work_prefix = prefix_sums(&self.works);
        self
    }
}

fn prefix_sums(works: &[f64]) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(works.len() + 1);
    let mut acc = 0.0;
    prefix.push(0.0);
    for &w in works {
        acc += w;
        prefix.push(acc);
    }
    prefix
}

/// Incremental pipeline construction, stage by stage.
///
/// ```
/// use rpwf_core::stage::PipelineBuilder;
/// let pipe = PipelineBuilder::with_input_size(100.0)
///     .stage(2.0, 100.0)
///     .stage(2.0, 100.0)
///     .build()
///     .unwrap();
/// assert_eq!(pipe.n_stages(), 2);
/// assert_eq!(pipe.input_size(), 100.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PipelineBuilder {
    input_size: f64,
    stages: Vec<Stage>,
}

impl PipelineBuilder {
    /// Starts a pipeline whose first stage will read `δ_0 = input_size`.
    #[must_use]
    pub fn with_input_size(input_size: f64) -> Self {
        PipelineBuilder {
            input_size,
            stages: Vec::new(),
        }
    }

    /// Appends a stage computing `work` and emitting `output_size` bytes.
    #[must_use]
    pub fn stage(mut self, work: f64, output_size: f64) -> Self {
        self.stages.push(Stage { work, output_size });
        self
    }

    /// Appends a prebuilt [`Stage`].
    #[must_use]
    pub fn push(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Number of stages added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` when no stage has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Finalizes into a validated [`Pipeline`].
    ///
    /// # Errors
    /// Same conditions as [`Pipeline::new`].
    pub fn build(self) -> Result<Pipeline> {
        let works: Vec<f64> = self.stages.iter().map(|s| s.work).collect();
        let mut deltas = Vec::with_capacity(self.stages.len() + 1);
        deltas.push(self.input_size);
        deltas.extend(self.stages.iter().map(|s| s.output_size));
        Pipeline::new(works, deltas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_approx_eq;

    fn sample() -> Pipeline {
        Pipeline::new(vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0, 40.0]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let p = sample();
        assert_eq!(p.n_stages(), 3);
        assert_eq!(p.work(1), 2.0);
        assert_eq!(p.delta(0), 10.0);
        assert_eq!(p.input_size(), 10.0);
        assert_eq!(p.output_size(), 40.0);
        assert_eq!(p.total_work(), 6.0);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Pipeline::new(vec![], vec![1.0]),
            Err(CoreError::EmptyPipeline)
        );
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let err = Pipeline::new(vec![1.0], vec![1.0]).unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_negative_and_nonfinite() {
        assert!(matches!(
            Pipeline::new(vec![-1.0], vec![0.0, 0.0]).unwrap_err(),
            CoreError::InvalidValue {
                what: "stage work",
                ..
            }
        ));
        assert!(matches!(
            Pipeline::new(vec![1.0], vec![f64::NAN, 0.0]).unwrap_err(),
            CoreError::InvalidValue {
                what: "data size",
                ..
            }
        ));
        assert!(matches!(
            Pipeline::new(vec![f64::INFINITY], vec![0.0, 0.0]).unwrap_err(),
            CoreError::InvalidValue { .. }
        ));
    }

    #[test]
    fn zero_work_and_zero_delta_are_legal() {
        let p = Pipeline::new(vec![0.0, 5.0], vec![0.0, 0.0, 0.0]).unwrap();
        assert_eq!(p.total_work(), 5.0);
    }

    #[test]
    fn work_sums_match_naive() {
        let p = sample();
        for s in 0..3 {
            for e in s..3 {
                let naive: f64 = (s..=e).map(|k| p.work(k)).sum();
                assert_approx_eq!(p.work_sum(s, e), naive);
            }
        }
    }

    #[test]
    fn interval_io_sizes() {
        let p = sample();
        let iv = Interval::new(1, 2).unwrap();
        assert_eq!(p.interval_input(iv), 20.0);
        assert_eq!(p.interval_output(iv), 40.0);
        assert_eq!(p.interval_work(iv), 5.0);
    }

    #[test]
    fn uniform_pipeline() {
        let p = Pipeline::uniform(4, 2.5, 7.0).unwrap();
        assert_eq!(p.n_stages(), 4);
        assert!(p.works().iter().all(|&w| w == 2.5));
        assert!(p.deltas().iter().all(|&d| d == 7.0));
    }

    #[test]
    fn builder_matches_direct_construction() {
        let built = PipelineBuilder::with_input_size(10.0)
            .stage(1.0, 20.0)
            .stage(2.0, 30.0)
            .stage(3.0, 40.0)
            .build()
            .unwrap();
        assert_eq!(built, sample());
    }

    #[test]
    fn builder_push_and_len() {
        let b = PipelineBuilder::with_input_size(1.0).push(Stage {
            work: 1.0,
            output_size: 2.0,
        });
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert!(b.build().is_ok());
    }

    #[test]
    fn builder_empty_fails() {
        assert_eq!(
            PipelineBuilder::with_input_size(1.0).build().unwrap_err(),
            CoreError::EmptyPipeline
        );
    }

    #[test]
    fn figure3_pipeline_of_the_paper() {
        // §3, Figure 3: two stages, w = 2 each, δ = 100 everywhere.
        let p = Pipeline::new(vec![2.0, 2.0], vec![100.0, 100.0, 100.0]).unwrap();
        assert_eq!(p.total_work(), 4.0);
        assert_eq!(p.input_size(), 100.0);
        assert_eq!(p.output_size(), 100.0);
    }

    #[test]
    fn rebuilt_cache_preserves_sums() {
        let p = sample().with_rebuilt_cache();
        assert_approx_eq!(p.work_sum(0, 2), 6.0);
    }
}
