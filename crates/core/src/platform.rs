//! The platform side of the model: processors, links, failure probabilities.
//!
//! A platform (Figure 2 of the paper) is a virtual clique of `m` processors
//! `P_1 … P_m` plus two special vertices: `P_in`, which holds the initial
//! data of every data set, and `P_out`, which stores the results. Each
//! processor `P_u` has a speed `s_u` (flop/time-unit) and a failure
//! probability `fp_u ∈ [0, 1]` — the probability that it breaks down at some
//! point during the (long) execution of the workflow. Each ordered vertex
//! pair has a link bandwidth; links are bidirectional and stored
//! symmetrically.
//!
//! Platform taxonomy of the paper:
//! * **Fully Homogeneous** — identical speeds *and* identical bandwidths,
//! * **Communication Homogeneous** — identical bandwidths, arbitrary speeds,
//! * **Fully Heterogeneous** — everything arbitrary;
//!
//! orthogonally, **Failure Homogeneous** / **Failure Heterogeneous**.
//! Classification here is by *exact* float equality: generators construct
//! homogeneous platforms from a single shared constant, so exact comparison
//! is reliable and avoids tolerance ambiguity in solver dispatch.
//!
//! Decoding goes through [`Platform::new`], so a decoded platform passes
//! the same checks as a built one.

use crate::error::{CoreError, Result};
use serde::{Deserialize, Reader, Serialize, Value};

/// Identifier of a processor: dense indices `0 … m−1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub u32);

impl ProcId {
    /// From a dense index.
    #[inline]
    #[must_use]
    pub fn new(index: usize) -> Self {
        ProcId(index as u32)
    }

    /// Back to a dense index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A vertex of the communication graph: a processor, or one of the two
/// special I/O stations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vertex {
    /// `P_in`, the source of every data set.
    In,
    /// A compute processor.
    Proc(ProcId),
    /// `P_out`, the sink of every result.
    Out,
}

/// Platform classes of the paper (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformClass {
    /// Identical processors and identical links.
    FullyHomogeneous,
    /// Identical links, heterogeneous speeds.
    CommHomogeneous,
    /// Heterogeneous links and speeds.
    FullyHeterogeneous,
}

/// Failure-probability classes of the paper (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureClass {
    /// All processors share one failure probability.
    Homogeneous,
    /// Failure probabilities differ.
    Heterogeneous,
}

/// An immutable target platform.
///
/// Wire form: `{"speeds": [...], "failure_probs": [...], "bandwidths":
/// [...]}`, with each `+∞` bandwidth written as `null` because JSON has no
/// literal for infinity.
#[derive(Clone, Debug, PartialEq)]
pub struct Platform {
    speeds: Vec<f64>,
    failure_probs: Vec<f64>,
    /// Row-major `(m + 2) × (m + 2)` bandwidth matrix; row/col `m` is `In`,
    /// `m + 1` is `Out`. Diagonal entries are `+∞` (intra-processor data
    /// movement is free). Symmetric by construction.
    bandwidths: Vec<f64>,
}

impl Serialize for Platform {
    fn to_value(&self) -> Value {
        let bandwidths = self
            .bandwidths
            .iter()
            .map(|&b| {
                if b.is_finite() {
                    Value::Float(b)
                } else {
                    Value::Null
                }
            })
            .collect();
        Value::Map(vec![
            ("speeds".into(), self.speeds.to_value()),
            ("failure_probs".into(), self.failure_probs.to_value()),
            ("bandwidths".into(), Value::Seq(bandwidths)),
        ])
    }
}

impl<'de> Deserialize<'de> for Platform {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        if value.as_map().is_none() {
            return Err(serde::Error::msg("expected map for struct Platform"));
        }
        let speeds = Vec::from_value(value.get_or_null("speeds"))?;
        let failure_probs = Vec::from_value(value.get_or_null("failure_probs"))?;
        let bandwidths: Vec<Option<f64>> = Vec::from_value(value.get_or_null("bandwidths"))?;
        let bandwidths = bandwidths
            .into_iter()
            .map(|b| b.unwrap_or(f64::INFINITY))
            .collect();
        Platform::new(speeds, failure_probs, bandwidths).map_err(invalid_platform)
    }

    /// Through this thread's decode memo ([`crate::memo`]).
    fn from_json(reader: &mut Reader<'_>) -> std::result::Result<Self, serde::Error> {
        crate::memo::decode(reader, decode_platform)
    }
}

/// The full streaming decode of a platform object.
fn decode_platform(reader: &mut Reader<'_>) -> std::result::Result<Platform, serde::Error> {
    let (mut speeds, mut failure_probs, mut bandwidths) = (None, None, None);
    reader.begin_object()?;
    while let Some(key) = reader.next_key()? {
        match &*key {
            "speeds" if speeds.is_none() => speeds = Some(Vec::from_json(reader)?),
            "failure_probs" if failure_probs.is_none() => {
                failure_probs = Some(Vec::from_json(reader)?);
            }
            "bandwidths" if bandwidths.is_none() => {
                let mut matrix = Vec::new();
                reader.begin_array()?;
                while reader.next_element()? {
                    matrix.push(if reader.null()? {
                        f64::INFINITY
                    } else {
                        reader.f64()?
                    });
                }
                bandwidths = Some(matrix);
            }
            _ => reader.skip()?,
        }
    }
    let (Some(speeds), Some(failure_probs), Some(bandwidths)) = (speeds, failure_probs, bandwidths)
    else {
        return Err(serde::Error::msg(
            "platform needs `speeds`, `failure_probs` and `bandwidths`",
        ));
    };
    Platform::new(speeds, failure_probs, bandwidths).map_err(invalid_platform)
}

fn invalid_platform(e: CoreError) -> serde::Error {
    serde::Error::msg(format!("invalid platform: {e}"))
}

impl Platform {
    /// A platform from its raw parts: `m` speeds, `m` failure
    /// probabilities and the row-major `(m + 2) × (m + 2)` bandwidth
    /// matrix (vertex order: processors, `In`, `Out`; `+∞` on the
    /// diagonal). The decoder's constructor.
    ///
    /// # Errors
    /// * [`CoreError::EmptyPlatform`] for `m = 0`,
    /// * [`CoreError::DimensionMismatch`] when `failure_probs` or
    ///   `bandwidths` has the wrong length,
    /// * every value error of [`PlatformBuilder::build`].
    pub fn new(speeds: Vec<f64>, failure_probs: Vec<f64>, bandwidths: Vec<f64>) -> Result<Self> {
        let m = speeds.len();
        if m == 0 {
            return Err(CoreError::EmptyPlatform);
        }
        if failure_probs.len() != m {
            return Err(CoreError::DimensionMismatch {
                what: "failure_probs",
                expected: m,
                actual: failure_probs.len(),
            });
        }
        let cells = (m + 2).saturating_mul(m + 2);
        if bandwidths.len() != cells {
            return Err(CoreError::DimensionMismatch {
                what: "bandwidths",
                expected: cells,
                actual: bandwidths.len(),
            });
        }
        PlatformBuilder {
            speeds,
            failure_probs,
            bandwidths,
        }
        .build()
    }

    /// Number of compute processors `m`.
    #[inline]
    #[must_use]
    pub fn n_procs(&self) -> usize {
        self.speeds.len()
    }

    /// Iterator over all processor ids.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> + Clone + '_ {
        (0..self.n_procs()).map(ProcId::new)
    }

    /// Speed `s_u`.
    #[inline]
    #[must_use]
    pub fn speed(&self, p: ProcId) -> f64 {
        self.speeds[p.index()]
    }

    /// Failure probability `fp_u`.
    #[inline]
    #[must_use]
    pub fn failure_prob(&self, p: ProcId) -> f64 {
        self.failure_probs[p.index()]
    }

    /// All speeds in id order.
    #[inline]
    #[must_use]
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// All failure probabilities in id order.
    #[inline]
    #[must_use]
    pub fn failure_probs(&self) -> &[f64] {
        &self.failure_probs
    }

    #[inline]
    fn vertex_index(&self, v: Vertex) -> usize {
        match v {
            Vertex::Proc(p) => p.index(),
            Vertex::In => self.n_procs(),
            Vertex::Out => self.n_procs() + 1,
        }
    }

    /// The row-major `(m + 2) × (m + 2)` bandwidth matrix (vertex order:
    /// processors, `In`, `Out`).
    #[inline]
    #[must_use]
    pub fn bandwidth_matrix(&self) -> &[f64] {
        &self.bandwidths
    }

    /// Bandwidth of the (bidirectional) link between `a` and `b`.
    /// `a == b` yields `+∞`: staying on a processor costs nothing.
    #[inline]
    #[must_use]
    pub fn bandwidth(&self, a: Vertex, b: Vertex) -> f64 {
        let n = self.n_procs() + 2;
        self.bandwidths[self.vertex_index(a) * n + self.vertex_index(b)]
    }

    /// Time to ship `size` units across the `a → b` link (`0` when `a == b`).
    #[inline]
    #[must_use]
    pub fn comm_time(&self, a: Vertex, b: Vertex, size: f64) -> f64 {
        if size == 0.0 {
            return 0.0;
        }
        size / self.bandwidth(a, b)
    }

    /// If every link (processor–processor and I/O) has the same bandwidth,
    /// returns it.
    #[must_use]
    pub fn uniform_bandwidth(&self) -> Option<f64> {
        let m = self.n_procs();
        let n = m + 2;
        let mut common = None;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // The In–Out link is never used by any mapping; ignore it.
                if (i == m && j == m + 1) || (i == m + 1 && j == m) {
                    continue;
                }
                let b = self.bandwidths[i * n + j];
                match common {
                    None => common = Some(b),
                    Some(c) if c == b => {}
                    Some(_) => return None,
                }
            }
        }
        common
    }

    /// The platform class (see module docs for the equality convention).
    #[must_use]
    pub fn class(&self) -> PlatformClass {
        let comm_homog = self.uniform_bandwidth().is_some();
        if !comm_homog {
            return PlatformClass::FullyHeterogeneous;
        }
        let speed_homog = self.speeds.windows(2).all(|w| w[0] == w[1]);
        if speed_homog {
            PlatformClass::FullyHomogeneous
        } else {
            PlatformClass::CommHomogeneous
        }
    }

    /// The failure class.
    #[must_use]
    pub fn failure_class(&self) -> FailureClass {
        if self.failure_probs.windows(2).all(|w| w[0] == w[1]) {
            FailureClass::Homogeneous
        } else {
            FailureClass::Heterogeneous
        }
    }

    /// Processor ids sorted by decreasing speed (ties by id for determinism).
    #[must_use]
    pub fn procs_by_speed_desc(&self) -> Vec<ProcId> {
        let mut ids: Vec<ProcId> = self.procs().collect();
        ids.sort_by(|a, b| {
            self.speed(*b)
                .total_cmp(&self.speed(*a))
                .then(a.0.cmp(&b.0))
        });
        ids
    }

    /// Processor ids sorted by increasing failure probability, i.e. most
    /// reliable first (ties by id).
    #[must_use]
    pub fn procs_by_reliability_desc(&self) -> Vec<ProcId> {
        let mut ids: Vec<ProcId> = self.procs().collect();
        ids.sort_by(|a, b| {
            self.failure_prob(*a)
                .total_cmp(&self.failure_prob(*b))
                .then(a.0.cmp(&b.0))
        });
        ids
    }

    /// The fastest processor (lowest id wins ties).
    #[must_use]
    pub fn fastest_proc(&self) -> ProcId {
        self.procs_by_speed_desc()[0]
    }

    // ---- Convenience constructors ----------------------------------------

    /// Fully homogeneous platform: `m` processors of speed `s`, all links of
    /// bandwidth `b`, all failure probabilities `fp`.
    pub fn fully_homogeneous(m: usize, s: f64, b: f64, fp: f64) -> Result<Self> {
        PlatformBuilder::new(m)
            .speeds_uniform(s)
            .failure_probs_uniform(fp)
            .bandwidth_uniform(b)
            .build()
    }

    /// Communication-homogeneous platform: per-processor speeds and failure
    /// probabilities, one shared bandwidth `b`.
    pub fn comm_homogeneous(speeds: Vec<f64>, b: f64, failure_probs: Vec<f64>) -> Result<Self> {
        let m = speeds.len();
        PlatformBuilder::new(m)
            .speeds(speeds)?
            .failure_probs(failure_probs)?
            .bandwidth_uniform(b)
            .build()
    }
}

/// Mutable construction of a [`Platform`].
///
/// Defaults: speed 1, failure probability 0, bandwidth 1 everywhere.
#[derive(Clone, Debug)]
pub struct PlatformBuilder {
    speeds: Vec<f64>,
    failure_probs: Vec<f64>,
    bandwidths: Vec<f64>,
}

impl PlatformBuilder {
    /// Starts a builder for `m` processors.
    #[must_use]
    pub fn new(m: usize) -> Self {
        let n = m + 2;
        let mut bandwidths = vec![1.0; n * n];
        for i in 0..n {
            bandwidths[i * n + i] = f64::INFINITY;
        }
        PlatformBuilder {
            speeds: vec![1.0; m],
            failure_probs: vec![0.0; m],
            bandwidths,
        }
    }

    fn m(&self) -> usize {
        self.speeds.len()
    }

    fn vertex_index(&self, v: Vertex) -> usize {
        match v {
            Vertex::Proc(p) => p.index(),
            Vertex::In => self.m(),
            Vertex::Out => self.m() + 1,
        }
    }

    /// Sets one processor's speed.
    #[must_use]
    pub fn speed(mut self, p: ProcId, s: f64) -> Self {
        self.speeds[p.index()] = s;
        self
    }

    /// Sets all speeds from a vector.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] when the length differs from `m`.
    pub fn speeds(mut self, speeds: Vec<f64>) -> Result<Self> {
        if speeds.len() != self.m() {
            return Err(CoreError::DimensionMismatch {
                what: "speeds",
                expected: self.m(),
                actual: speeds.len(),
            });
        }
        self.speeds = speeds;
        Ok(self)
    }

    /// Sets every speed to `s`.
    #[must_use]
    pub fn speeds_uniform(mut self, s: f64) -> Self {
        self.speeds.iter_mut().for_each(|x| *x = s);
        self
    }

    /// Sets one processor's failure probability.
    #[must_use]
    pub fn failure_prob(mut self, p: ProcId, fp: f64) -> Self {
        self.failure_probs[p.index()] = fp;
        self
    }

    /// Sets all failure probabilities from a vector.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] when the length differs from `m`.
    pub fn failure_probs(mut self, fps: Vec<f64>) -> Result<Self> {
        if fps.len() != self.m() {
            return Err(CoreError::DimensionMismatch {
                what: "failure_probs",
                expected: self.m(),
                actual: fps.len(),
            });
        }
        self.failure_probs = fps;
        Ok(self)
    }

    /// Sets every failure probability to `fp`.
    #[must_use]
    pub fn failure_probs_uniform(mut self, fp: f64) -> Self {
        self.failure_probs.iter_mut().for_each(|x| *x = fp);
        self
    }

    /// Sets the bidirectional bandwidth between two vertices.
    #[must_use]
    pub fn bandwidth(mut self, a: Vertex, b: Vertex, value: f64) -> Self {
        let n = self.m() + 2;
        let (i, j) = (self.vertex_index(a), self.vertex_index(b));
        if i != j {
            self.bandwidths[i * n + j] = value;
            self.bandwidths[j * n + i] = value;
        }
        self
    }

    /// Sets every link (including I/O links) to bandwidth `b`.
    #[must_use]
    pub fn bandwidth_uniform(mut self, b: f64) -> Self {
        let n = self.m() + 2;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.bandwidths[i * n + j] = b;
                }
            }
        }
        self
    }

    /// Sets the `P_in → P_u` bandwidth.
    #[must_use]
    pub fn input_bandwidth(self, p: ProcId, b: f64) -> Self {
        self.bandwidth(Vertex::In, Vertex::Proc(p), b)
    }

    /// Sets the `P_u → P_out` bandwidth.
    #[must_use]
    pub fn output_bandwidth(self, p: ProcId, b: f64) -> Self {
        self.bandwidth(Vertex::Proc(p), Vertex::Out, b)
    }

    /// Validates and freezes the platform.
    ///
    /// # Errors
    /// * [`CoreError::EmptyPlatform`] for `m = 0`,
    /// * [`CoreError::InvalidValue`] for non-positive/non-finite speeds,
    ///   NaN or non-positive bandwidths (`+∞` is a free link), a finite
    ///   diagonal bandwidth, or failure probabilities outside `[0, 1]`.
    pub fn build(self) -> Result<Platform> {
        if self.speeds.is_empty() {
            return Err(CoreError::EmptyPlatform);
        }
        for &s in &self.speeds {
            if !s.is_finite() || s <= 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "speed",
                    value: s,
                });
            }
        }
        for &fp in &self.failure_probs {
            if !fp.is_finite() || !(0.0..=1.0).contains(&fp) {
                return Err(CoreError::InvalidValue {
                    what: "failure probability",
                    value: fp,
                });
            }
        }
        let n = self.m() + 2;
        for i in 0..n {
            for j in 0..n {
                let b = self.bandwidths[i * n + j];
                let valid = if i == j {
                    b == f64::INFINITY
                } else {
                    b > 0.0 // rejects NaN too
                };
                if !valid {
                    return Err(CoreError::InvalidValue {
                        what: "bandwidth",
                        value: b,
                    });
                }
            }
        }
        Ok(Platform {
            speeds: self.speeds,
            failure_probs: self.failure_probs,
            bandwidths: self.bandwidths,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_homogeneous_classification() {
        let pf = Platform::fully_homogeneous(4, 2.0, 3.0, 0.1).unwrap();
        assert_eq!(pf.class(), PlatformClass::FullyHomogeneous);
        assert_eq!(pf.failure_class(), FailureClass::Homogeneous);
        assert_eq!(pf.uniform_bandwidth(), Some(3.0));
        assert_eq!(pf.n_procs(), 4);
    }

    #[test]
    fn comm_homogeneous_classification() {
        let pf = Platform::comm_homogeneous(vec![1.0, 2.0], 1.0, vec![0.1, 0.1]).unwrap();
        assert_eq!(pf.class(), PlatformClass::CommHomogeneous);
        assert_eq!(pf.failure_class(), FailureClass::Homogeneous);
    }

    #[test]
    fn fully_heterogeneous_classification() {
        let pf = PlatformBuilder::new(2)
            .bandwidth(Vertex::Proc(ProcId(0)), Vertex::Proc(ProcId(1)), 7.0)
            .build()
            .unwrap();
        assert_eq!(pf.class(), PlatformClass::FullyHeterogeneous);
    }

    #[test]
    fn failure_heterogeneous_classification() {
        let pf = Platform::comm_homogeneous(vec![1.0, 1.0], 1.0, vec![0.1, 0.2]).unwrap();
        assert_eq!(pf.failure_class(), FailureClass::Heterogeneous);
    }

    #[test]
    fn in_out_link_is_ignored_for_classification() {
        // Changing the In-Out bandwidth must not flip the class: no mapping
        // ever routes data over that link.
        let pf = PlatformBuilder::new(2)
            .bandwidth(Vertex::In, Vertex::Out, 99.0)
            .build()
            .unwrap();
        assert_eq!(pf.class(), PlatformClass::FullyHomogeneous);
    }

    #[test]
    fn bandwidth_is_symmetric_and_diagonal_infinite() {
        let p0 = Vertex::Proc(ProcId(0));
        let p1 = Vertex::Proc(ProcId(1));
        let pf = PlatformBuilder::new(2)
            .bandwidth(p0, p1, 5.0)
            .build()
            .unwrap();
        assert_eq!(pf.bandwidth(p0, p1), 5.0);
        assert_eq!(pf.bandwidth(p1, p0), 5.0);
        assert_eq!(pf.bandwidth(p0, p0), f64::INFINITY);
        assert_eq!(pf.comm_time(p0, p0, 42.0), 0.0);
    }

    #[test]
    fn comm_time_zero_size_is_free_even_on_slow_links() {
        let pf = Platform::fully_homogeneous(1, 1.0, 1e-9, 0.0).unwrap();
        assert_eq!(pf.comm_time(Vertex::In, Vertex::Proc(ProcId(0)), 0.0), 0.0);
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(PlatformBuilder::new(0).build().is_err());
        assert!(PlatformBuilder::new(1)
            .speed(ProcId(0), 0.0)
            .build()
            .is_err());
        assert!(PlatformBuilder::new(1)
            .speed(ProcId(0), -1.0)
            .build()
            .is_err());
        assert!(PlatformBuilder::new(1)
            .failure_prob(ProcId(0), 1.5)
            .build()
            .is_err());
        assert!(PlatformBuilder::new(1)
            .failure_prob(ProcId(0), -0.1)
            .build()
            .is_err());
        assert!(PlatformBuilder::new(2)
            .bandwidth(Vertex::Proc(ProcId(0)), Vertex::Proc(ProcId(1)), 0.0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_dimension_checks() {
        assert!(PlatformBuilder::new(2).speeds(vec![1.0]).is_err());
        assert!(PlatformBuilder::new(2).failure_probs(vec![0.0; 3]).is_err());
    }

    #[test]
    fn sorted_helpers() {
        let pf = Platform::comm_homogeneous(vec![1.0, 3.0, 2.0], 1.0, vec![0.5, 0.1, 0.3]).unwrap();
        let by_speed: Vec<u32> = pf.procs_by_speed_desc().iter().map(|p| p.0).collect();
        assert_eq!(by_speed, vec![1, 2, 0]);
        let by_rel: Vec<u32> = pf.procs_by_reliability_desc().iter().map(|p| p.0).collect();
        assert_eq!(by_rel, vec![1, 2, 0]);
        assert_eq!(pf.fastest_proc(), ProcId(1));
    }

    #[test]
    fn sorted_helpers_tie_break_by_id() {
        let pf = Platform::fully_homogeneous(3, 1.0, 1.0, 0.2).unwrap();
        let ids: Vec<u32> = pf.procs_by_speed_desc().iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn figure4_platform_of_the_paper() {
        // §3 Figure 4: s1 = s2 = 1; bin,1 = 100, bin,2 = 1 (slow side),
        // b1,2 = 100, b1,out = 1, b2,out = 100.
        let p1 = ProcId(0);
        let p2 = ProcId(1);
        let pf = PlatformBuilder::new(2)
            .input_bandwidth(p1, 100.0)
            .input_bandwidth(p2, 1.0)
            .bandwidth(Vertex::Proc(p1), Vertex::Proc(p2), 100.0)
            .output_bandwidth(p1, 1.0)
            .output_bandwidth(p2, 100.0)
            .build()
            .unwrap();
        assert_eq!(pf.class(), PlatformClass::FullyHeterogeneous);
        assert_eq!(pf.bandwidth(Vertex::In, Vertex::Proc(p1)), 100.0);
        assert_eq!(pf.bandwidth(Vertex::Proc(p1), Vertex::Out), 1.0);
    }
}
