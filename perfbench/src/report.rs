//! What one run prints: every metric by name with unit and sample count,
//! then the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics in `BENCHMARK.json`, in its order. Each must be
/// reported by every workload. Latency is listed as the trimmed mean: on a
/// host losing up to a quarter of its CPU time to steal, ten runs of
/// fleet_mixed put the median at either 11 or 15 ms (two modes of the
/// stalled reactor) and warm_large's p90 anywhere from 5.4 to 19 ms. The
/// percentiles are printed all the same.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "latency_trimmed_mean_us",
    "throughput_rps",
    "cpu_us_per_req",
    "ok_share",
    "peak_rss_mb",
];

/// Per-layer metrics in `BENCHMARK.json`: the ones every workload's traced
/// run measures. Workload-specific layers are printed but not listed.
pub const PER_LAYER: &[&str] = &[
    "protocol.parse_us",
    "protocol.encode_us",
    "protocol.request_bytes",
    "protocol.response_bytes",
    "hash.instance_key_us",
    "cache.get_us",
    "front.threshold_read_us",
    "service.handle_line_us",
    "service.self_us",
    "service.elapsed_us_p50",
    "cache.hit_ratio",
    "noise.timer_overshoot_p99_us",
    "noise.cpu_ref_ms",
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.into(), value.to_string()));
    }

    /// `ok_share` (listed) and `error_share` over every answer checked,
    /// `exact_share` over the `solves` Solve answers (`exact` of them
    /// proven), and the peak resident set. Call after the last check.
    pub fn outcome_shares(&mut self, exact: usize, solves: usize) {
        let attempted = self.attempted.max(1) as f64;
        let n = Some(self.attempted as usize);
        let failed = self.failed as f64;
        self.e2e("ok_share", 1.0 - failed / attempted, "ratio", n);
        self.e2e("error_share", failed / attempted, "ratio", n);
        self.e2e(
            "exact_share",
            exact as f64 / solves.max(1) as f64,
            "ratio",
            Some(solves),
        );
        self.e2e("peak_rss_mb", crate::util::peak_rss_mb(), "MB", None);
    }

    /// Records a failed answer check; the first few are printed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Prints the human-readable table, then the JSON result line.
    pub fn print(&self, workload: &str, trace: bool) {
        for (k, v) in &self.info {
            println!("info {workload} {k} = {v}");
        }
        for f in &self.failures {
            println!("check-failed {workload} {f}");
        }
        for (kind, metrics) in [("e2e", &self.end_to_end), ("layer", &self.per_layer)] {
            for m in metrics.iter() {
                let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
                println!("{kind} {workload} {} = {} {}{n}", m.name, m.value, m.unit);
            }
        }
        let (wanted, have) = if trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let mut metrics = String::new();
        let mut complete = true;
        for name in wanted {
            match have.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => {
                    if !metrics.is_empty() {
                        metrics.push(',');
                    }
                    write!(
                        metrics,
                        r#""{}":{{"value":{},"unit":"{}"}}"#,
                        m.name, m.value, m.unit
                    )
                    .expect("string write");
                }
                _ => complete = false,
            }
        }
        let correct = complete && self.failed == 0 && self.attempted > 0;
        println!(
            r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{metrics}}}}}"#,
            self.attempted.max(1),
            self.failed
        );
    }
}
