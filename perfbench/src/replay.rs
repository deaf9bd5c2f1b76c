//! The traced run's in-process replay: a sample of the workload's own
//! request lines through each layer's public functions, one span per call.

use crate::report::Report;
use crate::spans::Tracer;
use crate::util::{median, quantile};
use rpwf_algo::front::threshold_read;
use rpwf_core::hash::instance_key;
use rpwf_server::cache::{CachedEntry, SolutionCache};
use rpwf_server::protocol::{Meta, SolveResult};
use rpwf_server::{Command, Request, Response, SolverService};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Passes over the sample; per-call figures are medians over all passes.
pub const PASSES: usize = 3;

fn meta() -> Meta {
    Meta {
        cache_hit: true,
        solver: None,
        exact_complete: None,
        elapsed_us: 0,
        node: None,
        trace: None,
        explain: None,
    }
}

/// Replays warm `Solve` lines: parse, hash, cache get, threshold read and
/// encode one by one, then the whole `handle_line` on `service_for(line)`
/// (the warm service that owns the line's instance).
pub fn warm_solves<'a>(
    tracer: &Tracer,
    lines: &[(u64, String)],
    cache: &SolutionCache,
    service_for: &dyn Fn(&str) -> &'a SolverService,
) -> Vec<String> {
    let mut responses = Vec::with_capacity(lines.len());
    for _ in 0..PASSES {
        for (id, line) in lines {
            let root = tracer.begin("request", *id, None);
            let request = tracer.span("protocol.parse", *id, Some(root), || {
                serde_json::from_str::<Request>(line).expect("replayed line parses")
            });
            let Command::Solve {
                pipeline,
                platform,
                objective,
            } = request.cmd
            else {
                panic!("warm replay takes Solve lines");
            };
            let key = tracer.span("hash.instance_key", *id, Some(root), || {
                instance_key(&pipeline, &platform)
            });
            let entry = tracer.span("cache.get", *id, Some(root), || cache.get(key));
            let Some(CachedEntry::Front(front)) = entry else {
                panic!("replay cache holds every front");
            };
            let sol = tracer.span("front.threshold_read", *id, Some(root), || {
                threshold_read(&front.front, objective)
            });
            tracer.span("protocol.encode", *id, Some(root), || {
                let sol = sol.expect("warm bounds are inside the front");
                let result = SolveResult {
                    mapping_display: sol.mapping.to_string(),
                    mapping: sol.mapping,
                    latency: sol.latency,
                    failure_prob: sol.failure_prob,
                };
                Response::ok(Some(*id), result.to_value(), meta()).to_line()
            });
            tracer.end(root);
            let service = service_for(line);
            let out = tracer.span("service.handle_line", *id, None, || {
                service.handle_line(line, Instant::now())
            });
            responses.push(out);
        }
    }
    responses
}

/// Span names whose per-call medians are reported, with metric names.
const STAGES: &[(&str, &str)] = &[
    ("protocol.parse", "protocol.parse_us"),
    ("hash.instance_key", "hash.instance_key_us"),
    ("cache.get", "cache.get_us"),
    ("front.threshold_read", "front.threshold_read_us"),
    ("protocol.encode", "protocol.encode_us"),
    ("service.handle_line", "service.handle_line_us"),
];

/// Reports the stage medians, `service.self_us` (`handle_line` minus the
/// stage calls, per request) and request/response sizes.
pub fn report_stages(
    tracer: &Tracer,
    report: &mut Report,
    lines: &[(u64, String)],
    responses: &[String],
) {
    let durations = tracer.durations_us();
    for (span, metric) in STAGES {
        if let Some(values) = durations.get(span) {
            report.layer(metric, median(values), "us", Some(values.len()));
        }
    }
    let mut per_request: BTreeMap<(u64, usize), f64> = BTreeMap::new();
    let mut seen: BTreeMap<(u64, &str), usize> = BTreeMap::new();
    for span in tracer.spans().iter() {
        let pass = seen.entry((span.request, span.name)).or_insert(0);
        let key = (span.request, *pass);
        *pass += 1;
        let us = (span.end_ns - span.start_ns) as f64 / 1e3;
        // Sub-calls the service makes itself count against it; the
        // direct backend call re-measures part of `engine.solve`.
        let sign = match span.name {
            "service.handle_line" => 1.0,
            "engine.solve" => -1.0,
            name if STAGES.iter().any(|(s, _)| *s == name) => -1.0,
            _ => 0.0,
        };
        *per_request.entry(key).or_insert(0.0) += sign * us;
    }
    let self_us: Vec<f64> = per_request.into_values().collect();
    report.layer(
        "service.self_us",
        median(&self_us),
        "us",
        Some(self_us.len()),
    );
    // What the replay's own glue costs between the layer calls: the root
    // spans' self time.
    if let Some(glue) = tracer.self_us().get("request") {
        report.layer("replay.glue_self_us", median(glue), "us", Some(glue.len()));
    }
    let req_bytes: Vec<f64> = lines.iter().map(|(_, l)| l.len() as f64).collect();
    let resp_bytes: Vec<f64> = responses.iter().map(|l| l.len() as f64).collect();
    report.layer(
        "protocol.request_bytes",
        median(&req_bytes),
        "bytes",
        Some(req_bytes.len()),
    );
    report.layer(
        "protocol.response_bytes",
        median(&resp_bytes),
        "bytes",
        Some(resp_bytes.len()),
    );
    let handle = durations
        .get("service.handle_line")
        .cloned()
        .unwrap_or_default();
    report.layer(
        "service.handle_line_p99_us",
        quantile(&handle, 0.99),
        "us",
        Some(handle.len()),
    );
}

/// Writes the spans and reports the tracer's own cost.
pub fn finish(tracer: &Tracer, report: &mut Report, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.info("trace.spans_file", path.display()),
        Err(e) => report.info("trace.spans_file_error", e),
    }
    // The traced run's timed phase is the untraced one; tracing costs only
    // the span records of the replay, reported as their share of it.
    let wall_ns = tracer.elapsed_ns();
    let cost_ns = Tracer::span_cost_ns();
    report.layer("trace.spans", tracer.len() as f64, "count", None);
    report.layer("trace.span_cost_ns", cost_ns, "ns", None);
    report.layer(
        "trace.overhead_pct",
        100.0 * tracer.len() as f64 * cost_ns / wall_ns.max(1.0),
        "%",
        None,
    );
}
