//! The one-pass decoder against its reference, and the request decode
//! defects it closes:
//!
//! * **differential** — over generated `Request` and `Response` lines and
//!   byte-level mutations and truncations of them, `serde_json::from_str`
//!   (the streaming `from_json`) and `value_from_str` + `from_value` agree
//!   on Ok/Err and, when both decode, on the decoded value — on a first
//!   decode and on a repeat that the decode memo answers;
//! * **decode memo** — only exact bytes hit: trailing garbage after a
//!   memoized platform fails as on a cold thread, any other byte
//!   (a number, whitespace, key order) misses, and an invalid instance is
//!   rejected every time;
//! * **robustness** — arbitrary bytes through `handle_line` never panic
//!   and always produce exactly one well-formed response line;
//! * **regressions** — absurd nesting is an `invalid` error rather than a
//!   stack overflow, and invalid instances are rejected at decode with an
//!   `invalid` error naming the field.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rpwf_algo::{Objective, Provenance};
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::{FailureClass, Platform, PlatformClass, ProcId};
use rpwf_core::stage::Pipeline;
use rpwf_server::protocol::{Meta, TraceContext, WireError};
use rpwf_server::{Command, Request, Response, ServiceConfig, SolverService};
use serde::{Deserialize, Value};
use std::time::Instant;

fn service() -> SolverService {
    SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 64,
        cache_shards: 2,
        seed: 7,
        solver_threads: 1,
        node_id: None,
    })
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

fn flag(rng: &mut TestRng) -> Option<bool> {
    match rng.below(3) {
        0 => None,
        1 => Some(false),
        _ => Some(true),
    }
}

fn number(rng: &mut TestRng) -> f64 {
    match rng.below(6) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.below(1000) as f64,
        3 => rng.unit_f64() * 1e6,
        4 => (rng.unit_f64() - 0.5) * 1e-3,
        _ => f64::from_bits(rng.next_u64() >> 2),
    }
}

fn instance(rng: &mut TestRng) -> (rpwf_core::stage::Pipeline, rpwf_core::platform::Platform) {
    let class = *pick(
        rng,
        &[
            PlatformClass::FullyHomogeneous,
            PlatformClass::CommHomogeneous,
            PlatformClass::FullyHeterogeneous,
        ],
    );
    let failure = *pick(
        rng,
        &[FailureClass::Homogeneous, FailureClass::Heterogeneous],
    );
    let n = 1 + rng.below(3) as usize;
    let m = 2 + rng.below(2) as usize;
    let inst = rpwf_gen::make_instance(class, failure, n, m, rng.next_u64());
    (inst.pipeline, inst.platform)
}

fn objective(rng: &mut TestRng) -> Objective {
    if rng.below(2) == 0 {
        Objective::MinFpUnderLatency(number(rng))
    } else {
        Objective::MinLatencyUnderFp(rng.unit_f64())
    }
}

/// A random request covering every command shape.
fn request(rng: &mut TestRng) -> Request {
    let cmd = match rng.below(11) {
        0 => Command::Ping,
        1 => Command::Stats,
        2 => Command::Metrics,
        3 => Command::Ring,
        4 => Command::Trace {
            limit: (rng.below(2) == 0).then(|| rng.below(100) as usize),
        },
        5 => Command::Gen {
            class: pick(rng, &["fh", "ch", "het"]).to_string(),
            failure: pick(rng, &["hom", "het"]).to_string(),
            n: rng.below(10) as usize,
            m: rng.below(10) as usize,
            seed: rng.next_u64(),
        },
        6 => {
            let (pipeline, platform) = instance(rng);
            Command::Pareto {
                pipeline,
                platform,
                chunk: (rng.below(2) == 0).then(|| rng.below(5) as usize),
            }
        }
        7 => {
            let (pipeline, platform) = instance(rng);
            Command::Simulate {
                pipeline,
                platform,
                trials: (rng.below(2) == 0).then(|| rng.below(1000) as usize),
            }
        }
        8 => {
            let (pipeline, platform) = instance(rng);
            let mut front = ParetoFront::new();
            let n = pipeline.n_stages();
            let m = platform.n_procs();
            let mapping = IntervalMapping::single_interval(n, vec![ProcId(0)], m).expect("valid");
            front.insert(number(rng).abs(), rng.unit_f64(), mapping);
            Command::CacheFill {
                pipeline,
                platform,
                front,
                complete: rng.below(2) == 0,
                solver: *pick(rng, &[Provenance::Exact, Provenance::Heuristic]),
                exact_capable: rng.below(2) == 0,
            }
        }
        9 => {
            let (pipeline, platform) = instance(rng);
            let objective = objective(rng);
            Command::Explain {
                pipeline,
                platform,
                objective,
            }
        }
        _ => {
            let (pipeline, platform) = instance(rng);
            let objective = objective(rng);
            Command::Solve {
                pipeline,
                platform,
                objective,
            }
        }
    };
    Request {
        id: (rng.below(4) != 0).then(|| rng.next_u64() >> rng.below(64)),
        deadline_ms: (rng.below(2) == 0).then(|| rng.below(100_000)),
        no_cache: flag(rng),
        hop: flag(rng),
        trace: flag(rng),
        trace_ctx: (rng.below(3) == 0).then(|| TraceContext {
            id: rng.next_u64(),
            parent: rng.below(64) as u32,
        }),
        explain: flag(rng),
        cmd,
    }
}

fn text(rng: &mut TestRng) -> String {
    pick(
        rng,
        &[
            "",
            "ok",
            "a\"b",
            "tab\there",
            "line\nbreak",
            "\u{e9}t\u{e9}",
            "\\",
            "\u{1}",
        ],
    )
    .to_string()
}

/// A random value tree (the shape of `Response.result`).
fn value(rng: &mut TestRng, depth: u32) -> Value {
    let leaf = depth == 0 || rng.below(3) == 0;
    match if leaf { rng.below(6) } else { 6 + rng.below(2) } {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(rng.next_u64() as i64 >> rng.below(64)),
        3 => Value::UInt(u64::MAX - rng.below(1000)),
        4 => Value::Float(number(rng)),
        5 => Value::Str(text(rng)),
        6 => Value::Seq((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        _ => Value::Map(
            (0..rng.below(4))
                .map(|i| (format!("k{i}"), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A random synthetic response (every optional field exercised).
fn response(rng: &mut TestRng) -> Response {
    let meta = Meta {
        cache_hit: rng.below(2) == 0,
        solver: match rng.below(3) {
            0 => None,
            1 => Some(Provenance::Exact),
            _ => Some(Provenance::Heuristic),
        },
        exact_complete: flag(rng),
        elapsed_us: rng.next_u64() >> 20,
        node: (rng.below(2) == 0).then(|| "127.0.0.1:7000".to_string()),
        trace: None,
        explain: None,
    };
    Response {
        id: (rng.below(4) != 0).then(|| rng.next_u64()),
        status: pick(rng, &["ok", "error", "part"]).to_string(),
        result: (rng.below(3) != 0).then(|| value(rng, 3)),
        error: (rng.below(2) == 0).then(|| WireError {
            kind: pick(rng, &["invalid", "timeout", "overloaded"]).to_string(),
            message: text(rng),
            retry_after_ms: (rng.below(2) == 0).then(|| rng.below(5000)),
            bound: None,
        }),
        meta,
    }
}

/// Real response lines from a service: fronts, streamed parts, traces,
/// explanations, counters and errors.
fn served_response_lines() -> Vec<String> {
    let svc = service();
    let pipeline = rpwf_gen::figure5_pipeline();
    let platform = rpwf_gen::figure5_platform();
    let solve = |id: u64, bound: f64, trace: bool, explain: bool| Request {
        id: Some(id),
        deadline_ms: Some(5_000),
        no_cache: None,
        hop: None,
        trace: Some(trace),
        trace_ctx: None,
        explain: Some(explain),
        cmd: Command::Solve {
            pipeline: pipeline.clone(),
            platform: platform.clone(),
            objective: Objective::MinFpUnderLatency(bound),
        },
    };
    let mut requests = vec![
        solve(1, 22.0, true, false),
        solve(2, 0.5, false, true),
        solve(3, 30.0, false, false),
    ];
    requests.extend(
        [
            Command::Pareto {
                pipeline: pipeline.clone(),
                platform: platform.clone(),
                chunk: Some(2),
            },
            Command::Stats,
            Command::Metrics,
            Command::Ring,
            Command::Trace { limit: None },
            Command::Gen {
                class: "het".into(),
                failure: "het".into(),
                n: 2,
                m: 2,
                seed: 3,
            },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, cmd)| Request {
            id: Some(10 + i as u64),
            deadline_ms: None,
            no_cache: None,
            hop: None,
            trace: None,
            trace_ctx: None,
            explain: None,
            cmd,
        }),
    );
    let mut lines = Vec::new();
    for request in requests {
        svc.handle_request_into(request, Instant::now(), None, &mut |resp| {
            lines.push(resp.to_line());
        });
    }
    lines.push(svc.handle_line("{broken", Instant::now()));
    lines
}

/// Small JSON values spliced in by the key mutation.
const SPLICES: &[&str] = &[
    "null",
    "1",
    "5.0",
    "-0",
    "1e999",
    "\"x\"",
    "[]",
    "{}",
    "true",
    "[null]",
    "{\"a\":1}",
];

/// Keys the splice mutation inserts: most exist somewhere in the
/// generated lines (duplicates), `zzz` never does (unknown key).
const KEYS: &[&str] = &[
    "id",
    "cmd",
    "hop",
    "trace",
    "deadline_ms",
    "pipeline",
    "platform",
    "works",
    "deltas",
    "speeds",
    "failure_probs",
    "bandwidths",
    "objective",
    "status",
    "result",
    "error",
    "meta",
    "cache_hit",
    "elapsed_us",
    "kind",
    "limit",
    "Solve",
    "Ping",
    "zzz",
];

/// Bytes the point mutations write: JSON structure, number and literal
/// characters, and a stray non-ASCII letter.
const BYTES: &[u8] = b"{}[],:\"\\ 0159.-+eEntf\n";

/// One random mutation of `line`: byte flip, insertion, deletion,
/// truncation, an integer rewritten as a float, or a key splice that
/// duplicates a field (before or after the original) or adds an unknown
/// one.
fn mutate(rng: &mut TestRng, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let len = bytes.len().max(1) as u64;
    match rng.below(6) {
        0 if !bytes.is_empty() => {
            let at = rng.below(len) as usize;
            bytes[at] = *pick(rng, BYTES);
        }
        1 => {
            let at = rng.below(len + 1) as usize;
            bytes.insert(at.min(bytes.len()), *pick(rng, BYTES));
        }
        2 if !bytes.is_empty() => {
            bytes.remove(rng.below(len) as usize);
        }
        3 => bytes.truncate(rng.below(len) as usize),
        4 => {
            // The first integer token at or after a random offset gets a
            // `.0`: `5` and `5.0` must decode alike into integer fields.
            let from = rng.below(len) as usize;
            let mut i = from;
            while i < bytes.len() {
                if bytes[i].is_ascii_digit() && i > 0 && b":,[".contains(&bytes[i - 1]) {
                    let mut end = i;
                    while end < bytes.len() && bytes[end].is_ascii_digit() {
                        end += 1;
                    }
                    if end < bytes.len() && b",}]".contains(&bytes[end]) {
                        bytes.splice(end..end, *b".0");
                        break;
                    }
                }
                i += 1;
            }
        }
        _ => {
            let opens: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'{').collect();
            if !opens.is_empty() {
                let at = *pick(rng, &opens) + 1;
                let splice = format!("\"{}\":{},", pick(rng, KEYS), pick(rng, SPLICES));
                if rng.below(2) == 0 || bytes.get(at) == Some(&b'}') {
                    bytes.splice(at..at, splice.into_bytes());
                } else {
                    // After the object's last entry instead: the splice
                    // becomes the later duplicate.
                    let mut depth = 0usize;
                    let mut close = at;
                    let mut in_str = false;
                    while close < bytes.len() {
                        match bytes[close] {
                            b'\\' if in_str => close += 1,
                            b'"' => in_str = !in_str,
                            b'{' | b'[' if !in_str => depth += 1,
                            b'}' | b']' if !in_str => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            _ => {}
                        }
                        close += 1;
                    }
                    let tail = format!(",{}", splice.trim_end_matches(','));
                    bytes.splice(
                        close.min(bytes.len())..close.min(bytes.len()),
                        tail.into_bytes(),
                    );
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `from_str` and `value_from_str` + `from_value` agree on `line`, and a
/// repeat `from_str` (which the decode memo answers for every pipeline
/// and platform the first one stored) gives exactly the first result,
/// errors and their byte offsets included.
fn assert_agree<T: for<'de> Deserialize<'de> + std::fmt::Debug>(line: &str) {
    let typed = serde_json::from_str::<T>(line);
    let reference = serde_json::value_from_str(line)
        .and_then(|tree| T::from_value(&tree).map_err(serde_json::Error::from));
    match (&typed, &reference) {
        (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "decoded {line}"),
        (Err(_), Err(_)) => {}
        _ => panic!("decoders disagree on {line:?}: one pass {typed:?}, reference {reference:?}"),
    }
    let repeat = serde_json::from_str::<T>(line);
    assert_eq!(
        format!("{typed:?}"),
        format!("{repeat:?}"),
        "a repeat decode of {line:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn requests_decode_like_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let line = serde_json::to_string(&request(&mut rng)).expect("serializes");
        assert_agree::<Request>(&line);
        let mut mutated = line;
        for _ in 0..8 {
            mutated = mutate(&mut rng, &mutated);
            assert_agree::<Request>(&mutated);
        }
    }

    #[test]
    fn responses_decode_like_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let line = serde_json::to_string(&response(&mut rng)).expect("serializes");
        assert_agree::<Response>(&line);
        let mut mutated = line;
        for _ in 0..8 {
            mutated = mutate(&mut rng, &mutated);
            assert_agree::<Response>(&mutated);
        }
    }
}

#[test]
fn served_responses_decode_like_the_reference() {
    let lines = served_response_lines();
    let mut rng = TestRng::deterministic("served_responses_decode_like_the_reference");
    for line in &lines {
        assert_agree::<Response>(line);
        for _ in 0..40 {
            assert_agree::<Response>(&mutate(&mut rng, line));
        }
    }
}

#[test]
fn duplicate_keys_unknown_keys_and_integral_floats_decode_like_the_reference() {
    let line = r#"{"id":5.0,"cmd":"Ping","id":7,"zzz":[1,{"a":null}],"hop":true,"hop":"no"}"#;
    assert_agree::<Request>(line);
    let request: Request = serde_json::from_str(line).expect("decodes");
    assert_eq!(request.id, Some(5), "the first of duplicate keys wins");
    assert_eq!(request.hop, Some(true));
    // A malformed value under an unknown key still fails the line.
    assert!(serde_json::from_str::<Request>(r#"{"cmd":"Ping","zzz":[1,]}"#).is_err());
    assert_agree::<Request>(r#"{"cmd":{"Trace":7}}"#);
    assert_agree::<Request>(r#"{"cmd":{"Ping":null}}"#);
    assert_agree::<Request>(r#"{"cmd":{"Trace":{},"Ping":null}}"#);
}

/// Printable-ASCII-heavy random bytes with JSON structure characters.
fn random_line(rng: &mut TestRng) -> String {
    let len = rng.below(120) as usize;
    let bytes: Vec<u8> = (0..len)
        .map(|_| match rng.below(4) {
            0 => *pick(rng, BYTES),
            1 => *pick(rng, b"\"id\":1,\"cmd\":\"Ping\"{}"),
            2 => 0x20 + rng.below(0x5f) as u8,
            _ => rng.next_u64() as u8,
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

fn assert_one_response_line(svc: &SolverService, line: &str) {
    let out = svc.handle_line(line, Instant::now());
    assert!(!out.contains('\n'), "one line for {line:?}, got {out}");
    let resp: Response = serde_json::from_str(&out).expect("well-formed response line");
    assert!(
        resp.status == "ok" || resp.status == "error",
        "{line:?} -> {out}"
    );
}

#[test]
fn arbitrary_bytes_get_exactly_one_well_formed_response_line() {
    let svc = service();
    let mut rng = TestRng::deterministic("arbitrary_bytes");
    for _ in 0..400 {
        assert_one_response_line(&svc, &random_line(&mut rng));
    }
    // Mutations of requests the service really answers (cheap commands
    // and tiny instances; no chunked streams, which answer in parts).
    let seeds: Vec<String> = (0..24)
        .map(|i| {
            let mut request = request(&mut rng);
            request.trace_ctx = None;
            request.hop = None;
            if matches!(
                request.cmd,
                Command::Pareto { .. } | Command::Simulate { .. } | Command::Gen { .. }
            ) {
                request.cmd = if i % 2 == 0 {
                    Command::Ping
                } else {
                    Command::Stats
                };
            }
            serde_json::to_string(&request).expect("serializes")
        })
        .collect();
    for line in &seeds {
        assert_one_response_line(&svc, line);
        let mut mutated = line.clone();
        for _ in 0..6 {
            mutated = mutate(&mut rng, &mutated);
            if !mutated.contains("chunk") {
                assert_one_response_line(&svc, &mutated);
            }
        }
    }
}

fn error_of(svc: &SolverService, line: &str) -> WireError {
    let out = svc.handle_line(line, Instant::now());
    let resp: Response = serde_json::from_str(&out).expect("well-formed response line");
    assert_eq!(resp.status, "error", "{out}");
    resp.error.expect("error payload")
}

#[test]
fn a_100_kb_line_of_brackets_is_invalid_not_an_abort() {
    let svc = service();
    let brackets = "[".repeat(100 * 1024);
    assert_eq!(error_of(&svc, &brackets).kind, "invalid");
    // Under a key the decoder skips, the nesting itself is what fails.
    let skipped = format!("{{\"id\":1,\"cmd\":\"Ping\",\"pad\":{brackets}");
    let error = error_of(&svc, &skipped);
    assert_eq!(error.kind, "invalid");
    assert!(error.message.contains("nesting"), "{}", error.message);
}

/// A valid two-processor solve line, edited through `edit` on its
/// platform object before encoding.
fn solve_line_with(edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
    let inst = rpwf_gen::make_instance(
        PlatformClass::FullyHeterogeneous,
        FailureClass::Heterogeneous,
        3,
        2,
        5,
    );
    let request = Request {
        id: Some(1),
        deadline_ms: None,
        no_cache: None,
        hop: None,
        trace: None,
        trace_ctx: None,
        explain: None,
        cmd: Command::Solve {
            pipeline: inst.pipeline,
            platform: inst.platform,
            objective: Objective::MinFpUnderLatency(1e9),
        },
    };
    let mut tree = serde::Serialize::to_value(&request);
    let Value::Map(top) = &mut tree else {
        panic!("request is an object")
    };
    let cmd = &mut top.iter_mut().find(|(k, _)| k == "cmd").expect("cmd").1;
    let Value::Map(variant) = cmd else {
        panic!("Solve is keyed")
    };
    let Value::Map(solve) = &mut variant[0].1 else {
        panic!("Solve payload")
    };
    let platform = &mut solve
        .iter_mut()
        .find(|(k, _)| k == "platform")
        .expect("platform")
        .1;
    let Value::Map(platform) = platform else {
        panic!("platform object")
    };
    edit(platform);
    serde_json::to_string(&tree).expect("serializes")
}

fn set(platform: &mut [(String, Value)], key: &str, value: Value) {
    platform
        .iter_mut()
        .find(|(k, _)| k == key)
        .expect("field")
        .1 = value;
}

#[test]
fn invalid_instances_are_rejected_at_decode_naming_the_field() {
    let svc = service();
    let valid = solve_line_with(|_| {});
    let out = svc.handle_line(&valid, Instant::now());
    assert!(out.contains("\"status\":\"ok\""), "{out}");

    // (what the message names, platform field, its invalid value)
    let cases = [
        (
            "speed",
            "speeds",
            Value::Seq(vec![Value::Int(-1), Value::Int(1)]),
        ),
        (
            "failure probability",
            "failure_probs",
            Value::Seq(vec![Value::Float(1.5), Value::Float(0.1)]),
        ),
        (
            "failure_probs",
            "failure_probs",
            Value::Seq(vec![Value::Float(0.1); 8]),
        ),
        (
            "bandwidths",
            "bandwidths",
            Value::Seq(vec![Value::Float(1.0); 15]),
        ),
    ];
    for (field, key, value) in cases {
        let line = solve_line_with(|p| set(p, key, value));
        let error = error_of(&svc, &line);
        assert_eq!(error.kind, "invalid", "{line}");
        assert!(
            error.message.contains(field),
            "the message names `{field}`: {}",
            error.message
        );
    }
}

#[test]
fn non_finite_numbers_decode_to_infinity_and_validation_rejects_them() {
    let svc = service();
    // `1e999` is +∞ like the reference parse; as a speed it is invalid.
    let line = solve_line_with(|p| {
        set(p, "speeds", Value::Seq(vec![Value::Int(1), Value::Int(1)]));
    })
    .replacen("\"speeds\":[1,1]", "\"speeds\":[1e999,1]", 1);
    let error = error_of(&svc, &line);
    assert_eq!(error.kind, "invalid");
    assert!(error.message.contains("speed"), "{}", error.message);
    // As a bandwidth it is a free link, exactly like `null`.
    let with_null = solve_line_with(|_| {});
    let with_inf = with_null.replacen("\"bandwidths\":[null", "\"bandwidths\":[1e999", 1);
    assert_ne!(with_inf, with_null);
    let a: Request = serde_json::from_str(&with_null).expect("decodes");
    let b: Request = serde_json::from_str(&with_inf).expect("decodes");
    assert_eq!(a.cmd.front_key(), b.cmd.front_key());
}

/// The instance of [`solve_line_with`] and the wire text of its platform.
fn instance_texts() -> (Pipeline, Platform, String) {
    let inst = rpwf_gen::make_instance(
        PlatformClass::FullyHeterogeneous,
        FailureClass::Heterogeneous,
        3,
        2,
        5,
    );
    let text = serde_json::to_string(&inst.platform).expect("serializes");
    (inst.pipeline, inst.platform, text)
}

/// `line` decoded on a new thread, whose decode memo is empty.
fn cold_decode<T>(line: &str) -> serde_json::Result<T>
where
    T: for<'de> Deserialize<'de> + Send + 'static,
{
    let line = line.to_owned();
    std::thread::spawn(move || serde_json::from_str::<T>(&line))
        .join()
        .expect("decode thread")
}

#[test]
fn trailing_garbage_after_a_memoized_platform_fails_like_a_cold_decode() {
    let (_, platform, text) = instance_texts();
    let line = solve_line_with(|_| {});
    let at = line
        .find(&text)
        .expect("the platform's text is in the line")
        + text.len();
    let mut broken_line = line.clone();
    broken_line.insert(at, 'x');
    let broken_platform = format!("{text}x");
    let cold_line = cold_decode::<Request>(&broken_line).unwrap_err();
    let cold_platform = cold_decode::<Platform>(&broken_platform).unwrap_err();
    assert!(
        cold_line.to_string().ends_with(&format!("at byte {at}")),
        "{cold_line}"
    );
    assert!(
        cold_platform
            .to_string()
            .ends_with(&format!("at byte {}", text.len())),
        "{cold_platform}"
    );

    // Memoize the platform at both depths, then hit it.
    assert_eq!(serde_json::from_str::<Platform>(&text), Ok(platform));
    assert!(serde_json::from_str::<Request>(&line).is_ok());
    let before = rpwf_core::memo::counts().hits;
    assert_eq!(
        serde_json::from_str::<Request>(&broken_line).unwrap_err(),
        cold_line
    );
    assert_eq!(
        serde_json::from_str::<Platform>(&broken_platform).unwrap_err(),
        cold_platform
    );
    assert!(rpwf_core::memo::counts().hits >= before + 3);
}

#[test]
fn a_platform_differing_only_in_its_last_number_decodes_its_own_value() {
    let (_, platform, text) = instance_texts();
    assert_eq!(
        serde_json::from_str::<Platform>(&text),
        Ok(platform.clone())
    );
    // The last digit of the last number, changed: same length, so only
    // a full comparison tells the two apart.
    let at = text.rfind(|c: char| c.is_ascii_digit()).expect("a number");
    let digit = if &text[at..=at] == "1" { "2" } else { "1" };
    let edited = format!("{}{digit}{}", &text[..at], &text[at + 1..]);
    assert_eq!(edited.len(), text.len());
    let reference = Platform::from_value(&serde_json::value_from_str(&edited).expect("parses"))
        .expect("still valid");
    let misses = rpwf_core::memo::counts().misses;
    let decoded: Platform = serde_json::from_str(&edited).expect("decodes");
    assert!(rpwf_core::memo::counts().misses > misses);
    assert_eq!(decoded, reference);
    assert_ne!(decoded, platform);
}

#[test]
fn other_whitespace_or_key_order_misses_and_decodes_the_same_value() {
    let (pipeline, platform, text) = instance_texts();
    let pipeline_text = serde_json::to_string(&pipeline).expect("serializes");
    assert_eq!(
        serde_json::from_str::<Platform>(&text),
        Ok(platform.clone())
    );
    assert_eq!(
        serde_json::from_str::<Pipeline>(&pipeline_text),
        Ok(pipeline.clone())
    );
    let reordered = |value: Value| {
        let Value::Map(mut entries) = value else {
            panic!("an object")
        };
        entries.reverse();
        serde_json::to_string(&Value::Map(entries)).expect("serializes")
    };
    let platforms = [
        serde_json::to_string_pretty(&platform).expect("serializes"),
        text.replacen(',', ", ", 1),
        reordered(serde::Serialize::to_value(&platform)),
    ];
    for variant in &platforms {
        assert_ne!(*variant, text);
        let misses = rpwf_core::memo::counts().misses;
        assert_eq!(
            serde_json::from_str::<Platform>(variant),
            Ok(platform.clone())
        );
        assert!(rpwf_core::memo::counts().misses > misses, "{variant}");
    }
    let pipelines = [
        serde_json::to_string_pretty(&pipeline).expect("serializes"),
        reordered(serde::Serialize::to_value(&pipeline)),
    ];
    for variant in &pipelines {
        assert_ne!(*variant, pipeline_text);
        assert_eq!(
            serde_json::from_str::<Pipeline>(variant),
            Ok(pipeline.clone())
        );
    }
}

#[test]
fn an_invalid_instance_is_rejected_on_every_decode() {
    let svc = service();
    let line = solve_line_with(|p| {
        set(p, "speeds", Value::Seq(vec![Value::Int(-1), Value::Int(1)]));
    });
    let first = serde_json::from_str::<Request>(&line).unwrap_err();
    assert!(first.to_string().contains("speed"), "{first}");
    for _ in 0..3 {
        let misses = rpwf_core::memo::counts().misses;
        assert_eq!(serde_json::from_str::<Request>(&line).unwrap_err(), first);
        assert!(rpwf_core::memo::counts().misses > misses);
        assert_eq!(error_of(&svc, &line).kind, "invalid");
    }
}
