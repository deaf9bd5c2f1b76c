//! The `rpwf` command-line tool: generate instances, solve them, print
//! Pareto fronts, and validate mappings by simulation — all over JSON
//! instance files.
//!
//! ```text
//! rpwf gen   --class ch --failure het -n 4 -m 6 --seed 7   # instance JSON to stdout
//! rpwf solve inst.json --min-fp-under-latency 22
//! rpwf solve inst.json --min-latency-under-fp 0.2
//! rpwf pareto inst.json
//! rpwf simulate inst.json --trials 20000
//! rpwf serve --addr 127.0.0.1:7077 --workers 8             # JSON-lines server
//! rpwf serve --stdin                                       # serve stdin/stdout
//! rpwf batch requests.jsonl --workers 8                    # one response per line
//! ```
//!
//! Parsing and execution are plain functions so the logic is unit-tested;
//! `src/bin/rpwf.rs` is a thin wrapper.

use rpwf_algo::engine::{Engine, SolveRequest, Want};
use rpwf_algo::explain::{self, EngineOracle};
use rpwf_algo::{Objective, Provenance};
use rpwf_core::budget::Budget;
use rpwf_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Seed shared with the server's default [`Engine`] so CLI answers match
/// served answers on identical instances.
const ENGINE_SEED: u64 = 0xCAFE;

/// A problem instance on disk.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InstanceFile {
    /// The application.
    pub pipeline: Pipeline,
    /// The platform.
    pub platform: Platform,
}

impl InstanceFile {
    /// Parses (and validates) the JSON representation.
    ///
    /// # Errors
    /// A human-readable message for malformed JSON or invalid instances.
    pub fn from_json(text: &str) -> std::result::Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid instance JSON: {e}"))
    }

    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("model types always serialize")
    }
}

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate a random instance to stdout.
    Gen {
        /// Platform class tag (`fh`, `ch`, `het`).
        class: PlatformClass,
        /// Failure class tag (`hom`, `het`).
        failure: FailureClass,
        /// Stages.
        n: usize,
        /// Processors.
        m: usize,
        /// Seed.
        seed: u64,
    },
    /// Solve a threshold problem for an instance file.
    Solve {
        /// Path to the instance JSON.
        path: String,
        /// The threshold objective.
        objective: Objective,
        /// Worker threads for the exact search (1 = sequential,
        /// 0 = available parallelism). Answers are byte-identical at
        /// every thread count.
        solver_threads: usize,
    },
    /// Explain why a threshold problem is infeasible (MUS/MCS
    /// enumeration plus the nearest-feasible what-if).
    Explain {
        /// Path to the instance JSON.
        path: String,
        /// The threshold objective to explain.
        objective: Objective,
        /// Worker threads for the exact search (1 = sequential,
        /// 0 = available parallelism). Explanations are byte-identical
        /// at every thread count.
        solver_threads: usize,
    },
    /// Print the Pareto front of an instance file.
    Pareto {
        /// Path to the instance JSON.
        path: String,
        /// Worker threads for the exact search (1 = sequential,
        /// 0 = available parallelism). Fronts are byte-identical at
        /// every thread count.
        solver_threads: usize,
    },
    /// Monte Carlo validation of the min-FP mapping of an instance file.
    Simulate {
        /// Path to the instance JSON.
        path: String,
        /// Monte Carlo trials.
        trials: usize,
    },
    /// Run the JSON-lines solver service.
    Serve {
        /// Listen address (`host:port`; port 0 picks a free port).
        /// `None` serves stdin/stdout instead of TCP.
        addr: Option<String>,
        /// Worker threads (0 = available parallelism).
        workers: usize,
        /// Worker threads per exact branch-and-bound search
        /// (1 = sequential, 0 = available parallelism; the service caps
        /// the product `solver threads × pool workers` at the core
        /// count).
        solver_threads: usize,
        /// Solution-cache entries (0 disables).
        cache_capacity: usize,
        /// Fleet identity of this node — the `host:port` its peers dial.
        /// Required when `peers` is non-empty.
        node_id: Option<String>,
        /// Fleet peers (`host:port`). Non-empty switches the server into
        /// ring-sharded fleet mode.
        peers: Vec<String>,
        /// Virtual nodes per ring member (`None` = library default).
        vnodes: Option<usize>,
        /// Distinct owners per key (`None` = library default, 2). `1`
        /// disables front replication.
        replicas: Option<usize>,
        /// Peer connect timeout in milliseconds (`None` = library
        /// default, 500 ms).
        peer_connect_ms: Option<u64>,
        /// Read timeout for deadline-less forwarded requests in
        /// milliseconds (`None` = library default, 600 s watchdog).
        peer_read_ms: Option<u64>,
        /// Reactor event threads (0 = library default, 2).
        event_threads: usize,
        /// Solve-queue bound before requests are shed with `overloaded`
        /// (0 = library default, 1024).
        max_queue: usize,
        /// Default deadline the admission controller assumes for
        /// deadline-less requests, in milliseconds (`None` = shed only
        /// on the queue bound).
        admission_deadline_ms: Option<u64>,
    },
    /// Dump a running server's slow-query trace ring.
    Trace {
        /// Server address (`host:port`).
        addr: String,
        /// Maximum entries to list (server default when `None`).
        limit: Option<usize>,
    },
    /// Answer a file of JSON-lines requests concurrently, in input order.
    Batch {
        /// Path to the requests file (one JSON request per line).
        path: String,
        /// Worker threads (0 = available parallelism).
        workers: usize,
        /// Group requests by canonical instance hash and solve one Pareto
        /// front per distinct `(pipeline, platform)` (default). `false`
        /// solves every request independently.
        group: bool,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
rpwf — bi-criteria latency/reliability pipeline mapping (Benoit et al. 2008)

USAGE:
  rpwf gen --class <fh|ch|het> --failure <hom|het> -n <stages> -m <procs> [--seed <u64>]
  rpwf solve <instance.json> --min-fp-under-latency <L> [--solver-threads <n>]
  rpwf solve <instance.json> --min-latency-under-fp <F> [--solver-threads <n>]
  rpwf explain <instance.json> --min-fp-under-latency <L> [--solver-threads <n>]
  rpwf explain <instance.json> --min-latency-under-fp <F> [--solver-threads <n>]
  rpwf pareto <instance.json> [--solver-threads <n>]
  rpwf simulate <instance.json> [--trials <count>]
  rpwf serve [--addr <host:port>] [--stdin] [--workers <n>] [--solver-threads <n>]
             [--cache-capacity <n>] [--event-threads <n>] [--max-queue <n>]
             [--admission-deadline-ms <ms>]
  rpwf serve --addr <host:port> --node-id <host:port> --peers <host:port,...>
             [--vnodes <n>] [--replicas <r>] [--peer-connect-ms <ms>] [--peer-read-ms <ms>]
  rpwf batch <requests.jsonl> [--workers <n>] [--no-group]
  rpwf trace [--addr <host:port>] [--limit <n>]
  rpwf help

`explain` answers *why* a threshold query is infeasible: it enumerates
every minimal conflict (MUS) and minimal fix set (MCS) over the query's
constraint universe {bound, speed-limit, link-limit, platform-size} and
reports the nearest feasible bound as a what-if. On feasible queries it
simply says so. Explanations built from budget-cutoff fronts are
flagged best-effort, never minimal-proven.

The serve/batch protocol is JSON lines; see README.md for the schema.
`trace` dials a running server and prints its slow-query ring — the
span trees of the slowest recent requests that opted into tracing
(request flag \"trace\": true), slowest first.
`batch` groups requests by instance and solves one Pareto front per
distinct (pipeline, platform), answering every threshold query from it;
--no-group solves each request independently.

Fleet mode: with --peers, each instance is owned by --replicas nodes
(primary + ring successors) of the consistent-hash ring over
{--node-id} ∪ {--peers}; non-owned requests are forwarded to the
primary and fail over down the owner list, and complete fronts are
replicated to the successors so one node death loses no cached work.
--node-id must be the address the peers dial for this node.
--peer-connect-ms / --peer-read-ms bound how long a dead or wedged
peer is waited on (a per-peer circuit breaker skips known-dead peers).

Serving plane: --event-threads sizes the reactor's poll loops (0 = the
library default, 2); --max-queue bounds the solve queue (0 = default,
1024); both overload and (with --admission-deadline-ms as the assumed
deadline for deadline-less requests) unmeetable waits are shed fast
with a structured \"overloaded\" error carrying retry_after_ms.

--solver-threads runs each exact branch-and-bound search on a shared
worker pool (1 = sequential, 0 = one per core). Answers and fronts are
byte-identical at every thread count; threads only buy wall-clock time
and a larger exactly-solvable instance size. The server additionally
caps solver threads so that solver threads x pool workers never
exceeds the machine's cores.
";

/// Parses command-line arguments (without the program name).
///
/// # Errors
/// A usage message describing the problem.
pub fn parse_args(args: &[String]) -> std::result::Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let mut opts: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut positional: Vec<String> = Vec::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if let Some(key) = a.strip_prefix("--") {
            // Boolean flags take no value.
            if key == "stdin" || key == "no-group" {
                opts.insert(key.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = rest
                .get(i + 1)
                .ok_or_else(|| format!("missing value for --{key}"))?;
            opts.insert(key.to_string(), (*value).clone());
            i += 2;
        } else if let Some(key) = a.strip_prefix('-') {
            let value = rest
                .get(i + 1)
                .ok_or_else(|| format!("missing value for -{key}"))?;
            opts.insert(key.to_string(), (*value).clone());
            i += 2;
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    let get_num = |opts: &std::collections::HashMap<String, String>,
                   key: &str|
     -> std::result::Result<f64, String> {
        opts.get(key)
            .ok_or_else(|| format!("missing --{key}"))?
            .parse::<f64>()
            .map_err(|e| format!("--{key}: {e}"))
    };
    // `--solver-threads` defaults to 1 (sequential) everywhere; parallel
    // search is an explicit opt-in.
    let get_solver_threads =
        |opts: &std::collections::HashMap<String, String>| -> std::result::Result<usize, String> {
            opts.get("solver-threads").map_or(Ok(1), |s| {
                s.parse::<usize>()
                    .map_err(|e| format!("--solver-threads: {e}"))
            })
        };

    match cmd.as_str() {
        "gen" => {
            let class = match opts.get("class").map(String::as_str) {
                Some("fh") => PlatformClass::FullyHomogeneous,
                Some("ch") => PlatformClass::CommHomogeneous,
                Some("het") => PlatformClass::FullyHeterogeneous,
                other => return Err(format!("--class must be fh|ch|het, got {other:?}")),
            };
            let failure = match opts.get("failure").map(String::as_str) {
                Some("hom") => FailureClass::Homogeneous,
                Some("het") => FailureClass::Heterogeneous,
                other => return Err(format!("--failure must be hom|het, got {other:?}")),
            };
            let n = get_num(&opts, "n")? as usize;
            let m = get_num(&opts, "m")? as usize;
            let seed = opts.get("seed").map_or(Ok(42), |s| {
                s.parse::<u64>().map_err(|e| format!("--seed: {e}"))
            })?;
            if n == 0 || m == 0 {
                return Err("-n and -m must be positive".into());
            }
            Ok(Command::Gen {
                class,
                failure,
                n,
                m,
                seed,
            })
        }
        "solve" => {
            let path = positional
                .first()
                .ok_or_else(|| "solve needs an instance file".to_string())?
                .clone();
            let objective = if opts.contains_key("min-fp-under-latency") {
                Objective::MinFpUnderLatency(get_num(&opts, "min-fp-under-latency")?)
            } else if opts.contains_key("min-latency-under-fp") {
                Objective::MinLatencyUnderFp(get_num(&opts, "min-latency-under-fp")?)
            } else {
                return Err("solve needs --min-fp-under-latency or --min-latency-under-fp".into());
            };
            let solver_threads = get_solver_threads(&opts)?;
            Ok(Command::Solve {
                path,
                objective,
                solver_threads,
            })
        }
        "explain" => {
            let path = positional
                .first()
                .ok_or_else(|| "explain needs an instance file".to_string())?
                .clone();
            let objective = if opts.contains_key("min-fp-under-latency") {
                Objective::MinFpUnderLatency(get_num(&opts, "min-fp-under-latency")?)
            } else if opts.contains_key("min-latency-under-fp") {
                Objective::MinLatencyUnderFp(get_num(&opts, "min-latency-under-fp")?)
            } else {
                return Err(
                    "explain needs --min-fp-under-latency or --min-latency-under-fp".into(),
                );
            };
            let solver_threads = get_solver_threads(&opts)?;
            Ok(Command::Explain {
                path,
                objective,
                solver_threads,
            })
        }
        "pareto" => {
            let path = positional
                .first()
                .ok_or_else(|| "pareto needs an instance file".to_string())?
                .clone();
            let solver_threads = get_solver_threads(&opts)?;
            Ok(Command::Pareto {
                path,
                solver_threads,
            })
        }
        "simulate" => {
            let path = positional
                .first()
                .ok_or_else(|| "simulate needs an instance file".to_string())?
                .clone();
            let trials = opts.get("trials").map_or(Ok(10_000), |s| {
                s.parse::<usize>().map_err(|e| format!("--trials: {e}"))
            })?;
            Ok(Command::Simulate { path, trials })
        }
        "serve" => {
            let stdin = opts.contains_key("stdin");
            let addr = opts.get("addr").cloned();
            if stdin && addr.is_some() {
                return Err("serve takes either --addr or --stdin, not both".into());
            }
            let addr = if stdin {
                None
            } else {
                Some(addr.unwrap_or_else(|| "127.0.0.1:7077".into()))
            };
            let workers = opts.get("workers").map_or(Ok(0), |s| {
                s.parse::<usize>().map_err(|e| format!("--workers: {e}"))
            })?;
            let solver_threads = get_solver_threads(&opts)?;
            let cache_capacity = opts.get("cache-capacity").map_or(Ok(4096), |s| {
                s.parse::<usize>()
                    .map_err(|e| format!("--cache-capacity: {e}"))
            })?;
            let node_id = opts.get("node-id").cloned();
            let peers: Vec<String> = opts
                .get("peers")
                .map(|list| {
                    list.split(',')
                        .map(str::trim)
                        .filter(|p| !p.is_empty())
                        .map(ToString::to_string)
                        .collect()
                })
                .unwrap_or_default();
            let vnodes = opts
                .get("vnodes")
                .map(|s| s.parse::<usize>().map_err(|e| format!("--vnodes: {e}")))
                .transpose()?;
            let replicas = opts
                .get("replicas")
                .map(|s| s.parse::<usize>().map_err(|e| format!("--replicas: {e}")))
                .transpose()?;
            if replicas == Some(0) {
                return Err("--replicas must be at least 1".into());
            }
            let peer_connect_ms = opts
                .get("peer-connect-ms")
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|e| format!("--peer-connect-ms: {e}"))
                })
                .transpose()?;
            let peer_read_ms = opts
                .get("peer-read-ms")
                .map(|s| s.parse::<u64>().map_err(|e| format!("--peer-read-ms: {e}")))
                .transpose()?;
            let event_threads = opts.get("event-threads").map_or(Ok(0), |s| {
                s.parse::<usize>()
                    .map_err(|e| format!("--event-threads: {e}"))
            })?;
            let max_queue = opts.get("max-queue").map_or(Ok(0), |s| {
                s.parse::<usize>().map_err(|e| format!("--max-queue: {e}"))
            })?;
            let admission_deadline_ms = opts
                .get("admission-deadline-ms")
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|e| format!("--admission-deadline-ms: {e}"))
                })
                .transpose()?;
            if !peers.is_empty() {
                if stdin {
                    return Err("fleet mode (--peers) needs a TCP address, not --stdin".into());
                }
                if node_id.is_none() {
                    return Err(
                        "fleet mode needs --node-id (the host:port peers dial for this node)"
                            .into(),
                    );
                }
            }
            Ok(Command::Serve {
                addr,
                workers,
                solver_threads,
                cache_capacity,
                node_id,
                peers,
                vnodes,
                replicas,
                peer_connect_ms,
                peer_read_ms,
                event_threads,
                max_queue,
                admission_deadline_ms,
            })
        }
        "trace" => {
            let addr = opts
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7077".into());
            let limit = opts
                .get("limit")
                .map(|s| s.parse::<usize>().map_err(|e| format!("--limit: {e}")))
                .transpose()?;
            Ok(Command::Trace { addr, limit })
        }
        "batch" => {
            let path = positional
                .first()
                .ok_or_else(|| "batch needs a requests file".to_string())?
                .clone();
            let workers = opts.get("workers").map_or(Ok(0), |s| {
                s.parse::<usize>().map_err(|e| format!("--workers: {e}"))
            })?;
            Ok(Command::Batch {
                path,
                workers,
                group: !opts.contains_key("no-group"),
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command: {other}\n{USAGE}")),
    }
}

/// Renders a solve provenance for terminal output.
fn provenance_label(provenance: Option<Provenance>) -> &'static str {
    match provenance {
        Some(Provenance::Exact) => "exact",
        Some(Provenance::Heuristic) => "heuristic",
        None => "none",
    }
}

/// A blocking one-shot exchange with an `rpwf serve` node: sends one
/// request line to `addr` and returns the one response line, waiting at
/// most `timeout` for it.
fn roundtrip(
    addr: &str,
    line: &str,
    timeout: std::time::Duration,
) -> std::result::Result<String, String> {
    use std::io::{BufRead, Write};
    let fail = |e: std::io::Error| format!("{addr}: {e}");
    let mut stream = std::net::TcpStream::connect(addr).map_err(fail)?;
    stream.set_read_timeout(Some(timeout)).map_err(fail)?;
    writeln!(stream, "{line}").map_err(fail)?;
    let mut response = String::new();
    match std::io::BufReader::new(stream).read_line(&mut response) {
        Ok(0) => Err(format!("{addr}: empty response")),
        Ok(_) => Ok(response),
        Err(e) => Err(fail(e)),
    }
}

/// Executes a parsed command against the filesystem, returning stdout text.
///
/// `Serve` with a TCP address never returns here — the binary handles it
/// (it must block on the listener); `Serve { addr: None }` runs the
/// stdin/stdout loop to completion.
///
/// # Errors
/// A human-readable message (bad file, infeasible instance, …).
pub fn run(command: &Command) -> std::result::Result<String, String> {
    use std::fmt::Write as _;
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Serve {
            addr: Some(addr), ..
        } => Err(format!(
            "serve --addr {addr} must be launched from the rpwf binary"
        )),
        Command::Serve {
            addr: None,
            workers,
            solver_threads,
            cache_capacity,
            ..
        } => {
            rpwf_server::serve_stdin(rpwf_server::ServiceConfig {
                workers: *workers,
                solver_threads: *solver_threads,
                cache_capacity: *cache_capacity,
                ..Default::default()
            });
            Ok(String::new())
        }
        Command::Trace { addr, limit } => {
            use rpwf_server::protocol::{
                Command as WireCommand, Request as WireRequest, Response as WireResponse,
                TraceResult,
            };
            use serde::Deserialize as _;
            let request = WireRequest {
                id: Some(1),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: WireCommand::Trace { limit: *limit },
            };
            let line = serde_json::to_string(&request).expect("requests always serialize");
            let response = roundtrip(addr, &line, std::time::Duration::from_secs(10))?;
            let response: WireResponse = serde_json::from_str(response.trim())
                .map_err(|e| format!("{addr}: bad response: {e}"))?;
            if response.status != "ok" {
                let detail = response
                    .error
                    .map_or_else(|| "unknown error".to_string(), |e| e.message);
                return Err(format!("{addr}: {detail}"));
            }
            let result = response
                .result
                .as_ref()
                .ok_or_else(|| format!("{addr}: response without result"))
                .and_then(|value| {
                    TraceResult::from_value(value)
                        .map_err(|e| format!("{addr}: bad trace payload: {e:?}"))
                })?;
            let mut out = String::new();
            writeln!(
                out,
                "slow-query ring at {addr}: {} of {} slots",
                result.entries.len(),
                result.capacity
            )
            .expect("write to string");
            for entry in &result.entries {
                let node = entry
                    .node
                    .as_deref()
                    .map_or_else(String::new, |n| format!("  node={n}"));
                writeln!(
                    out,
                    "\ntrace {:016x}  cmd={}  status={}  {}us{node}",
                    entry.id, entry.command, entry.status, entry.elapsed_us
                )
                .expect("write to string");
                let mut tree = String::new();
                entry.spans.render(&mut tree);
                for line in tree.lines() {
                    writeln!(out, "  {line}").expect("write to string");
                }
            }
            Ok(out)
        }
        Command::Batch {
            path,
            workers,
            group,
        } => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let lines: Vec<String> = text
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(ToString::to_string)
                .collect();
            let service = std::sync::Arc::new(rpwf_server::SolverService::new(
                rpwf_server::ServiceConfig {
                    workers: *workers,
                    ..Default::default()
                },
            ));
            let pool = rpwf_server::WorkerPool::new(service);
            let responses = if *group {
                pool.submit_batch(lines)
            } else {
                pool.submit_batch_ungrouped(lines)
            };
            let mut out = String::new();
            for response in responses {
                writeln!(out, "{response}").expect("write to string");
            }
            Ok(out)
        }
        Command::Gen {
            class,
            failure,
            n,
            m,
            seed,
        } => {
            let inst = rpwf_gen::make_instance(*class, *failure, *n, *m, *seed);
            Ok(InstanceFile {
                pipeline: inst.pipeline,
                platform: inst.platform,
            }
            .to_json())
        }
        Command::Solve {
            path,
            objective,
            solver_threads,
        } => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let inst = InstanceFile::from_json(&text)?;
            // One engine call: capability-driven backend selection,
            // exact-first with portfolio racing — the same plan the
            // server runs.
            let engine = Engine::with_parallel_backends(ENGINE_SEED, *solver_threads);
            let report = engine.solve(&SolveRequest {
                pipeline: &inst.pipeline,
                platform: &inst.platform,
                want: Want::Point {
                    objective: *objective,
                    keep_front: false,
                },
                budget: &Budget::unlimited(),
            });
            let Some(sol) = report.point() else {
                return Err(if report.completeness.exact_complete {
                    format!(
                        "infeasible: no mapping satisfies {objective:?} \
                         (run `rpwf explain` to see why)"
                    )
                } else {
                    format!(
                        "infeasible: no feasible solution found for {objective:?} \
                         (heuristic search; not a proof of infeasibility — \
                         run `rpwf explain` to see why)"
                    )
                });
            };
            let mut out = String::new();
            writeln!(
                out,
                "solver   : {} ({})",
                provenance_label(report.provenance),
                if report.completeness.exact_complete {
                    "proven optimal"
                } else {
                    "best effort"
                }
            )
            .expect("write to string");
            writeln!(out, "mapping  : {}", sol.mapping).expect("write to string");
            writeln!(out, "latency  : {:.6}", sol.latency).expect("write to string");
            writeln!(out, "FP       : {:.6}", sol.failure_prob).expect("write to string");
            Ok(out)
        }
        Command::Explain {
            path,
            objective,
            solver_threads,
        } => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let inst = InstanceFile::from_json(&text)?;
            // The same MARCO enumeration the server runs, over the same
            // engine front solves, so CLI and served explanations match.
            let engine = Engine::with_parallel_backends(ENGINE_SEED, *solver_threads);
            let explanation = explain::explain(
                &inst.pipeline,
                &inst.platform,
                *objective,
                &mut EngineOracle::new(&engine, &Budget::unlimited()),
            );
            let mut out = String::new();
            if explanation.feasible {
                writeln!(
                    out,
                    "feasible : yes — {objective:?} is satisfiable; nothing to explain"
                )
                .expect("write to string");
                return Ok(out);
            }
            writeln!(
                out,
                "feasible : no ({})",
                if explanation.proven {
                    "proven — conflicts are minimal"
                } else {
                    "best effort — cutoff fronts; conflicts are candidates, not proven minimal"
                }
            )
            .expect("write to string");
            writeln!(out, "universe :").expect("write to string");
            for (i, constraint) in explanation.universe.iter().enumerate() {
                writeln!(
                    out,
                    "  [{i}] {:<13} {}",
                    constraint.label, constraint.detail
                )
                .expect("write to string");
            }
            let members = |indices: &[usize]| {
                indices
                    .iter()
                    .map(|&i| explanation.universe[i].label)
                    .collect::<Vec<_>>()
                    .join(" + ")
            };
            for mus in &explanation.muses {
                writeln!(out, "conflict : {{{}}} cannot hold together", members(mus))
                    .expect("write to string");
            }
            for mcs in &explanation.mcses {
                writeln!(out, "fix      : relax {{{}}}", members(mcs)).expect("write to string");
            }
            if let Some(relaxation) = explanation.relaxation {
                match relaxation.nearest {
                    Some(pt) => writeln!(
                        out,
                        "what-if  : nearest feasible {} — latency {:.6}, FP {:.6}{}",
                        relaxation.axis,
                        pt.latency,
                        pt.failure_prob,
                        if relaxation.proven {
                            ""
                        } else {
                            " (best effort)"
                        }
                    ),
                    None => writeln!(
                        out,
                        "what-if  : no feasible point at any {} bound",
                        relaxation.axis
                    ),
                }
                .expect("write to string");
            }
            writeln!(
                out,
                "oracle   : {} front solves ({} cached)",
                explanation.oracle_calls, explanation.oracle_cached
            )
            .expect("write to string");
            Ok(out)
        }
        Command::Pareto {
            path,
            solver_threads,
        } => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let inst = InstanceFile::from_json(&text)?;
            // Front-first through the engine: the strongest exact front
            // backend where one applies, the heuristic portfolio front
            // beyond — every instance gets an answer, flagged by
            // completeness.
            let engine = Engine::with_parallel_backends(ENGINE_SEED, *solver_threads);
            let report = engine.solve(&SolveRequest {
                pipeline: &inst.pipeline,
                platform: &inst.platform,
                want: Want::Front,
                budget: &Budget::unlimited(),
            });
            let complete = report.completeness.exact_complete;
            let front = report
                .front_answer()
                .expect("front request yields a front")
                .clone();
            let mut out = String::new();
            writeln!(
                out,
                "solver   : {} ({})",
                provenance_label(report.provenance),
                if complete {
                    "exact front"
                } else {
                    "sound under-approximation"
                }
            )
            .expect("write to string");
            writeln!(out, "{:>12}  {:>12}  mapping", "latency", "FP").expect("write to string");
            for pt in front.iter() {
                writeln!(
                    out,
                    "{:>12.4}  {:>12.6}  {}",
                    pt.latency, pt.failure_prob, pt.payload
                )
                .expect("write to string");
            }
            Ok(out)
        }
        Command::Simulate { path, trials } => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let inst = InstanceFile::from_json(&text)?;
            let safest = rpwf_algo::mono::minimize_failure(&inst.pipeline, &inst.platform);
            let mc = rpwf_sim::MonteCarlo {
                trials: *trials,
                ..Default::default()
            };
            let report = mc.run(&inst.pipeline, &inst.platform, &safest.mapping);
            let mut out = String::new();
            writeln!(out, "mapping (Thm 1, min FP): {}", safest.mapping).expect("write");
            writeln!(out, "analytic FP            : {:.6}", safest.failure_prob).expect("write");
            writeln!(
                out,
                "MC failure rate        : {:.6}",
                1.0 - report.success_rate
            )
            .expect("write");
            writeln!(
                out,
                "wilson 95% (success)   : [{:.6}, {:.6}]",
                report.wilson95.0, report.wilson95.1
            )
            .expect("write");
            writeln!(
                out,
                "latency min/mean/max   : {:.4} / {:.4} / {:.4} (bound {:.4})",
                report.latency.min, report.latency.mean, report.latency.max, safest.latency
            )
            .expect("write");
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_gen() {
        let cmd = parse_args(&args("gen --class ch --failure het -n 4 -m 6 --seed 7")).unwrap();
        assert_eq!(
            cmd,
            Command::Gen {
                class: PlatformClass::CommHomogeneous,
                failure: FailureClass::Heterogeneous,
                n: 4,
                m: 6,
                seed: 7
            }
        );
    }

    #[test]
    fn parse_solve_both_objectives() {
        let cmd = parse_args(&args("solve inst.json --min-fp-under-latency 22")).unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                path: "inst.json".into(),
                objective: Objective::MinFpUnderLatency(22.0),
                solver_threads: 1,
            }
        );
        let cmd = parse_args(&args("solve inst.json --min-latency-under-fp 0.2")).unwrap();
        assert!(
            matches!(cmd, Command::Solve { objective: Objective::MinLatencyUnderFp(f), .. } if f == 0.2)
        );
    }

    #[test]
    fn parse_explain_both_objectives() {
        let cmd = parse_args(&args("explain inst.json --min-fp-under-latency 1.5")).unwrap();
        assert_eq!(
            cmd,
            Command::Explain {
                path: "inst.json".into(),
                objective: Objective::MinFpUnderLatency(1.5),
                solver_threads: 1,
            }
        );
        let cmd = parse_args(&args(
            "explain inst.json --min-latency-under-fp 0.1 --solver-threads 2",
        ))
        .unwrap();
        assert!(
            matches!(cmd, Command::Explain { objective: Objective::MinLatencyUnderFp(f), solver_threads: 2, .. } if f == 0.1)
        );
        assert!(parse_args(&args("explain inst.json"))
            .unwrap_err()
            .contains("min-fp"));
    }

    #[test]
    fn explain_renders_conflicts_and_what_ifs() {
        let dir = std::env::temp_dir().join("rpwf-cli-explain-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json");
        let file = InstanceFile {
            pipeline: Pipeline::uniform(2, 100.0, 100.0).unwrap(),
            platform: Platform::fully_homogeneous(3, 1.0, 1.0, 0.9).unwrap(),
        };
        std::fs::write(&path, file.to_json()).unwrap();
        let path_str = path.to_string_lossy().into_owned();

        let out = run(&Command::Explain {
            path: path_str.clone(),
            objective: Objective::MinFpUnderLatency(1.0),
            solver_threads: 1,
        })
        .unwrap();
        assert!(out.contains("feasible : no (proven"), "{out}");
        assert!(out.contains("conflict : {bound"), "{out}");
        assert!(out.contains("fix      : relax {"), "{out}");
        assert!(out.contains("what-if  : nearest feasible latency"), "{out}");

        let feasible = run(&Command::Explain {
            path: path_str,
            objective: Objective::MinFpUnderLatency(1e9),
            solver_threads: 1,
        })
        .unwrap();
        assert!(feasible.contains("nothing to explain"), "{feasible}");
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!(
            parse_args(&args("gen --class bogus --failure hom -n 2 -m 2"))
                .unwrap_err()
                .contains("--class")
        );
        assert!(parse_args(&args("solve inst.json"))
            .unwrap_err()
            .contains("min-fp"));
        assert!(parse_args(&args("frobnicate"))
            .unwrap_err()
            .contains("unknown command"));
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn gen_solve_roundtrip_through_tempfile() {
        let gen = Command::Gen {
            class: PlatformClass::CommHomogeneous,
            failure: FailureClass::Heterogeneous,
            n: 3,
            m: 5,
            seed: 99,
        };
        let json = run(&gen).unwrap();
        let parsed = InstanceFile::from_json(&json).unwrap();
        assert_eq!(parsed.pipeline.n_stages(), 3);
        assert_eq!(parsed.platform.n_procs(), 5);

        let dir = std::env::temp_dir().join("rpwf-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json");
        std::fs::write(&path, &json).unwrap();
        let path_str = path.to_string_lossy().into_owned();

        // Pick a generous latency budget from Thm 1's mapping.
        let budget = rpwf_algo::mono::minimize_failure(&parsed.pipeline, &parsed.platform).latency;
        let out = run(&Command::Solve {
            path: path_str.clone(),
            objective: Objective::MinFpUnderLatency(budget),
            solver_threads: 1,
        })
        .unwrap();
        assert!(out.contains("exact"), "{out}");
        assert!(out.contains("latency"), "{out}");

        let front = run(&Command::Pareto {
            path: path_str.clone(),
            solver_threads: 1,
        })
        .unwrap();
        assert!(front.lines().count() >= 2, "{front}");

        let sim = run(&Command::Simulate {
            path: path_str,
            trials: 500,
        })
        .unwrap();
        assert!(sim.contains("MC failure rate"), "{sim}");
    }

    #[test]
    fn instance_json_roundtrip_preserves_metrics() {
        let inst = rpwf_gen::make_instance(
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
            3,
            4,
            5,
        );
        let file = InstanceFile {
            pipeline: inst.pipeline.clone(),
            platform: inst.platform.clone(),
        };
        let parsed = InstanceFile::from_json(&file.to_json()).unwrap();
        // The rebuilt pipeline must produce identical metric values.
        let mapping = IntervalMapping::single_interval(3, vec![ProcId(0), ProcId(2)], 4).unwrap();
        assert_eq!(
            latency(&mapping, &inst.pipeline, &inst.platform),
            latency(&mapping, &parsed.pipeline, &parsed.platform),
        );
    }

    #[test]
    fn run_help_prints_usage() {
        assert_eq!(run(&Command::Help).unwrap(), USAGE);
    }

    #[test]
    fn parse_serve_variants() {
        assert_eq!(
            parse_args(&args("serve --addr 0.0.0.0:9000 --workers 4")).unwrap(),
            Command::Serve {
                addr: Some("0.0.0.0:9000".into()),
                workers: 4,
                solver_threads: 1,
                cache_capacity: 4096,
                node_id: None,
                peers: vec![],
                vnodes: None,
                replicas: None,
                peer_connect_ms: None,
                peer_read_ms: None,
                event_threads: 0,
                max_queue: 0,
                admission_deadline_ms: None,
            }
        );
        assert_eq!(
            parse_args(&args("serve --stdin --cache-capacity 16")).unwrap(),
            Command::Serve {
                addr: None,
                workers: 0,
                solver_threads: 1,
                cache_capacity: 16,
                node_id: None,
                peers: vec![],
                vnodes: None,
                replicas: None,
                peer_connect_ms: None,
                peer_read_ms: None,
                event_threads: 0,
                max_queue: 0,
                admission_deadline_ms: None,
            }
        );
        assert_eq!(
            parse_args(&args("serve")).unwrap(),
            Command::Serve {
                addr: Some("127.0.0.1:7077".into()),
                workers: 0,
                solver_threads: 1,
                cache_capacity: 4096,
                node_id: None,
                peers: vec![],
                vnodes: None,
                replicas: None,
                peer_connect_ms: None,
                peer_read_ms: None,
                event_threads: 0,
                max_queue: 0,
                admission_deadline_ms: None,
            }
        );
        assert!(parse_args(&args("serve --stdin --addr 1.2.3.4:1"))
            .unwrap_err()
            .contains("not both"));
    }

    #[test]
    fn parse_serve_fleet_mode() {
        assert_eq!(
            parse_args(&args(
                "serve --addr 0.0.0.0:7001 --node-id 10.0.0.1:7001 \
                 --peers 10.0.0.2:7001,10.0.0.3:7001 --vnodes 32"
            ))
            .unwrap(),
            Command::Serve {
                addr: Some("0.0.0.0:7001".into()),
                workers: 0,
                solver_threads: 1,
                cache_capacity: 4096,
                node_id: Some("10.0.0.1:7001".into()),
                peers: vec!["10.0.0.2:7001".into(), "10.0.0.3:7001".into()],
                vnodes: Some(32),
                replicas: None,
                peer_connect_ms: None,
                peer_read_ms: None,
                event_threads: 0,
                max_queue: 0,
                admission_deadline_ms: None,
            }
        );
        // Fault-tolerance knobs parse and round-trip.
        assert_eq!(
            parse_args(&args(
                "serve --addr 0.0.0.0:7001 --node-id 10.0.0.1:7001 \
                 --peers 10.0.0.2:7001 --replicas 3 --peer-connect-ms 250 \
                 --peer-read-ms 30000"
            ))
            .unwrap(),
            Command::Serve {
                addr: Some("0.0.0.0:7001".into()),
                workers: 0,
                solver_threads: 1,
                cache_capacity: 4096,
                node_id: Some("10.0.0.1:7001".into()),
                peers: vec!["10.0.0.2:7001".into()],
                vnodes: None,
                replicas: Some(3),
                peer_connect_ms: Some(250),
                peer_read_ms: Some(30_000),
                event_threads: 0,
                max_queue: 0,
                admission_deadline_ms: None,
            }
        );
        // Serving-plane knobs parse and round-trip.
        assert_eq!(
            parse_args(&args(
                "serve --addr 0.0.0.0:7001 --event-threads 4 --max-queue 256 \
                 --admission-deadline-ms 2000"
            ))
            .unwrap(),
            Command::Serve {
                addr: Some("0.0.0.0:7001".into()),
                workers: 0,
                solver_threads: 1,
                cache_capacity: 4096,
                node_id: None,
                peers: vec![],
                vnodes: None,
                replicas: None,
                peer_connect_ms: None,
                peer_read_ms: None,
                event_threads: 4,
                max_queue: 256,
                admission_deadline_ms: Some(2000),
            }
        );
        // Zero replicas would leave keys unowned.
        assert!(parse_args(&args(
            "serve --addr a:1 --node-id a:1 --peers b:2 --replicas 0"
        ))
        .unwrap_err()
        .contains("--replicas"));
        // Peers without an identity is a configuration error…
        assert!(parse_args(&args("serve --peers 10.0.0.2:7001"))
            .unwrap_err()
            .contains("--node-id"));
        // …and fleet mode cannot serve stdin.
        assert!(
            parse_args(&args("serve --stdin --peers 10.0.0.2:7001 --node-id a:1"))
                .unwrap_err()
                .contains("TCP")
        );
    }

    #[test]
    fn batch_runs_requests_in_order() {
        let dir = std::env::temp_dir().join("rpwf-cli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("requests.jsonl");
        std::fs::write(
            &path,
            "{\"id\": 1, \"cmd\": \"Ping\"}\n{\"id\": 2, \"cmd\": \"Ping\"}\n",
        )
        .unwrap();
        let out = run(&Command::Batch {
            path: path.to_string_lossy().into_owned(),
            workers: 2,
            group: true,
        })
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"id\":1"), "{}", lines[0]);
        assert!(lines[1].contains("\"id\":2"), "{}", lines[1]);
        assert!(
            lines.iter().all(|l| l.contains("\"status\":\"ok\"")),
            "{out}"
        );
    }

    #[test]
    fn batch_missing_file_errors() {
        let err = run(&Command::Batch {
            path: "/nonexistent/requests.jsonl".into(),
            workers: 1,
            group: true,
        })
        .unwrap_err();
        assert!(err.contains("/nonexistent/requests.jsonl"));
    }

    #[test]
    fn parse_batch_grouping_flag() {
        assert_eq!(
            parse_args(&args("batch requests.jsonl --workers 2")).unwrap(),
            Command::Batch {
                path: "requests.jsonl".into(),
                workers: 2,
                group: true,
            }
        );
        assert_eq!(
            parse_args(&args("batch requests.jsonl --no-group")).unwrap(),
            Command::Batch {
                path: "requests.jsonl".into(),
                workers: 0,
                group: false,
            }
        );
    }

    #[test]
    fn parse_trace_verb() {
        assert_eq!(
            parse_args(&args("trace")).unwrap(),
            Command::Trace {
                addr: "127.0.0.1:7077".into(),
                limit: None,
            }
        );
        assert_eq!(
            parse_args(&args("trace --addr 10.0.0.1:7001 --limit 5")).unwrap(),
            Command::Trace {
                addr: "10.0.0.1:7001".into(),
                limit: Some(5),
            }
        );
        assert!(parse_args(&args("trace --limit nope"))
            .unwrap_err()
            .contains("--limit"));
    }

    #[test]
    fn trace_verb_dumps_a_served_slow_query_ring() {
        // Boot a real TCP server, run one traced solve against it, then
        // point the trace verb at it.
        let mut server = rpwf_server::Server::bind(
            "127.0.0.1:0",
            rpwf_server::ServiceConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr().to_string();

        let solve = serde_json::to_string(&rpwf_server::protocol::Request {
            id: Some(7),
            deadline_ms: None,
            no_cache: None,
            hop: None,
            trace: Some(true),
            trace_ctx: None,
            explain: None,
            cmd: rpwf_server::protocol::Command::Solve {
                pipeline: rpwf_gen::figure5_pipeline(),
                platform: rpwf_gen::figure5_platform(),
                objective: Objective::MinFpUnderLatency(22.0),
            },
        })
        .unwrap();
        let line =
            roundtrip(&addr, &solve, std::time::Duration::from_secs(30)).expect("traced solve");
        assert!(line.contains("\"trace\""), "{line}");

        let out = run(&Command::Trace {
            addr: addr.clone(),
            limit: None,
        })
        .expect("trace verb");
        assert!(out.contains("slow-query ring"), "{out}");
        assert!(out.contains("cmd=solve"), "{out}");
        assert!(out.contains("engine.plan"), "{out}");
        server.shutdown();

        // A dead server is a readable error, not a panic.
        let err = run(&Command::Trace { addr, limit: None }).unwrap_err();
        assert!(err.contains(':'), "{err}");
    }

    #[test]
    fn pareto_works_beyond_exact_backends() {
        // m = 14 fully heterogeneous: the old CLI refused this instance;
        // the front-first path answers with a flagged heuristic front.
        let gen = Command::Gen {
            class: PlatformClass::FullyHeterogeneous,
            failure: FailureClass::Heterogeneous,
            n: 3,
            m: 14,
            seed: 4,
        };
        let json = run(&gen).unwrap();
        let dir = std::env::temp_dir().join("rpwf-cli-front-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("het14.json");
        std::fs::write(&path, &json).unwrap();
        let out = run(&Command::Pareto {
            path: path.to_string_lossy().into_owned(),
            solver_threads: 1,
        })
        .unwrap();
        assert!(out.contains("heuristic"), "{out}");
        assert!(out.contains("sound under-approximation"), "{out}");
        assert!(out.lines().count() >= 3, "{out}");
    }

    #[test]
    fn run_solve_missing_file_errors() {
        let err = run(&Command::Solve {
            path: "/nonexistent/inst.json".into(),
            objective: Objective::MinFpUnderLatency(1.0),
            solver_threads: 1,
        })
        .unwrap_err();
        assert!(err.contains("/nonexistent/inst.json"));
    }
}
