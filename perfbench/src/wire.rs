//! Request lines, a blocking JSON-lines client, and counter scrapes.
//!
//! Lines are spliced from serde-serialized pieces (pipeline, platform,
//! objective) inside a hand-written envelope, so a 35 KB instance is
//! serialized once per run, not once per request.

use rpwf_algo::Objective;
use rpwf_core::platform::Platform;
use rpwf_core::stage::Pipeline;
use rpwf_server::protocol::{RingResult, StatsResult};
use rpwf_server::Response;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// An instance with its serialized halves cached.
pub struct WireInstance {
    pub pipeline: Pipeline,
    pub platform: Platform,
    pipeline_json: String,
    platform_json: String,
}

impl WireInstance {
    pub fn new(pipeline: Pipeline, platform: Platform) -> Self {
        WireInstance {
            pipeline_json: serde_json::to_string(&pipeline).expect("pipeline serializes"),
            platform_json: serde_json::to_string(&platform).expect("platform serializes"),
            pipeline: pipeline.with_rebuilt_cache(),
            platform,
        }
    }

    fn body(&self, tail: &str) -> String {
        format!(
            r#"{{"pipeline":{},"platform":{},{tail}}}"#,
            self.pipeline_json, self.platform_json
        )
    }

    pub fn solve(&self, objective: Objective) -> String {
        let objective = serde_json::to_string(&objective).expect("objective serializes");
        format!(
            r#"{{"Solve":{}}}"#,
            self.body(&format!(r#""objective":{objective}"#))
        )
    }

    pub fn explain(&self, objective: Objective) -> String {
        let objective = serde_json::to_string(&objective).expect("objective serializes");
        format!(
            r#"{{"Explain":{}}}"#,
            self.body(&format!(r#""objective":{objective}"#))
        )
    }

    pub fn pareto(&self, chunk: Option<usize>) -> String {
        let chunk = chunk.map_or("null".to_string(), |c| c.to_string());
        format!(
            r#"{{"Pareto":{}}}"#,
            self.body(&format!(r#""chunk":{chunk}"#))
        )
    }
}

/// One request line around a serialized command.
pub fn envelope(id: u64, deadline_ms: Option<u64>, no_cache: bool, cmd: &str) -> String {
    let mut line = format!(r#"{{"id":{id}"#);
    if let Some(ms) = deadline_ms {
        line.push_str(&format!(r#","deadline_ms":{ms}"#));
    }
    if no_cache {
        line.push_str(r#","no_cache":true"#);
    }
    line.push_str(&format!(r#","cmd":{cmd}}}"#));
    line
}

/// Whether a response line is a streamed `part` rather than the line that
/// closes its request. `status` is the second field on the wire.
pub fn is_part(line: &str) -> bool {
    line[..line.len().min(48)].contains(r#""status":"part""#)
}

pub fn parse_response(line: &str) -> Option<Response> {
    serde_json::from_str::<Response>(line).ok()
}

pub fn decode<T: for<'de> Deserialize<'de>>(value: &serde::Value) -> Option<T> {
    T::from_value(value).ok()
}

/// A blocking client for the counter scrapes: one request at a time, so
/// the lines it reads belong to the request it sent.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        })
    }

    /// Sends one line and returns every response line up to the one that
    /// closes the request.
    pub fn call(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        let mut lines = Vec::new();
        loop {
            let mut buf = String::new();
            if self.reader.read_line(&mut buf)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let buf = buf.trim_end().to_string();
            let done = !is_part(&buf);
            lines.push(buf);
            if done {
                return Ok(lines);
            }
        }
    }

    /// The closing response of one request.
    pub fn call_one(&mut self, line: &str) -> Option<Response> {
        self.call(line)
            .ok()
            .and_then(|lines| lines.last().and_then(|l| parse_response(l)))
    }
}

/// Counter snapshot of one node: `Stats`, `Ring` and the `Metrics` text.
#[derive(Clone)]
pub struct Counters {
    pub stats: StatsResult,
    pub ring: Option<RingResult>,
    pub metrics: BTreeMap<String, f64>,
}

impl Counters {
    /// Takes the three snapshots through `call`, which answers one request
    /// line (over TCP or in-process).
    pub fn scrape(mut call: impl FnMut(&str) -> Option<Response>) -> Option<Counters> {
        let stats = call(&envelope(1, None, false, r#""Stats""#))?;
        let ring = call(&envelope(2, None, false, r#""Ring""#));
        let metrics = call(&envelope(3, None, false, r#""Metrics""#))?;
        Some(Counters {
            stats: decode(stats.result.as_ref()?)?,
            ring: ring.and_then(|r| r.result.as_ref().and_then(decode)),
            metrics: parse_metrics(metrics.result.as_ref()?.as_str()?),
        })
    }

    /// Sum of every series named `name`, whatever its labels.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .filter(|(key, _)| key.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    pub fn command_count(&self, command: &str) -> u64 {
        self.stats
            .commands
            .iter()
            .find(|c| c.command == command)
            .map_or(0, |c| c.count)
    }
}

fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Per-solver totals (`calls`, `elapsed_us`, `complete`) summed over
/// nodes.
pub fn solver_totals(nodes: &[Counters]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for node in nodes {
        for s in &node.stats.solvers {
            let e = out.entry(s.solver.clone()).or_insert((0, 0, 0));
            e.0 += s.calls;
            e.1 += s.elapsed_us;
            e.2 += s.complete;
        }
    }
    out
}
