//! The TCP measurement phases shared by the server workloads: settling
//! the reactor into its steady state, the timed open loop with counter
//! and CPU snapshots at its edges, and the idle stall probe.

use crate::load::{drive, ping_us, Outcome, Slot};
use crate::report::Report;
use crate::util::{
    cpu_delta, micros, process_cpu_us, quantile, sample_cpu, thread_cpu_by_group, window_medians,
    Window, WINDOWS,
};
use crate::wire::{Client, Counters};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a phase waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(5);

/// Longer than the reactor's 250 ms idle poll, so a connection whose
/// event thread lost its wake-up answers only when that poll fires.
const IDLE_BEFORE_PROBE: Duration = Duration::from_millis(300);

/// A ping slower than this waited for the idle poll.
const STUCK_PING_US: f64 = 100_000.0;

/// Pings per burst, and the most bursts one connection gets.
const BURST: usize = 1_000;
const MAX_BURSTS: usize = 20;

/// A fixed-rate schedule of `count` slots spread round-robin over `conns`
/// connections, ids from `first_id`.
pub fn schedule(count: usize, rate: f64, conns: usize, first_id: u64) -> Vec<Slot> {
    (0..count)
        .map(|i| Slot {
            id: first_id + i as u64,
            conn: i % conns,
            due: Duration::from_secs_f64(i as f64 / rate),
        })
        .collect()
}

/// Sends `slots` over `streams` in open loop and returns each slot with
/// its outcome, in slot order, plus the streams.
pub fn open_loop(
    streams: Vec<TcpStream>,
    slots: &[Slot],
    start: Instant,
    render: &(dyn Fn(&Slot) -> String + Sync),
) -> (Vec<(Slot, Outcome)>, Vec<TcpStream>) {
    let per_conn: Vec<Vec<Slot>> = (0..streams.len())
        .map(|c| slots.iter().filter(|s| s.conn == c).copied().collect())
        .collect();
    let results: Vec<(Vec<Outcome>, TcpStream)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&per_conn)
            .enumerate()
            .map(|(c, (stream, mine))| {
                std::thread::Builder::new()
                    .name(format!("load-{c}"))
                    .spawn_scoped(scope, move || drive(stream, mine, start, DRAIN, render))
                    .expect("spawn load thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut by_id: BTreeMap<u64, (Slot, Outcome)> = BTreeMap::new();
    let mut streams = Vec::new();
    for ((outcomes, stream), mine) in results.into_iter().zip(&per_conn) {
        for (slot, outcome) in mine.iter().zip(outcomes) {
            by_id.insert(slot.id, (*slot, outcome));
        }
        streams.push(stream);
    }
    (by_id.into_values().collect(), streams)
}

pub fn connect_all(addrs: &[&str]) -> Vec<TcpStream> {
    addrs
        .iter()
        .map(|a| {
            let s = TcpStream::connect(a).expect("connect load socket");
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect()
}

pub fn scrape_all(addrs: &[String]) -> Vec<Counters> {
    addrs
        .iter()
        .map(|a| {
            let mut client = Client::connect(a).expect("connect scrape socket");
            Counters::scrape(|line| client.call_one(line)).expect("scrape counters")
        })
        .collect()
}

/// The timed phase with everything measured at its edges.
pub struct Timed {
    pub results: Vec<(Slot, Outcome)>,
    pub streams: Vec<TcpStream>,
    pub windows: Vec<Window>,
    pub cpu_us: f64,
    pub thread_cpu: BTreeMap<&'static str, f64>,
    pub before: Vec<Counters>,
    pub after: Vec<Counters>,
}

pub fn timed(
    nodes: &[String],
    streams: Vec<TcpStream>,
    slots: &[Slot],
    render: &(dyn Fn(&Slot) -> String + Sync),
) -> Timed {
    let before = scrape_all(nodes);
    let (threads0, cpu0) = (thread_cpu_by_group(), process_cpu_us());
    let start = Instant::now() + Duration::from_millis(10);
    let span = slots.last().map_or(Duration::ZERO, |s| s.due) + Duration::from_millis(1);
    let window = span / WINDOWS as u32;
    let (cpu, (results, streams)) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_cpu(start, window, WINDOWS));
        let run = open_loop(streams, slots, start, render);
        (sampler.join().expect("cpu sampler"), run)
    });
    // Process and per-thread CPU over the same interval, so the load
    // generator's share is their difference.
    let thread_cpu = cpu_delta(&threads0, &thread_cpu_by_group());
    let cpu_us = process_cpu_us() - cpu0;
    // A window holds the answers completed in it.
    let mut windows = Window::split(&cpu);
    for (_, outcome) in &results {
        if let (Some(done), Some(latency)) = (outcome.done, outcome.latency_us()) {
            let done_s = done.saturating_duration_since(start).as_secs_f64();
            Window::record(&mut windows, window, done_s, latency);
        }
    }
    let after = scrape_all(nodes);
    Timed {
        results,
        streams,
        windows,
        cpu_us,
        thread_cpu,
        before,
        after,
    }
}

impl Timed {
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, o)| o.done.is_some())
            .count()
    }

    /// Every request id must be answered exactly once.
    pub fn check_delivery(&self, report: &mut Report) {
        for (slot, o) in &self.results {
            if o.done.is_none() {
                report.fail(format!("request {} never answered", slot.id));
            } else if o.duplicate_closes > 0 {
                report.fail(format!("request {} answered more than once", slot.id));
            }
        }
    }

    /// The end-to-end metrics every TCP workload reports, plus the
    /// reactor, admission, cache and CPU layers read from outside.
    pub fn report(&self, report: &mut Report, elapsed_us: &[f64]) {
        let lags: Vec<f64> = self
            .results
            .iter()
            .filter_map(|(_, o)| o.lag_us())
            .collect();
        let done = self.completed().max(1) as f64;
        let n = Some(self.completed());
        window_medians(report, &self.windows);
        report.layer(
            "loadgen.lag_p99_us",
            quantile(&lags, 0.99),
            "us",
            Some(lags.len()),
        );
        let residuals: Vec<f64> = self
            .results
            .iter()
            .zip(elapsed_us)
            .filter(|(_, e)| e.is_finite())
            .filter_map(|((_, o), e)| Some(o.rtt_us()? - e))
            .collect();
        let elapsed_us: Vec<f64> = elapsed_us
            .iter()
            .copied()
            .filter(|e| e.is_finite())
            .collect();
        report.layer(
            "reactor.residual_us_p50",
            quantile(&residuals, 0.5),
            "us",
            Some(residuals.len()),
        );
        report.layer(
            "service.elapsed_us_p50",
            quantile(&elapsed_us, 0.5),
            "us",
            Some(elapsed_us.len()),
        );
        let mut server_cpu = 0.0;
        for (group, name) in [
            ("reactor", "reactor.cpu_us_per_req"),
            ("worker", "worker.cpu_us_per_req"),
            ("hop", "hop.cpu_us_per_req"),
            ("accept", "accept.cpu_us_per_req"),
        ] {
            let cpu = self.thread_cpu.get(group).copied().unwrap_or(0.0);
            server_cpu += cpu;
            report.layer(name, cpu / done, "us", n);
        }
        // The load threads have exited by now: the generator's cost is what
        // the process spent beyond the server's named threads.
        report.layer(
            "loadgen.cpu_us_per_req",
            (self.cpu_us - server_cpu).max(0.0) / done,
            "us",
            n,
        );
        let loop_p99 = self
            .after
            .iter()
            .filter_map(|c| c.stats.serving.as_ref().map(|s| s.reactor_loop_p99_us))
            .max()
            .unwrap_or(0);
        report.layer("reactor.loop_p99_us", loop_p99 as f64, "us", None);
        let sum = |f: &dyn Fn(&Counters) -> u64| -> f64 {
            let a: u64 = self.after.iter().map(f).sum();
            let b: u64 = self.before.iter().map(f).sum();
            a.saturating_sub(b) as f64
        };
        let serving = |c: &Counters, f: &dyn Fn(&rpwf_server::protocol::ServingStatsOut) -> u64| {
            c.stats.serving.as_ref().map_or(0, f)
        };
        report.layer(
            "admission.admitted",
            sum(&|c| serving(c, &|s| s.admitted)),
            "count",
            None,
        );
        report.layer(
            "admission.shed",
            sum(&|c| serving(c, &|s| s.shed_queue_full + s.shed_deadline)),
            "count",
            None,
        );
        let hits = sum(&|c| c.stats.cache.hits);
        let misses = sum(&|c| c.stats.cache.misses);
        report.layer(
            "cache.hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
            Some((hits + misses) as usize),
        );
        report.layer(
            "cache.evictions",
            sum(&|c| c.stats.cache.evictions),
            "count",
            None,
        );
    }
}

/// Sends a burst of [`BURST`] pipelined `Ping`s and waits for every
/// answer. Workers answer a burst while its event thread keeps draining
/// its wake-up pipe, which is when a wake-up can be lost; once lost, the
/// burst's last answers wait for the 250 ms idle poll. Returns whether
/// they did, i.e. whether the connection's event thread is stuck.
fn ping_burst(stream: &mut TcpStream, first_id: u64) -> bool {
    use std::io::{BufRead, BufReader, Write};
    let mut batch = String::with_capacity(BURST * 32);
    for i in 0..BURST as u64 {
        batch.push_str(&format!("{{\"id\":{},\"cmd\":\"Ping\"}}\n", first_id + i));
    }
    let start = Instant::now();
    let Ok(reader) = stream.try_clone() else {
        return false;
    };
    if stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .is_err()
        || stream.write_all(batch.as_bytes()).is_err()
    {
        return false;
    }
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    for _ in 0..BURST {
        line.clear();
        if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            return false;
        }
    }
    micros(start.elapsed()) >= STUCK_PING_US
}

/// Drives every event thread into the state the seed server reaches on
/// its own after a random, scheduling-dependent number of requests: a lost
/// wake-up, after which the thread flushes answers only when another
/// request arrives or its idle poll fires. Without this, one run would
/// measure a healthy server and the next a stuck one. `streams` must
/// cover every event thread; bursts stop per connection once it shows
/// stuck, and a server without the lost wake-up just answers them all.
/// Returns how many connections ended stuck.
pub fn settle(streams: &mut [TcpStream], report: &mut Report) -> usize {
    let mut stuck = 0;
    let mut bursts = 0;
    for (c, stream) in streams.iter_mut().enumerate() {
        for b in 0..MAX_BURSTS {
            bursts += 1;
            if ping_burst(stream, 8_000_000 + ((c * MAX_BURSTS + b) * BURST) as u64) {
                stuck += 1;
                break;
            }
        }
    }
    report.info("settle.bursts", bursts);
    report.info(
        "settle.stuck_connections",
        format!("{stuck} of {}", streams.len()),
    );
    stuck
}

/// After the timed phase has drained: leave every connection idle past
/// one idle poll and time one `Ping` on each (`reactor.idle_ping_us`),
/// then send each a burst to count stuck event threads. Nothing else is
/// sent meanwhile, so no stray wake-up can hide a stuck thread.
pub fn stall_probe(streams: &mut [TcpStream], report: &mut Report) {
    std::thread::sleep(IDLE_BEFORE_PROBE);
    let pings: Vec<f64> = streams
        .iter_mut()
        .enumerate()
        .map(|(i, s)| ping_us(s, 9_000_000 + i as u64).unwrap_or(f64::INFINITY))
        .collect();
    let mut stuck = 0;
    for (i, s) in streams.iter_mut().enumerate() {
        stuck += usize::from(ping_burst(s, 9_100_000 + (i * BURST) as u64));
    }
    let worst = pings.iter().copied().fold(0.0, f64::max);
    report.layer(
        "reactor.idle_ping_us",
        if worst.is_finite() { worst } else { 3e6 },
        "us",
        Some(pings.len()),
    );
    report.layer(
        "reactor.stuck_threads",
        stuck as f64,
        "count",
        Some(streams.len()),
    );
    report.info(
        "reactor.idle_pings_us",
        pings
            .iter()
            .map(|p| format!("{p:.0}"))
            .collect::<Vec<_>>()
            .join(","),
    );
}
