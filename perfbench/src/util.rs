//! Small shared pieces: a seeded generator, sample statistics, `/proc`
//! readers and the machine's noise floor.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: the workload generator's only source of randomness, so one
/// `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100.
const TICK_US: f64 = 10_000.0;

/// utime + stime of a `stat` line, in microseconds. The command name may
/// contain spaces, so fields are counted from its closing parenthesis.
fn stat_cpu_us(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5); `rest` starts at field 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * TICK_US)
}

/// CPU time the whole process has used, threads that already exited
/// included.
pub fn process_cpu_us() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_us(&s))
        .unwrap_or(0.0)
}

/// Per-thread CPU, summed by the server's thread-name groups. Threads the
/// server did not name belong to the load generator.
pub fn thread_cpu_by_group() -> BTreeMap<&'static str, f64> {
    let mut groups = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return groups;
    };
    for task in tasks.flatten() {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let Some(cpu) = std::fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| stat_cpu_us(&s))
        else {
            continue;
        };
        *groups.entry(thread_group(comm.trim())).or_insert(0.0) += cpu;
    }
    groups
}

fn thread_group(comm: &str) -> &'static str {
    // Engine race threads inherit the name of the worker that spawned them.
    for (prefix, group) in [
        ("rpwf-reactor", "reactor"),
        ("rpwf-worker", "worker"),
        ("rpwf-hop", "hop"),
        ("rpwf-accept", "accept"),
        ("rpwf-fwd", "hop"),
    ] {
        if comm.starts_with(prefix) {
            return group;
        }
    }
    "generator"
}

/// Group-wise CPU difference `after - before`; threads that exited in
/// between are only in the process total.
pub fn cpu_delta(
    before: &BTreeMap<&'static str, f64>,
    after: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    after
        .iter()
        .map(|(group, cpu)| (*group, (cpu - before.get(group).unwrap_or(&0.0)).max(0.0)))
        .collect()
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `times` times, dropping each result before the next
/// starts, and reports the median duration as `setup_s`; returns the last
/// result. A failed set-up fails the run.
pub fn repeated_setup<T>(
    report: &mut crate::report::Report,
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Option<T> {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let start = Instant::now();
        match setup() {
            Ok(state) => last = Some(state),
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("set-up: {e}"));
                return None;
            }
        }
        durations.push(start.elapsed().as_secs_f64());
    }
    report.e2e("setup_s", median(&durations), "s", Some(durations.len()));
    last
}

/// Process CPU read at `start + k * window` for `k = 0..=windows`, on a
/// thread that sleeps in between.
pub fn sample_cpu(start: Instant, window: Duration, windows: usize) -> Vec<f64> {
    (0..=windows)
        .map(|k| {
            let at = start + window * k as u32;
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            process_cpu_us()
        })
        .collect()
}

/// One measurement window of a timed phase: the answers completed in it
/// and the process CPU spent over it.
pub struct Window {
    latencies: Vec<f64>,
    cpu_us: f64,
    first_s: f64,
    last_s: f64,
}

impl Window {
    /// Windows between consecutive readings of [`sample_cpu`].
    pub fn split(cpu: &[f64]) -> Vec<Window> {
        cpu.windows(2)
            .map(|edge| Window {
                latencies: Vec::new(),
                cpu_us: edge[1] - edge[0],
                first_s: f64::INFINITY,
                last_s: 0.0,
            })
            .collect()
    }

    /// Files an answer completed `done_s` after the phase start under its
    /// window of `width`; the last window also takes the stragglers.
    pub fn record(windows: &mut [Window], width: Duration, done_s: f64, latency_us: f64) {
        let k = ((done_s / width.as_secs_f64()) as usize).min(windows.len() - 1);
        let w = &mut windows[k];
        w.latencies.push(latency_us);
        w.first_s = w.first_s.min(done_s);
        w.last_s = w.last_s.max(done_s);
    }

    /// Answers per second between the window's first and last answer.
    fn throughput(&self) -> f64 {
        let n = self.latencies.len();
        if n < 2 {
            return 0.0;
        }
        (n - 1) as f64 / (self.last_s - self.first_s).max(1e-9)
    }
}

/// The timed phase is cut into this many windows, and each end-to-end
/// figure is the median of its per-window values: a stall of the host
/// (this machine loses whole milliseconds to CPU steal) spoils one window,
/// not the run.
pub const WINDOWS: usize = 4;

/// Mean of the values between the 10th and 90th percentiles. With a
/// stalled reactor, latency is multimodal (answers wait for the next
/// arrival, so modes sit at multiples of the inter-arrival gap) and the
/// median jumps between modes when a slower host shifts a little mass
/// across; this mean moves smoothly, and ignores the tails.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Latency, throughput and CPU figures as medians over windows.
pub fn window_medians(report: &mut crate::report::Report, windows: &[Window]) {
    let n = Some(windows.iter().map(|w| w.latencies.len()).sum());
    let per = |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    for (name, q) in [
        ("latency_p50_us", 0.5),
        ("latency_p90_us", 0.9),
        ("latency_p99_us", 0.99),
    ] {
        report.e2e(name, per(&|w| quantile(&w.latencies, q)), "us", n);
    }
    report.e2e(
        "latency_trimmed_mean_us",
        per(&|w| trimmed_mean(&w.latencies)),
        "us",
        n,
    );
    report.e2e("throughput_rps", per(&Window::throughput), "1/s", n);
    report.e2e(
        "cpu_us_per_req",
        per(&|w| w.cpu_us / w.latencies.len().max(1) as f64),
        "us",
        n,
    );
    let all: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latencies.iter().copied())
        .collect();
    report.info(
        "run_wide.latency_p50_p99_max_us",
        format!(
            "{:.0} {:.0} {:.0}",
            quantile(&all, 0.5),
            quantile(&all, 0.99),
            all.iter().copied().fold(0.0, f64::max)
        ),
    );
}

/// How late an idle 1 ms sleep wakes: p99 and max overshoot in µs.
pub fn timer_overshoot_us() -> (f64, f64) {
    let mut over = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        over.push(micros(start.elapsed()) - 1000.0);
    }
    (
        quantile(&over, 0.99),
        over.iter().copied().fold(0.0, f64::max),
    )
}

/// A fixed CPU-bound task independent of the code under test (sorting a
/// seeded vector), median of three, in ms: the machine's speed at the
/// time of the run, against which CPU-bound metrics are read.
pub fn cpu_reference_ms() -> f64 {
    let mut rng = Rng::new(7);
    let data: Vec<u64> = (0..400_000).map(|_| rng.next_u64()).collect();
    let mut times = Vec::new();
    for _ in 0..3 {
        let mut v = data.clone();
        let start = Instant::now();
        v.sort_unstable();
        std::hint::black_box(&v);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// The checkout's commit when it is a git checkout, read from `.git`
/// directly so nothing outside the working directory is consulted.
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".into(), |rev| rev.trim().to_string()),
        None => head.to_string(),
    }
}

/// CPU time the host took from this machine so far (`steal` in
/// `/proc/stat`), in µs summed over CPUs.
pub fn steal_us() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s
                .lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()?;
            Some(cpu * TICK_US)
        })
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
