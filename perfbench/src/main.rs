//! The rpwf serving benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see each module for why it exists):
//! * `warm_large` — one TCP node, open loop, reads off cached heuristic
//!   fronts of large instances: protocol, hash, cache and reactor costs;
//! * `cold_solves` — in-process `handle_line`, two closed-loop clients,
//!   never-seen instances across every backend's domain: engine and
//!   solver costs;
//! * `fleet_mixed` — three ring nodes, open loop through two entry nodes:
//!   forwarding, replication, streamed fronts and explanations.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` additionally
//! replays a sample of the workload's requests through each layer's
//! public functions and prints the per-layer metrics. The last line of
//! standard output is the JSON result.

mod check;
mod cold_solves;
mod fleet_mixed;
mod load;
mod phase;
mod replay;
mod report;
mod spans;
mod util;
mod warm_large;
mod wire;

use report::Report;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Args, &mut Report) = match args.workload.as_str() {
        "warm_large" => warm_large::run,
        "cold_solves" => cold_solves::run,
        "fleet_mixed" => fleet_mixed::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    // The noise floor comes first, on an idle machine: tail latencies are
    // read against it.
    let (overshoot_p99, overshoot_max) = util::timer_overshoot_us();
    report.info("nproc", util::nproc());
    report.info("git_rev", util::git_rev());
    report.info("timer_overshoot_max_us", format!("{overshoot_max:.0}"));
    report.layer(
        "noise.timer_overshoot_p99_us",
        overshoot_p99,
        "us",
        Some(200),
    );
    report.layer("noise.cpu_ref_ms", util::cpu_reference_ms(), "ms", Some(3));
    let (steal0, wall0) = (util::steal_us(), std::time::Instant::now());
    run(&args, &mut report);
    // Share of the machine's CPU time the host took during the run.
    let capacity_us = util::micros(wall0.elapsed()) * util::nproc() as f64;
    report.layer(
        "noise.steal_pct",
        100.0 * (util::steal_us() - steal0) / capacity_us.max(1.0),
        "%",
        None,
    );
    report.print(&args.workload, args.trace);
}
