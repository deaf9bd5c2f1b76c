//! Reactor transport robustness: requests arriving a few bytes at a
//! time, slow-loris drip feeds, floods of short lines, mid-line
//! disconnects, cancellation on disconnect, overload shedding, and the
//! serving-plane counters — all over real TCP sockets against
//! [`rpwf_server::Server`].

use rpwf_core::{FailureClass, PlatformClass};
use rpwf_server::protocol::{Command, Request, Response, StatsResult};
use rpwf_server::{Server, ServiceConfig, ServingOptions};
use serde::Deserialize;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn request_line(id: u64, deadline_ms: Option<u64>, cmd: Command) -> String {
    serde_json::to_string(&Request {
        id: Some(id),
        deadline_ms,
        no_cache: None,
        hop: None,
        trace: None,
        trace_ctx: None,
        explain: None,
        cmd,
    })
    .expect("serializes")
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    serde_json::from_str(line.trim()).expect("parses")
}

/// A solve on an instance far past the exact solvers' practical size —
/// only a deadline (or cancellation) ends it.
fn heavy_pareto_line(id: u64, deadline_ms: Option<u64>) -> String {
    let inst = rpwf_gen::make_instance(
        PlatformClass::CommHomogeneous,
        FailureClass::Heterogeneous,
        18,
        14,
        id,
    );
    request_line(
        id,
        deadline_ms,
        Command::Pareto {
            pipeline: inst.pipeline,
            platform: inst.platform,
            chunk: None,
        },
    )
}

/// An explanation over the same kind of instance: its oracle runs
/// several front solves, so it is as sheddable as the solve itself.
fn heavy_explain_line(id: u64, deadline_ms: Option<u64>) -> String {
    let inst = rpwf_gen::make_instance(
        PlatformClass::CommHomogeneous,
        FailureClass::Heterogeneous,
        18,
        14,
        id,
    );
    request_line(
        id,
        deadline_ms,
        Command::Explain {
            pipeline: inst.pipeline,
            platform: inst.platform,
            objective: rpwf_algo::Objective::MinFpUnderLatency(1.0),
        },
    )
}

fn stats_over(stream: &TcpStream, reader: &mut BufReader<TcpStream>) -> StatsResult {
    let mut w = stream.try_clone().expect("clone");
    writeln!(w, "{}", request_line(9_999, None, Command::Stats)).expect("send");
    let resp = read_response(reader);
    assert_eq!(resp.status, "ok");
    StatsResult::from_value(&resp.result.expect("result")).expect("shape")
}

#[test]
fn partial_line_writes_assemble_into_one_request() {
    let mut server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // The whole request dribbles in 3-byte chunks across many poll
    // iterations; the reactor must buffer until the newline.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let line = format!("{}\n", request_line(7, None, Command::Ping));
    for chunk in line.as_bytes().chunks(3) {
        stream.write_all(chunk).expect("write");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reader = BufReader::new(stream);
    let resp = read_response(&mut reader);
    assert_eq!(resp.status, "ok");
    assert_eq!(resp.id, Some(7));
    server.shutdown();
}

#[test]
fn slow_loris_drip_does_not_stall_fast_clients() {
    // ONE event thread: the drip connection and the fast client share
    // the same poll loop, so any blocking read on the drip would freeze
    // the fast client.
    let mut server = Server::bind_tuned(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
        ServingOptions {
            event_threads: 1,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let drip = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let line = format!("{}\n", request_line(500, None, Command::Ping));
        for byte in line.as_bytes() {
            stream.write_all(std::slice::from_ref(byte)).expect("write");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut reader = BufReader::new(stream);
        read_response(&mut reader)
    });

    // While the drip crawls, a fast client must see sub-second pings.
    let fast = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(fast.try_clone().expect("clone"));
    let mut w = fast;
    let started = Instant::now();
    for id in 0..16 {
        writeln!(w, "{}", request_line(id, None, Command::Ping)).expect("send");
        let resp = read_response(&mut reader);
        assert_eq!(resp.status, "ok");
        assert_eq!(resp.id, Some(id));
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "fast client stalled behind a slow-loris connection: {:?}",
        started.elapsed()
    );

    // The drip connection itself is eventually answered, not severed.
    let resp = drip.join().expect("drip thread");
    assert_eq!(resp.status, "ok");
    assert_eq!(resp.id, Some(500));
    server.shutdown();
}

#[test]
fn a_flood_of_complete_lines_does_not_starve_other_clients() {
    // ONE event thread. The flooder writes whitespace-only keep-alive
    // lines as fast as its socket takes them, so its socket never stops
    // being readable; a ping from a second client must still be answered
    // while the flood goes on.
    let mut server = Server::bind_tuned(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
        ServingOptions {
            event_threads: 1,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    const FLOOD_CAP: usize = 64 << 20;
    let answered = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicUsize::new(0));

    let flood = {
        let (answered, sent) = (Arc::clone(&answered), Arc::clone(&sent));
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut chunk = vec![b' '; 64 << 10];
            for line_end in chunk.iter_mut().skip(63).step_by(64) {
                *line_end = b'\n';
            }
            while !answered.load(Ordering::SeqCst) && sent.load(Ordering::SeqCst) < FLOOD_CAP {
                stream.write_all(&chunk).expect("flood write");
                sent.fetch_add(chunk.len(), Ordering::SeqCst);
            }
            // Served, not severed: the flooder's own ping is answered.
            writeln!(stream, "{}", request_line(2, None, Command::Ping)).expect("send");
            let mut reader = BufReader::new(stream);
            read_response(&mut reader)
        })
    };

    while sent.load(Ordering::SeqCst) < 1 << 20 {
        std::thread::yield_now();
    }
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    writeln!(w, "{}", request_line(1, None, Command::Ping)).expect("send");
    let resp = read_response(&mut reader);
    answered.store(true, Ordering::SeqCst);
    assert_eq!(resp.status, "ok");
    assert_eq!(resp.id, Some(1));
    let flooded = sent.load(Ordering::SeqCst);
    assert!(
        flooded < FLOOD_CAP,
        "the ping waited for the whole {flooded}-byte flood"
    );

    let resp = flood.join().expect("flood thread");
    assert_eq!(resp.status, "ok");
    assert_eq!(resp.id, Some(2));
    server.shutdown();
}

#[test]
fn mid_line_disconnect_leaves_server_healthy() {
    let mut server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Several clients die mid-line — half a request, no newline.
    for _ in 0..5 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"{\"id\":1,\"cmd\":{\"c\":\"pi")
            .expect("write");
        stream.flush().expect("flush");
        drop(stream);
    }

    // The truncated fragments must not be parsed, answered, or allowed
    // to wedge an event thread: a fresh client still gets served.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    writeln!(w, "{}", request_line(42, None, Command::Ping)).expect("send");
    let resp = read_response(&mut reader);
    assert_eq!(resp.status, "ok");
    assert_eq!(resp.id, Some(42));
    server.shutdown();
}

#[test]
fn disconnect_cancels_in_flight_solve() {
    // ONE worker: if the abandoned solve kept running to its deadline,
    // the follow-up ping would queue behind it for ~20 s. The
    // connection's CancelHandle must fire on disconnect and unwind the
    // solve at its next budget poll instead.
    let mut server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut doomed = TcpStream::connect(addr).expect("connect");
    writeln!(doomed, "{}", heavy_pareto_line(1, Some(20_000))).expect("send");
    doomed.flush().expect("flush");
    // Let the worker pick the solve up, then abandon it.
    std::thread::sleep(Duration::from_millis(300));
    drop(doomed);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    let started = Instant::now();
    writeln!(w, "{}", request_line(2, None, Command::Ping)).expect("send");
    let resp = read_response(&mut reader);
    assert_eq!(resp.status, "ok");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "ping waited {:?} — the abandoned solve was not cancelled",
        started.elapsed()
    );
    server.shutdown();
}

#[test]
fn overload_sheds_fast_with_retry_hint() {
    // One worker, a one-slot queue: the first two heavy solves occupy
    // both, everything after must be shed immediately.
    let mut server = Server::bind_tuned(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
        ServingOptions {
            max_queue: 1,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let blocker = TcpStream::connect(addr).expect("connect");
    let mut blocker_reader = BufReader::new(blocker.try_clone().expect("clone"));
    let mut bw = blocker.try_clone().expect("clone");
    writeln!(bw, "{}", heavy_pareto_line(1, Some(2_000))).expect("send");
    bw.flush().expect("flush");
    // Let the worker dequeue the first solve before the second arrives,
    // so the second occupies the queue slot instead of being shed.
    std::thread::sleep(Duration::from_millis(200));
    writeln!(bw, "{}", heavy_pareto_line(2, Some(2_000))).expect("send");
    bw.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(200));

    // Burst: every one of these must be rejected fast with a structured
    // hint, not queued into a late timeout.
    let burst = TcpStream::connect(addr).expect("connect");
    let mut burst_reader = BufReader::new(burst.try_clone().expect("clone"));
    let mut sw = burst.try_clone().expect("clone");
    let mut shed = 0;
    for id in 10..30 {
        let started = Instant::now();
        let line = if id % 2 == 0 {
            heavy_pareto_line(id, Some(2_000))
        } else {
            heavy_explain_line(id, Some(2_000))
        };
        writeln!(sw, "{line}").expect("send");
        let resp = read_response(&mut burst_reader);
        assert_eq!(resp.status, "error");
        let err = resp.error.expect("error payload");
        assert_eq!(err.kind, "overloaded");
        let hint = err.retry_after_ms.expect("retry hint");
        assert!(hint > 0, "retry_after_ms must be a usable wait");
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "shed path took {:?} — rejections must be fast",
            started.elapsed()
        );
        shed += 1;
    }
    assert_eq!(shed, 20);

    // Drain the two admitted solves (deadline-bounded), then check the
    // counters saw all of it.
    for _ in 0..2 {
        let _ = read_response(&mut blocker_reader);
    }
    let serving = stats_over(&burst, &mut burst_reader)
        .serving
        .expect("TCP servers report serving stats");
    assert_eq!(serving.queue_limit, 1);
    assert!(serving.shed_queue_full >= 20, "every burst request counted");
    assert!(serving.admitted >= 2, "the blockers were admitted");
    assert!(
        serving.shed_latency_p99_us < 50_000,
        "shed p99 {}µs — a reject must be fast, that is its entire point",
        serving.shed_latency_p99_us
    );
    server.shutdown();
}

#[test]
fn serving_stats_and_metrics_surface_reactor_state() {
    let mut server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream.try_clone().expect("clone");
    writeln!(w, "{}", request_line(1, None, Command::Ping)).expect("send");
    assert_eq!(read_response(&mut reader).status, "ok");
    // A real solve passes through the admission controller (Ping and
    // other cheap commands bypass it).
    writeln!(
        w,
        "{}",
        request_line(
            2,
            Some(10_000),
            Command::Solve {
                pipeline: rpwf_gen::figure5_pipeline(),
                platform: rpwf_gen::figure5_platform(),
                objective: rpwf_algo::Objective::MinFpUnderLatency(22.0),
            }
        )
    )
    .expect("send");
    assert_eq!(read_response(&mut reader).status, "ok");

    let serving = stats_over(&stream, &mut reader)
        .serving
        .expect("TCP servers report serving stats");
    assert!(serving.event_threads >= 1);
    assert!(serving.open_connections >= 1, "this connection is open");
    assert!(serving.queue_limit >= 1);
    assert!(serving.admitted >= 1, "the solve was admitted");
    assert_eq!(serving.shed_queue_full + serving.shed_deadline, 0);

    writeln!(w, "{}", request_line(3, None, Command::Metrics)).expect("send");
    let resp = read_response(&mut reader);
    assert_eq!(resp.status, "ok");
    let text = match resp.result.expect("result") {
        serde::Value::Str(s) => s,
        other => panic!("metrics dump should be text, got {other:?}"),
    };
    for series in [
        "rpwf_admission_admitted_total",
        "rpwf_admission_shed_queue_full_total",
        "rpwf_admission_shed_deadline_total",
        "rpwf_admission_queue_depth",
        "rpwf_admission_shed_latency_us",
        "rpwf_reactor_event_threads",
        "rpwf_reactor_open_connections",
        "rpwf_reactor_loop_us",
    ] {
        assert!(text.contains(series), "metrics dump missing {series}");
    }
    server.shutdown();
}
