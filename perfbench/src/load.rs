//! The open-loop load generator: one thread per connection, each sending
//! its share of a fixed-rate schedule and reading answers in between with
//! `ppoll(2)`, so no extra thread sits between a socket and its clock.

use crate::wire::is_part;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One scheduled request: its id, the connection it goes out on, and when
/// it is due, relative to the start of the phase.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    pub id: u64,
    pub conn: usize,
    pub due: Duration,
}

/// What happened to one scheduled request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Absolute due time.
    pub due: Option<Instant>,
    pub sent: Option<Instant>,
    /// Arrival of the line that closed the request.
    pub done: Option<Instant>,
    pub lines: Vec<String>,
    /// Answers whose id was seen more than once count here.
    pub duplicate_closes: u32,
}

impl Outcome {
    /// Latency from the due time: what a user who wanted the answer at
    /// that moment waited, generator lateness included.
    pub fn latency_us(&self) -> Option<f64> {
        Some(crate::util::micros(self.done?.duration_since(self.due?)))
    }

    /// Round trip from the actual send.
    pub fn rtt_us(&self) -> Option<f64> {
        Some(crate::util::micros(self.done?.duration_since(self.sent?)))
    }

    pub fn lag_us(&self) -> Option<f64> {
        Some(crate::util::micros(self.sent?.duration_since(self.due?)))
    }
}

#[cfg(unix)]
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> std::os::raw::c_int;
    }

    /// Waits until `fd` is ready for `events` or `timeout` passes.
    pub fn wait(fd: i32, events: i16, timeout: std::time::Duration) {
        let mut pfd = PollFd {
            fd,
            events,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `pfd` and `ts` are live, properly laid out `struct
        // pollfd` / `struct timespec` values for the whole call, `nfds` is
        // 1 to match the single record, and a null signal mask is allowed.
        unsafe {
            ppoll(&mut pfd, 1, &ts, std::ptr::null());
        }
    }
}

/// Drives one connection through its slots (`slots` are this connection's,
/// in due order). `render` produces a slot's line just before it is sent.
/// Returns the outcomes in slot order and the stream, for the stall probe.
pub fn drive(
    stream: TcpStream,
    slots: &[Slot],
    start: Instant,
    drain: Duration,
    render: &(dyn Fn(&Slot) -> String + Sync),
) -> (Vec<Outcome>, TcpStream) {
    use std::os::unix::io::AsRawFd;
    let mut outcomes: Vec<Outcome> = vec![Outcome::default(); slots.len()];
    let index: std::collections::HashMap<u64, usize> =
        slots.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    stream
        .set_nonblocking(true)
        .expect("nonblocking load socket");
    let mut stream = stream;
    let fd = stream.as_raw_fd();
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0;
    let mut closed = 0;
    let give_up = start + slots.last().map_or(Duration::ZERO, |s| s.due) + drain;
    let mut eof = false;
    loop {
        let now = Instant::now();
        while next < slots.len() && start + slots[next].due <= now && out.len() - out_pos < 1 << 20
        {
            out.extend_from_slice(render(&slots[next]).as_bytes());
            out.push(b'\n');
            outcomes[next].due = Some(start + slots[next].due);
            outcomes[next].sent = Some(now);
            next += 1;
        }
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        let arrived = Instant::now();
        let mut consumed = 0;
        while let Some(pos) = inbuf[consumed..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&inbuf[consumed..consumed + pos]).into_owned();
            consumed += pos + 1;
            let Some(&i) = response_id(&line).and_then(|id| index.get(&id)) else {
                continue;
            };
            let outcome = &mut outcomes[i];
            if !is_part(&line) {
                if outcome.done.is_some() {
                    outcome.duplicate_closes += 1;
                } else {
                    outcome.done = Some(arrived);
                    closed += 1;
                }
            }
            outcome.lines.push(line);
        }
        inbuf.drain(..consumed);
        if (next == slots.len() && closed == slots.len()) || eof || arrived >= give_up {
            break;
        }
        let wait = if next < slots.len() {
            (start + slots[next].due).saturating_duration_since(arrived)
        } else {
            give_up.saturating_duration_since(arrived)
        };
        let events = if out_pos < out.len() {
            sys::POLLIN | sys::POLLOUT
        } else {
            sys::POLLIN
        };
        sys::wait(fd, events, wait);
    }
    stream
        .set_nonblocking(false)
        .expect("blocking probe socket");
    (outcomes, stream)
}

/// The `id` of a response line, read without a full parse.
pub fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix(r#"{"id":"#)?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Times one `Ping` on an idle connection: a round trip near the 250 ms
/// idle poll means the connection's event thread missed its wake-up.
pub fn ping_us(stream: &mut TcpStream, id: u64) -> Option<f64> {
    stream.set_read_timeout(Some(Duration::from_secs(3))).ok()?;
    let start = Instant::now();
    stream
        .write_all(format!("{{\"id\":{id},\"cmd\":\"Ping\"}}\n").as_bytes())
        .ok()?;
    let mut got = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(1) if byte[0] == b'\n' => break,
            Ok(1) => got.push(byte[0]),
            _ => return None,
        }
    }
    let rtt = crate::util::micros(start.elapsed());
    (response_id(&String::from_utf8_lossy(&got)) == Some(id)).then_some(rtt)
}
