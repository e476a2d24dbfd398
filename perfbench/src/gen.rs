//! The load generator: one thread driving no more connections than
//! CPUs. The fixed-rate phase is an open loop — every request has a
//! due time on a fixed schedule and its latency is measured from that due
//! time, so a stalled daemon cannot slow the arrivals that measure it.
//! The saturating phase is a closed loop with a fixed window per
//! connection.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::util::{body_hash, top_level_fields};
use crate::workload::Plan;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// How long a phase waits for its last replies before counting them as
/// failed.
const DRAIN_GRACE: Duration = Duration::from_secs(60);

/// Asks the kernel to wake this thread's timed waits without the default
/// 50 µs slack, so requests leave close to their due times. Affects only
/// the calling thread.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Waits until a connection is readable (or writable, with `want_write`)
/// or the timeout passes.
fn wait_fds(wires: &[Wire<'_>], want_write: bool, timeout: Duration) {
    let mut pfds: Vec<PollFd> = wires
        .iter()
        .map(|w| PollFd {
            fd: w.fd(),
            events: POLLIN | if want_write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: valid pollfds, a valid timespec, and no signal mask.
    unsafe {
        ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null());
    }
}

/// One reply as the generator saw it. Times are ns since the run origin.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub op: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub code: u16,
    pub epoch: u64,
    pub cached: bool,
    pub hash: u128,
    /// `(accepted, rejected)` batches, for `sync` replies.
    pub sync: Option<(u64, u64)>,
}

impl Reply {
    pub fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    pub fn lateness_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// The fields of one response line.
struct Parsed<'a> {
    id: u64,
    code: u16,
    epoch: u64,
    cached: bool,
    body: Option<&'a [u8]>,
}

/// Parses a response line. The daemon writes `body` first, so the fast
/// path finds the envelope tail from the end without scanning the body;
/// any other layout falls back to a full top-level scan.
fn parse_line(line: &[u8]) -> Option<Parsed<'_>> {
    const HEAD: &[u8] = b"{\"body\":";
    const TAIL: &[u8] = b",\"cached\":";
    // Fast path: `{"body":<body>,"cached":...}` -- the last `,"cached":`
    // starts the envelope tail, which is rescanned as an object of its own.
    let fast = if line.starts_with(HEAD) {
        line.windows(TAIL.len()).rposition(|w| w == TAIL)
    } else {
        None
    };
    let tail: Vec<u8>;
    let (scan, fast_body) = match fast {
        Some(pos) => {
            tail = [&b"{"[..], &line[pos + 1..]].concat();
            (&tail[..], Some(&line[HEAD.len()..pos]))
        }
        None => (line, None),
    };
    let fields = top_level_fields(scan)?;
    let mut parsed = Parsed {
        id: u64::MAX,
        code: 0,
        epoch: 0,
        cached: false,
        body: fast_body,
    };
    let text = |r: &std::ops::Range<usize>| std::str::from_utf8(&scan[r.clone()]).unwrap_or("");
    for (key, range) in &fields {
        match *key {
            b"id" => parsed.id = text(range).parse().ok()?,
            b"code" => parsed.code = text(range).parse().ok()?,
            b"epoch" => parsed.epoch = text(range).parse().ok()?,
            b"cached" => parsed.cached = text(range) == "true",
            b"body" if fast.is_none() => parsed.body = Some(&line[range.clone()]),
            _ => {}
        }
    }
    Some(parsed)
}

/// A nonblocking connection with its read and write buffers.
pub struct Wire<'s> {
    stream: &'s mut TcpStream,
    rbuf: Vec<u8>,
    scanned: usize,
    wbuf: Vec<u8>,
    wpos: usize,
}

impl<'s> Wire<'s> {
    pub fn new(stream: &'s mut TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        Ok(Wire {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            scanned: 0,
            wbuf: Vec::with_capacity(1 << 14),
            wpos: 0,
        })
    }

    fn queue(&mut self, frame: &str) {
        self.wbuf.extend_from_slice(frame.as_bytes());
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads what is available and hands each complete line to `on_line`.
    fn read_lines(&mut self, mut on_line: impl FnMut(&[u8])) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut start = 0;
        while let Some(off) = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + off;
            on_line(&self.rbuf[start..end]);
            start = end + 1;
            self.scanned = start;
        }
        self.scanned = self.rbuf.len();
        if start > 0 {
            self.rbuf.drain(..start);
            self.scanned -= start;
        }
        Ok(())
    }

    fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    fn writing(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    pub fn into_blocking(self) -> io::Result<()> {
        self.stream.set_nonblocking(false)
    }
}

/// What one connection collected over a phase.
#[derive(Debug, Default)]
pub struct Collected {
    pub replies: Vec<Reply>,
    /// Distinct answer bodies by hash, when the phase keeps them.
    pub bodies: HashMap<u128, String>,
    /// Operations that got no usable reply.
    pub lost: Vec<(u64, String)>,
}

impl Collected {
    pub fn merge(&mut self, other: Collected) {
        self.replies.extend(other.replies);
        for (k, v) in other.bodies {
            self.bodies.entry(k).or_insert(v);
        }
        self.lost.extend(other.lost);
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop: operation `first + k` is due at `start + k / rate`; the
    /// connections take turns.
    Open { rate: f64, first: u64, count: u64 },
    /// Closed loop: keep `window` requests in flight per connection until
    /// `seconds` after the start; operations are numbered from the shared
    /// counter.
    Closed { window: usize, seconds: f64 },
}

/// One phase across all connections, driven from the calling thread,
/// which sleeps in `ppoll` until the next due time or the next reply.
pub fn run_phase(
    plan: &Plan,
    conns: &mut [TcpStream],
    origin: Instant,
    pace: Pace,
    next_op: &AtomicU64,
    keep_bodies: bool,
) -> Collected {
    tighten_timer_slack();
    let mut out = Collected::default();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let start_ns = now_ns() + 2_000_000;
    let mut wires = Vec::with_capacity(conns.len());
    for stream in conns.iter_mut() {
        match Wire::new(stream) {
            Ok(w) => wires.push(w),
            Err(e) => {
                out.lost.push((u64::MAX, format!("connection setup: {e}")));
                return out;
            }
        }
    }
    let n = wires.len();
    // op -> (connection, due, sent)
    let mut pending: HashMap<u64, (usize, u64, u64)> = HashMap::new();
    let mut in_flight = vec![0usize; n];
    let (count, rate, first) = match pace {
        Pace::Open { rate, first, count } => (count, rate, first),
        Pace::Closed { .. } => (0, 0.0, 0),
    };
    let due = |k: u64| start_ns + (k as f64 * 1e9 / rate) as u64;
    let until_ns = match pace {
        Pace::Closed { seconds, .. } => start_ns + (seconds * 1e9) as u64,
        Pace::Open { .. } => due(count),
    };
    let give_up_ns = until_ns + DRAIN_GRACE.as_nanos() as u64;
    let mut k = 0u64;
    let mut error: Option<String> = None;
    'phase: loop {
        let now = now_ns();
        match pace {
            Pace::Open { .. } => {
                while k < count && due(k) <= now {
                    let op = first + k;
                    let c = (k % n as u64) as usize;
                    wires[c].queue(&plan.frame(op));
                    pending.insert(op, (c, due(k), now_ns()));
                    in_flight[c] += 1;
                    k += 1;
                }
            }
            Pace::Closed { window, .. } => {
                if now >= start_ns && now < until_ns {
                    for (c, wire) in wires.iter_mut().enumerate() {
                        while in_flight[c] < window {
                            let op = next_op.fetch_add(1, Ordering::AcqRel);
                            wire.queue(&plan.frame(op));
                            let t = now_ns();
                            pending.insert(op, (c, t, t));
                            in_flight[c] += 1;
                        }
                    }
                }
            }
        }
        let mut got = 0usize;
        for wire in wires.iter_mut() {
            if let Err(e) = wire.flush() {
                error = Some(format!("write: {e}"));
                break 'phase;
            }
            let read = wire.read_lines(|line| {
                got += 1;
                let recv_ns = now_ns();
                let Some(p) = parse_line(line) else {
                    out.lost
                        .push((u64::MAX, format!("unparsable reply: {}", preview(line))));
                    return;
                };
                let Some((c, due_ns, sent_ns)) = pending.remove(&p.id) else {
                    out.lost.push((p.id, "reply to an unknown id".into()));
                    return;
                };
                in_flight[c] -= 1;
                let body = p.body.unwrap_or(b"");
                let sync = if plan.op(p.id).ask == crate::workload::Ask::Sync {
                    sync_counts(body)
                } else {
                    None
                };
                let hash = body_hash(body);
                if keep_bodies && p.code == 200 && sync.is_none() {
                    out.bodies
                        .entry(hash)
                        .or_insert_with(|| String::from_utf8_lossy(body).into_owned());
                }
                out.replies.push(Reply {
                    op: p.id,
                    due_ns,
                    sent_ns,
                    recv_ns,
                    code: p.code,
                    epoch: p.epoch,
                    cached: p.cached,
                    hash,
                    sync,
                });
            });
            if let Err(e) = read {
                error = Some(format!("read: {e}"));
                break 'phase;
            }
        }
        let now = now_ns();
        let sending_done = match pace {
            Pace::Open { .. } => k >= count,
            Pace::Closed { .. } => now >= until_ns,
        };
        if sending_done && pending.is_empty() {
            break;
        }
        if now > give_up_ns {
            error = Some("no reply within the drain grace".into());
            break;
        }
        if got > 0 {
            continue;
        }
        let wait = match pace {
            Pace::Open { .. } if k < count => due(k).saturating_sub(now),
            _ if now < start_ns => start_ns - now,
            _ => until_ns.saturating_sub(now).clamp(1, 20_000_000),
        };
        if wait > 0 {
            let writing = wires.iter().any(Wire::writing);
            wait_fds(&wires, writing, Duration::from_nanos(wait));
        }
    }
    if let Some(e) = error {
        for (op, _) in pending.drain() {
            out.lost.push((op, e.clone()));
        }
    }
    for wire in wires {
        let _ = wire.into_blocking();
    }
    if let Pace::Open { first, count, .. } = pace {
        next_op.fetch_max(first + count, Ordering::AcqRel);
    }
    out
}

fn preview(line: &[u8]) -> String {
    String::from_utf8_lossy(&line[..line.len().min(160)]).into_owned()
}

/// `(accepted, rejected)` from a `sync` reply body.
fn sync_counts(body: &[u8]) -> Option<(u64, u64)> {
    let value: serde_json::Value = serde_json::from_slice(body).ok()?;
    Some((
        value.get("accepted")?.as_u64()?,
        value.get("rejected")?.as_u64()?,
    ))
}

/// Sends one frame on a blocking stream and waits for its reply line.
/// Returns the raw line (without the newline) and the round-trip time.
pub fn roundtrip(stream: &mut TcpStream, frame: &str) -> io::Result<(Vec<u8>, Duration)> {
    let started = Instant::now();
    stream.write_all(frame.as_bytes())?;
    let mut line = Vec::new();
    let mut byte = [0u8; 64 * 1024];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        line.extend_from_slice(&byte[..n]);
        if line.last() == Some(&b'\n') {
            line.pop();
            return Ok((line, started.elapsed()));
        }
    }
}

/// The `(code, epoch, cached, body)` of a reply line from [`roundtrip`].
pub fn reply_fields(line: &[u8]) -> Option<(u16, u64, bool, Vec<u8>)> {
    let p = parse_line(line)?;
    Some((p.code, p.epoch, p.cached, p.body.unwrap_or(b"").to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_daemon_layout_and_others() {
        let line = br#"{"body":{"x":",\"cached\":"},"cached":true,"coalesced":false,"code":200,"epoch":3,"id":17,"status":"ok","v":1}"#;
        let p = parse_line(line).unwrap();
        assert_eq!((p.id, p.code, p.epoch, p.cached), (17, 200, 3, true));
        assert_eq!(p.body.unwrap(), br#"{"x":",\"cached\":"}"#);
        let other = br#"{"id":5,"code":429,"epoch":1,"status":"shed","error":"queue full"}"#;
        let p = parse_line(other).unwrap();
        assert_eq!((p.id, p.code, p.body.is_none()), (5, 429, true));
        let reordered = br#"{"id":6,"cached":false,"body":[1,2],"code":200,"epoch":0}"#;
        let p = parse_line(reordered).unwrap();
        assert_eq!((p.id, p.body.unwrap()), (6, &b"[1,2]"[..]));
    }
}
