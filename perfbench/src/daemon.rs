//! Spawning, probing and draining `brokerctl serve`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::gen::{reply_fields, roundtrip};
use crate::workload::{frame_line, Workload};

/// Longest a daemon may take to answer its first `ping`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest a drained daemon may take to exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// How to start the daemon for one workload.
#[derive(Debug, Clone)]
pub struct Launch {
    pub brokerctl: PathBuf,
    pub workload: Workload,
    /// Pass `--core reactor` (while the binary offers a `--core` flag;
    /// once the reactor is the only core the flag is omitted). Either
    /// way [`Launch::start`] checks in `stats` that the reactor serves.
    pub reactor_flag: bool,
}

impl Launch {
    pub fn new(brokerctl: PathBuf, workload: Workload) -> io::Result<Launch> {
        let help = Command::new(&brokerctl)
            .arg("help")
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()?;
        let text = String::from_utf8_lossy(&help.stdout);
        Ok(Launch {
            brokerctl,
            workload,
            reactor_flag: text.contains("--core"),
        })
    }

    /// The daemon's command-line flags (after `serve`).
    pub fn flags(&self, addr: SocketAddr, state_dir: Option<&Path>) -> Vec<String> {
        let mut flags = vec!["--addr".to_owned(), addr.to_string()];
        if self.reactor_flag {
            flags.extend(["--core".to_owned(), "reactor".to_owned()]);
        }
        if self.workload.hybrid() {
            flags.push("--hybrid".to_owned());
        }
        if let Some(dir) = state_dir {
            flags.extend(["--state-dir".to_owned(), dir.display().to_string()]);
        }
        flags
    }

    /// Spawns a daemon and waits for its first answered `ping`. Returns
    /// the daemon and the seconds from spawn to that answer. Fails unless
    /// the daemon's `stats` name the reactor as its serving core.
    pub fn start(&self, state_dir: Option<&Path>) -> io::Result<(Daemon, f64)> {
        let addr = free_addr()?;
        let started = Instant::now();
        let child = Command::new(&self.brokerctl)
            .arg("serve")
            .args(self.flags(addr, state_dir))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut daemon = Daemon { child, addr };
        let mut stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) if started.elapsed() < START_TIMEOUT => {
                    if let Some(status) = daemon.child.try_wait()? {
                        return Err(io::Error::other(format!(
                            "brokerctl serve exited before answering: {status}"
                        )));
                    }
                    thread::sleep(Duration::from_micros(50));
                }
                Err(e) => {
                    daemon.kill();
                    return Err(e);
                }
            }
        };
        let _ = stream.set_nodelay(true);
        let (line, _) = roundtrip(&mut stream, &frame_line(0, "ping", "null"))?;
        let setup_s = started.elapsed().as_secs_f64();
        if !matches!(reply_fields(&line), Some((200, ..))) {
            daemon.kill();
            return Err(io::Error::other(format!(
                "ping answered {}",
                String::from_utf8_lossy(&line)
            )));
        }
        let core = stats(&mut stream)?;
        match core.get("core").and_then(Value::as_str) {
            Some("reactor") => Ok((daemon, setup_s)),
            other => {
                daemon.kill();
                Err(io::Error::other(format!(
                    "the daemon serves on core {other:?}, not the reactor"
                )))
            }
        }
    }
}

/// Picks a loopback port that is free right now.
fn free_addr() -> io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

/// A running daemon process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Sends `shutdown` on `stream` and waits for the drained daemon to
    /// exit; kills it if it does not.
    pub fn shutdown(mut self, stream: &mut TcpStream) -> io::Result<()> {
        let sent = roundtrip(stream, &frame_line(u64::MAX >> 1, "shutdown", "null"));
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait()? {
                Some(status) if status.success() && sent.is_ok() => return Ok(()),
                Some(status) => {
                    return Err(io::Error::other(format!("daemon exited with {status}")))
                }
                None if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
                None => {
                    self.kill();
                    return Err(io::Error::other("daemon did not exit after shutdown"));
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// The daemon's `stats` body.
pub fn stats(stream: &mut TcpStream) -> io::Result<Value> {
    let (line, _) = roundtrip(stream, &frame_line(u64::MAX >> 2, "stats", "null"))?;
    let (code, _, _, body) =
        reply_fields(&line).ok_or_else(|| io::Error::other("unparsable stats reply"))?;
    if code != 200 {
        return Err(io::Error::other(format!("stats answered {code}")));
    }
    serde_json::from_slice(&body).map_err(|e| io::Error::other(format!("stats body: {e}")))
}

/// Counter deltas between two `stats` bodies.
#[derive(Debug, Clone, Default)]
pub struct StatsDelta {
    pub hit: u64,
    pub miss: u64,
    pub stale: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub responses: u64,
    /// `(endpoint, hit, miss, stale)`.
    pub by_endpoint: Vec<(String, u64, u64, u64)>,
    /// `(shard, served)`.
    pub served_by_shard: Vec<(String, u64)>,
}

impl StatsDelta {
    pub fn between(before: &Value, after: &Value) -> StatsDelta {
        let get = |v: &Value, path: &[&str]| -> u64 {
            let mut cur = v;
            for p in path {
                match cur.get(p) {
                    Some(next) => cur = next,
                    None => return 0,
                }
            }
            cur.as_u64().unwrap_or(0)
        };
        let d = |path: &[&str]| get(after, path).saturating_sub(get(before, path));
        let keys = |v: &Value, key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_object)
                .map(|m| m.keys().cloned().collect())
                .unwrap_or_default()
        };
        let by_endpoint = keys(after, "cache_by_endpoint")
            .into_iter()
            .map(|e| {
                let f = |verdict: &str| d(&["cache_by_endpoint", &e, verdict]);
                let (h, m, s) = (f("hit"), f("miss"), f("stale"));
                (e, h, m, s)
            })
            .collect();
        let served_by_shard = keys(after, "shards")
            .into_iter()
            .map(|s| {
                let served = d(&["shards", &s, "served"]);
                (s, served)
            })
            .collect();
        StatsDelta {
            hit: d(&["cache", "hit"]),
            miss: d(&["cache", "miss"]),
            stale: d(&["cache", "stale"]),
            coalesced: d(&["coalesced"]),
            shed: d(&["shed"]),
            responses: d(&["responses"]),
            by_endpoint,
            served_by_shard,
        }
    }

    /// Hits over cache lookups.
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hit + self.miss + self.stale;
        if lookups == 0 {
            0.0
        } else {
            self.hit as f64 / lookups as f64
        }
    }

    /// Busiest shard's served count over the mean (1.0 = balanced).
    pub fn shard_imbalance(&self) -> f64 {
        let served: Vec<f64> = self
            .served_by_shard
            .iter()
            .map(|(_, n)| *n as f64)
            .collect();
        let mean = crate::util::mean(&served);
        if mean == 0.0 {
            1.0
        } else {
            served.iter().copied().fold(0.0, f64::max) / mean
        }
    }
}
