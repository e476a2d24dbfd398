//! Readers for the `/proc` figures a run reports: a process's CPU time
//! and peak RSS, its threads' context switches, and host steal time.

use std::collections::BTreeMap;
use std::fs;
use std::io;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second for `/proc/*/stat` times.
pub fn clock_ticks() -> f64 {
    // SAFETY: sysconf takes no pointers and has no preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// User and system CPU of a whole process (all threads), microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_us: f64,
    pub sys_us: f64,
}

impl Cpu {
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }
}

/// `utime` and `stime` from `/proc/<pid>/stat` (`"self"` for this process).
pub fn cpu(pid: &str) -> Cpu {
    let Ok(text) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return Cpu::default();
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick_us = 1e6 / clock_ticks();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Cpu {
        user_us: field(11) * tick_us,
        sys_us: field(12) * tick_us,
    }
}

/// A whole process's CPU time in nanoseconds (`"self"` for this
/// process), read from the kernel's per-process CPU-time clock
/// (`clock_getcpuclockid`). It counts every thread the process ever had,
/// threads that have exited included, and it is nanosecond-exact, unlike
/// the tick-sampled times of `/proc/<pid>/stat`.
pub fn cpu_ns(pid: &str) -> io::Result<u64> {
    let pid: i32 = match pid {
        "self" => 0,
        n => n
            .parse()
            .map_err(|_| io::Error::other(format!("bad pid {n}")))?,
    };
    let mut clock = 0i32;
    // SAFETY: `clock` is a valid out-pointer for the call's duration.
    let err = unsafe { clock_getcpuclockid(pid, &mut clock) };
    if err != 0 {
        return Err(io::Error::from_raw_os_error(err));
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for the call's duration.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// On-CPU and run-queue time summed over a process's threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub run_ns: u64,
    pub wait_ns: u64,
}

/// Per-thread `/proc/<pid>/task/<tid>/schedstat` readings, by tid.
#[derive(Debug, Clone, Default)]
pub struct Tasks(BTreeMap<String, Sched>);

impl Tasks {
    /// The time the threads alive now spent since `earlier`; a thread
    /// started in between counts from zero. A thread that exited in
    /// between is missing: its time is in [`cpu_ns`] only.
    pub fn since(&self, earlier: &Tasks) -> Sched {
        let mut total = Sched::default();
        for (tid, now) in &self.0 {
            let was = earlier.0.get(tid).copied().unwrap_or_default();
            total.run_ns += now.run_ns.saturating_sub(was.run_ns);
            total.wait_ns += now.wait_ns.saturating_sub(was.wait_ns);
        }
        total
    }
}

pub fn tasks(pid: &str) -> Tasks {
    let mut tasks = Tasks::default();
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return tasks;
    };
    for entry in dir.flatten() {
        let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let sched = Sched {
            run_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        };
        tasks
            .0
            .insert(entry.file_name().to_string_lossy().into_owned(), sched);
    }
    tasks
}

/// A `kB` field of `/proc/<pid>/status`, in megabytes.
pub fn status_mb(pid: &str, key: &str) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-thread `(name, voluntary + involuntary context switches)`.
pub fn task_switches(pid: &str) -> Vec<(String, u64)> {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Ok(text) = fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        let mut name = String::new();
        let mut switches = 0u64;
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("Name:") {
                name = format!("{}/{}", v.trim(), entry.file_name().to_string_lossy());
            } else if line.starts_with("voluntary_ctxt_switches:")
                || line.starts_with("nonvoluntary_ctxt_switches:")
            {
                switches += line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        out.push((name, switches));
    }
    out.sort();
    out
}

/// Total context switches between two per-thread readings (threads that
/// appeared in between count from zero).
pub fn switches_between(before: &[(String, u64)], after: &[(String, u64)]) -> u64 {
    after
        .iter()
        .map(|(name, n)| {
            let was = before
                .iter()
                .find(|(b, _)| b == name)
                .map_or(0, |(_, v)| *v);
            n.saturating_sub(was)
        })
        .sum()
}

/// Host-wide steal ticks (the `steal` column of `/proc/stat`'s `cpu` line).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or(0)
}

/// CPUs this process may use.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
