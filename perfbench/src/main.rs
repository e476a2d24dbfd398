//! `perfbench`: runs one workload against a freshly spawned
//! `brokerctl serve`, checks every answer, and prints the run's metrics as
//! the last line of standard output.
//!
//! ```text
//! perfbench --workload hit-path|miss-path|sync-churn --seed N --seconds S
//!           --trace 0|1 --brokerctl PATH --work-dir DIR
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (from the daemon's `stats`, `/proc`, and an in-process traced
//! replay). See `perfbench/README.md`.

mod check;
mod daemon;
mod gen;
mod procfs;
mod traced;
mod util;
mod workload;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use serde_json::Value;
use uptime_serve::ServeBackend;

use crate::check::{
    check_answer, check_metacloud, check_paper_case, check_recommend, SyncObservation,
};
use crate::daemon::{Launch, StatsDelta};
use crate::gen::{roundtrip, run_phase, Collected, Pace, Reply};
use crate::util::{median, quantile};
use crate::workload::{
    frame_line, Ask, Plan, Workload, FIXED_SHARE, SETUP_GROUP, SPELLINGS, SYNC_BODY, SYNC_KEY,
    WARM_SECONDS,
};

type Res<T> = Result<T, String>;

/// Sequential `sync` requests sent after the timed phases of the
/// workloads whose streams have none, to report `sync_p50_ms` there.
const SYNC_PROBES: u64 = 40;
/// Width of the windows whose completion rates give `peak_rps`.
const RATE_WINDOW_NS: u64 = 250_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    brokerctl: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Res<Args> {
    let mut map = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: get("--trace")? == "1",
        brokerctl: PathBuf::from(get("--brokerctl")?),
        work: PathBuf::from(get("--work-dir")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args.work.join(format!("run-{}", std::process::id()));
    let result = fs::create_dir_all(&work)
        .map_err(|e| format!("work dir {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A failed operation or check, kept for the report.
#[derive(Default)]
struct Verdict {
    failed_ops: std::collections::BTreeSet<u64>,
    problems: Vec<String>,
}

impl Verdict {
    fn op(&mut self, op: u64, why: String) {
        if self.failed_ops.insert(op) && self.problems.len() < 20 {
            self.problems.push(format!("op {op}: {why}"));
        }
    }

    fn check(&mut self, what: &str, result: Res<()>) {
        if let Err(e) = result {
            self.problems.push(format!("{what}: {e}"));
        }
    }
}

/// Reference answers for the hot pool, one per key, from a direct
/// in-process call against the daemon's starting state.
fn reference_pool(plan: &Plan, prepared: Option<&Path>, work: &Path) -> Res<Vec<String>> {
    let dir = match prepared {
        Some(src) => {
            let dst = work.join("reference-state");
            traced::copy_dir(src, &dst)?;
            Some(dst)
        }
        None => None,
    };
    let (backend, _) = traced::backend(false, dir.as_deref(), Arc::new(uptime_obs::NoopRecorder))?;
    let mut answers = Vec::new();
    for (key, ask) in plan.pool.iter().enumerate() {
        // The workload's premise: every spelling is the same cache key.
        let prints: Vec<_> = (0..SPELLINGS)
            .map(|s| {
                let body: Value = serde_json::from_str(&ask.body(s)).map_err(|e| e.to_string())?;
                backend
                    .fingerprint(ask.endpoint(), &body)
                    .map_err(|e| format!("spelling {s} of key {key}: {}", e.message()))
            })
            .collect::<Res<_>>()?;
        if prints.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!(
                "spellings of hot key {key} fingerprint differently"
            ));
        }
        let answer = traced::direct_answer(backend.service(), ask)?;
        check_answer(&answer, ask).map_err(|e| format!("reference answer for key {key}: {e}"))?;
        if key == 0 && prepared.is_none() {
            let value: Value = serde_json::from_str(&answer).map_err(|e| e.to_string())?;
            check_paper_case(&check_recommend(&value, ask)?)?;
        }
        answers.push(answer);
    }
    if let Some(d) = dir {
        let _ = fs::remove_dir_all(d);
    }
    Ok(answers)
}

/// Trials the fixed-rate phase is split into.
const TRIALS: u64 = 16;

/// The figures of one fixed-rate trial.
#[derive(Debug, Clone, Copy)]
struct Trial {
    p50_ms: f64,
    p99_ms: f64,
    cpu_us_per_req: f64,
}

impl Trial {
    fn of(replies: &[Reply], run_ns: u64) -> Trial {
        let lat = latencies(replies, |_| true);
        Trial {
            p50_ms: quantile(&lat, 0.5),
            p99_ms: quantile(&lat, 0.99),
            cpu_us_per_req: run_ns as f64 / 1e3 / replies.len().max(1) as f64,
        }
    }
}

/// Everything measured around the timed phases.
struct Observed {
    setup_s: Vec<f64>,
    warm: Collected,
    fixed: Collected,
    saturating: Collected,
    probes: Vec<Reply>,
    fixed_ops: u64,
    sat_window: (u64, u64),
    cpu: procfs::Cpu,
    /// The daemon's CPU over the fixed-rate phase, every thread counted.
    cpu_ns: u64,
    /// Its live threads' `schedstat` over the same phase.
    sched: procfs::Sched,
    trials: Vec<Trial>,
    sat_cpu_ns: u64,
    gen_cpu_us: f64,
    rss_mb: f64,
    switches: u64,
    task_switches: Vec<(String, u64)>,
    steal_ticks: u64,
    timed: StatsDelta,
    saturating_stats: StatsDelta,
    initial_epoch: u64,
}

fn drive_daemon(
    args: &Args,
    plan: &Plan,
    prepared: Option<&Path>,
    pool: &[String],
    work: &Path,
) -> Res<Observed> {
    let shape = args.workload.shape();
    // Precise wake-ups for the whole run: the spawns' connect polling as
    // well as the generator's due times.
    gen::tighten_timer_slack();
    let launch = Launch::new(args.brokerctl.clone(), args.workload)
        .map_err(|e| format!("running {}: {e}", args.brokerctl.display()))?;
    let state_copy = |name: &str| -> Res<Option<PathBuf>> {
        match prepared {
            Some(src) => {
                let dst = work.join(format!("state-{name}"));
                traced::copy_dir(src, &dst)?;
                Ok(Some(dst))
            }
            None => Ok(None),
        }
    };
    // Set-up time: spawn to first answered ping. The spawns come in
    // groups spread over the whole run (before it, between the fixed-rate
    // trials and after it), so that their median samples the host over
    // the run rather than over one moment.
    let mut spawned = 0usize;
    let mut spawn = || -> Res<(daemon::Daemon, f64)> {
        let dir = state_copy(&spawned.to_string())?;
        spawned += 1;
        let started = launch
            .start(dir.as_deref())
            .map_err(|e| format!("daemon start: {e}"));
        if let Some(dir) = dir {
            let _ = fs::remove_dir_all(dir);
        }
        started
    };
    let mut time_setups = |count: usize, setup_s: &mut Vec<f64>| -> Res<()> {
        for _ in 0..count {
            let (d, secs) = spawn()?;
            setup_s.push(secs);
            let mut s = d.connect().map_err(|e| e.to_string())?;
            d.shutdown(&mut s)
                .map_err(|e| format!("daemon shutdown: {e}"))?;
        }
        Ok(())
    };
    // The kept daemon's state copy stays until the run ends.
    let kept_state = state_copy("kept")?;
    let mut setup_s = Vec::with_capacity(SETUP_GROUP * (TRIALS as usize + 1));
    time_setups(SETUP_GROUP - 1, &mut setup_s)?;
    let (daemon, secs) = launch
        .start(kept_state.as_deref())
        .map_err(|e| format!("daemon start: {e}"))?;
    setup_s.push(secs);
    let pid = daemon.pid();
    let mut conns: Vec<TcpStream> = (0..procfs::cpus().clamp(1, 8))
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let origin = Instant::now();
    let next_op = AtomicU64::new(0);
    let keep_bodies = args.workload == Workload::SyncChurn;

    // Warm-up: every hot entry on every connection, one at a time, then a
    // short open-loop stretch at the fixed rate.
    let mut warm = Collected::default();
    if !plan.pool.is_empty() && args.workload != Workload::MissPath {
        for (c, conn) in conns.iter_mut().enumerate() {
            for (key, ask) in plan.pool.iter().enumerate() {
                for spelling in 0..SPELLINGS {
                    let id =
                        (1 << 50) + ((c * plan.pool.len() + key) * SPELLINGS + spelling) as u64;
                    let sent = origin.elapsed().as_nanos() as u64;
                    let (line, _) =
                        roundtrip(conn, &frame_line(id, ask.endpoint(), &ask.body(spelling)))
                            .map_err(|e| format!("warm-up: {e}"))?;
                    let (code, epoch, cached, body) =
                        gen::reply_fields(&line).ok_or("unparsable warm-up reply")?;
                    if code != 200 || body != pool[key].as_bytes() {
                        return Err(format!(
                            "warm-up key {key} spelling {spelling}: code {code}, body differs from the direct in-process answer"
                        ));
                    }
                    warm.replies.push(Reply {
                        op: id,
                        due_ns: sent,
                        sent_ns: sent,
                        recv_ns: origin.elapsed().as_nanos() as u64,
                        code,
                        epoch,
                        cached,
                        hash: util::body_hash(&body),
                        sync: None,
                    });
                }
            }
        }
    }
    let period = args.workload.period();
    let whole_periods = |ops: f64| ((ops / period as f64) as u64).max(1) * period;
    let warm_count = whole_periods(shape.fixed_rate * WARM_SECONDS);
    warm.merge(run_phase(
        plan,
        &mut conns,
        origin,
        Pace::Open {
            rate: shape.fixed_rate,
            first: 0,
            count: warm_count,
        },
        &next_op,
        keep_bodies,
    ));
    let initial_epoch = warm.replies.first().map_or(0, |r| r.epoch);

    // Fixed-rate phase, as trials of equal length; the
    // reported figures are medians over the trials.
    let fixed_seconds = args.seconds * FIXED_SHARE;
    let per_trial = whole_periods(shape.fixed_rate * fixed_seconds / TRIALS as f64);
    let fixed_ops = per_trial * TRIALS;
    let s0 = daemon::stats(&mut conns[0]).map_err(|e| format!("stats: {e}"))?;
    let daemon_cpu = || procfs::cpu_ns(&pid).map_err(|e| format!("daemon cpu clock: {e}"));
    let cpu0 = procfs::cpu(&pid);
    let cpu_ns0 = daemon_cpu()?;
    let tasks0 = procfs::tasks(&pid);
    let mut gen_cpu_ns = 0u64;
    let sw0 = procfs::task_switches(&pid);
    let steal0 = procfs::steal_ticks();
    let mut fixed = Collected::default();
    let mut trials = Vec::with_capacity(TRIALS as usize);
    for t in 0..TRIALS {
        if t > 0 {
            time_setups(SETUP_GROUP, &mut setup_s)?;
        }
        let gen_before = procfs::cpu_ns("self").unwrap_or(0);
        let before = daemon_cpu()?;
        let collected = run_phase(
            plan,
            &mut conns,
            origin,
            Pace::Open {
                rate: shape.fixed_rate,
                first: warm_count + t * per_trial,
                count: per_trial,
            },
            &next_op,
            keep_bodies,
        );
        let run_ns = daemon_cpu()?.saturating_sub(before);
        gen_cpu_ns += procfs::cpu_ns("self")
            .unwrap_or(0)
            .saturating_sub(gen_before);
        trials.push(Trial::of(&collected.replies, run_ns));
        fixed.merge(collected);
    }
    let cpu = procfs::cpu(&pid).since(cpu0);
    let cpu_ns = daemon_cpu()?.saturating_sub(cpu_ns0);
    let sched = procfs::tasks(&pid).since(&tasks0);
    let rss_mb = procfs::status_mb(&pid, "VmHWM:");
    let sw1 = procfs::task_switches(&pid);
    let switches = procfs::switches_between(&sw0, &sw1);
    let task_switches = sw1
        .iter()
        .map(|(name, n)| {
            let was = sw0.iter().find(|(b, _)| b == name).map_or(0, |(_, v)| *v);
            (name.clone(), n.saturating_sub(was))
        })
        .collect();
    let s1 = daemon::stats(&mut conns[0]).map_err(|e| format!("stats: {e}"))?;

    // Saturating phase.
    let sat_seconds = args.seconds - fixed_seconds;
    let sat_start = origin.elapsed().as_nanos() as u64 + 2_000_000;
    let sat_cpu0 = daemon_cpu()?;
    let saturating = run_phase(
        plan,
        &mut conns,
        origin,
        Pace::Closed {
            window: shape.window,
            seconds: sat_seconds,
        },
        &next_op,
        keep_bodies,
    );
    let sat_cpu_ns = daemon_cpu()?.saturating_sub(sat_cpu0);
    let steal_ticks = procfs::steal_ticks().saturating_sub(steal0);
    let s2 = daemon::stats(&mut conns[0]).map_err(|e| format!("stats: {e}"))?;

    // `sync` latency on workloads whose streams carry none.
    let mut probes = Vec::new();
    if args.workload != Workload::SyncChurn {
        for i in 0..SYNC_PROBES {
            let id = (1 << 51) + i;
            let sent = origin.elapsed().as_nanos() as u64;
            let (line, _) = roundtrip(&mut conns[0], &frame_line(id, "sync", SYNC_BODY))
                .map_err(|e| format!("sync probe: {e}"))?;
            let recv = origin.elapsed().as_nanos() as u64;
            let (code, epoch, _, body) = gen::reply_fields(&line).ok_or("unparsable sync reply")?;
            let counts: Option<(u64, u64)> = serde_json::from_slice::<Value>(&body)
                .ok()
                .and_then(|v| Some((v.get("accepted")?.as_u64()?, v.get("rejected")?.as_u64()?)));
            probes.push(Reply {
                op: id,
                due_ns: sent,
                sent_ns: sent,
                recv_ns: recv,
                code,
                epoch,
                cached: false,
                hash: 0,
                sync: counts,
            });
        }
    }
    let mut control = conns.remove(0);
    drop(conns);
    daemon
        .shutdown(&mut control)
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    time_setups(SETUP_GROUP, &mut setup_s)?;
    Ok(Observed {
        setup_s,
        warm,
        fixed,
        saturating,
        probes,
        fixed_ops,
        sat_window: (sat_start, sat_start + (sat_seconds * 1e9) as u64),
        cpu,
        cpu_ns,
        sched,
        trials,
        sat_cpu_ns,
        gen_cpu_us: gen_cpu_ns as f64 / 1e3,
        rss_mb,
        switches,
        task_switches,
        steal_ticks,
        timed: StatsDelta::between(&s0, &s2),
        saturating_stats: StatsDelta::between(&s1, &s2),
        initial_epoch,
    })
}

/// Checks every reply of the run; returns the verdict and the number of
/// operations attempted.
fn verify(
    args: &Args,
    plan: &Plan,
    pool: &[String],
    obs: &Observed,
    bodies: &HashMap<u128, String>,
) -> (Verdict, u64) {
    let mut v = Verdict::default();
    let all: Vec<&Reply> = obs
        .warm
        .replies
        .iter()
        .chain(&obs.fixed.replies)
        .chain(&obs.saturating.replies)
        .chain(&obs.probes)
        .collect();
    let lost: Vec<&(u64, String)> = obs
        .warm
        .lost
        .iter()
        .chain(&obs.fixed.lost)
        .chain(&obs.saturating.lost)
        .collect();
    let attempted = all.len() as u64 + lost.len() as u64;
    for (op, why) in &lost {
        v.op(*op, why.clone());
    }
    let pool_hashes: Vec<u128> = pool.iter().map(|b| util::body_hash(b.as_bytes())).collect();
    let mut syncs = Vec::new();
    let mut cached_by_key_epoch: HashMap<(u64, u64), u128> = HashMap::new();
    let mut semantic: HashSet<(u128, u64)> = HashSet::new();
    let mut miss_ops: Vec<&Reply> = Vec::new();
    for r in &all {
        if r.code != 200 {
            v.op(r.op, format!("status {}", r.code));
            continue;
        }
        let (key, ask) = if r.op >= 1 << 51 {
            (SYNC_KEY, Ask::Sync)
        } else if r.op >= 1 << 50 {
            // Sequential warm-up pass; checked as it ran.
            continue;
        } else {
            let op = plan.op(r.op);
            (op.key, op.ask)
        };
        if ask == Ask::Sync {
            match r.sync {
                Some((accepted, rejected)) => syncs.push(SyncObservation {
                    sent_ns: r.sent_ns,
                    epoch: r.epoch,
                    accepted,
                    rejected,
                }),
                None => v.op(r.op, "sync reply without batch counts".into()),
            }
            continue;
        }
        match args.workload {
            Workload::HitPath => {
                if r.hash != pool_hashes[key as usize] {
                    v.op(
                        r.op,
                        format!(
                            "answer for hot key {key} differs from the direct in-process answer"
                        ),
                    );
                }
            }
            Workload::SyncChurn => {
                if r.epoch == obs.initial_epoch && r.hash != pool_hashes[key as usize] {
                    v.op(r.op, format!("answer for hot key {key} at the starting epoch differs from the direct in-process answer"));
                }
                if r.cached {
                    let first = *cached_by_key_epoch.entry((key, r.epoch)).or_insert(r.hash);
                    if first != r.hash {
                        v.op(
                            r.op,
                            format!(
                                "two cached answers for hot key {key} at epoch {} differ",
                                r.epoch
                            ),
                        );
                    }
                }
                if semantic.insert((r.hash, key)) {
                    match bodies.get(&r.hash) {
                        Some(body) => {
                            if let Err(e) = check_answer(body, &ask) {
                                v.op(r.op, e);
                            }
                        }
                        None => v.op(r.op, "answer body was not kept".into()),
                    }
                }
            }
            Workload::MissPath => miss_ops.push(r),
        }
    }
    if args.workload == Workload::MissPath {
        verify_misses(plan, &miss_ops, &mut v);
    }
    let replies: Vec<(u64, u64)> = all.iter().map(|r| (r.recv_ns, r.epoch)).collect();
    v.check("sync epochs", check::check_sync_epochs(&syncs, &replies));

    // Each workload does what its name says.
    let t = &obs.timed;
    match args.workload {
        Workload::HitPath => {
            if t.hit_ratio() < 0.99 {
                v.problems.push(format!(
                    "hit-path hit ratio {:.4} < 0.99 in the timed phases",
                    t.hit_ratio()
                ));
            }
        }
        Workload::MissPath => {
            if t.hit > 0 {
                v.problems.push(format!(
                    "miss-path had {} cache hits in the timed phases",
                    t.hit
                ));
            }
        }
        Workload::SyncChurn => {
            let timed_syncs = obs
                .fixed
                .replies
                .iter()
                .chain(&obs.saturating.replies)
                .filter(|r| r.sync.is_some())
                .count() as u64;
            if timed_syncs == 0 || t.stale < timed_syncs {
                v.problems.push(format!(
                    "sync-churn: {} stale recomputes after {timed_syncs} syncs",
                    t.stale
                ));
            }
        }
    }
    if t.shed > 0 {
        v.problems
            .push(format!("the daemon shed {} requests", t.shed));
    }
    (v, attempted)
}

/// `miss-path`: every answer byte-identical to a direct in-process call
/// on the hybrid catalog, that answer checked, and every `metacloud` TCO
/// no higher than the best single cloud for the same body.
fn verify_misses(plan: &Plan, replies: &[&Reply], v: &mut Verdict) {
    let (backend, _) = match traced::backend(true, None, Arc::new(uptime_obs::NoopRecorder)) {
        Ok(b) => b,
        Err(e) => {
            v.problems.push(format!("reference broker: {e}"));
            return;
        }
    };
    let service = backend.service();
    let threads = procfs::cpus().clamp(1, 8);
    let chunk = replies.len().div_ceil(threads).max(1);
    let results: Vec<Vec<(u64, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = replies
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    for r in part {
                        let op = plan.op(r.op);
                        let outcome = traced::direct_answer(service, &op.ask).and_then(|answer| {
                            if util::body_hash(answer.as_bytes()) != r.hash {
                                return Err(
                                    "answer differs from the direct in-process answer".into()
                                );
                            }
                            let Ask::Solution {
                                metacloud: true,
                                sla,
                                rate,
                                rounding,
                                ..
                            } = op.ask
                            else {
                                return check_answer(&answer, &op.ask).map(|_| ());
                            };
                            // The same body's best single cloud bounds the
                            // metacloud TCO from above.
                            let twin = Ask::Solution {
                                metacloud: false,
                                sla,
                                rate,
                                rounding,
                                topology: None,
                            };
                            let single =
                                check_answer(&traced::direct_answer(service, &twin)?, &twin)?;
                            let value: Value =
                                serde_json::from_str(&answer).map_err(|e| e.to_string())?;
                            check_metacloud(&value, &op.ask, single).map(|_| ())
                        });
                        if let Err(e) = outcome {
                            bad.push((r.op, e));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    for (op, e) in results.into_iter().flatten() {
        v.op(op, e);
    }
}

fn latencies(replies: &[Reply], filter: impl Fn(&Reply) -> bool) -> Vec<f64> {
    let mut l: Vec<f64> = replies
        .iter()
        .filter(|r| filter(r))
        .map(Reply::latency_ms)
        .collect();
    l.sort_by(f64::total_cmp);
    l
}

/// The p50 latency of each `width_ns` window of due times.
fn window_p50s(replies: &[Reply], width_ns: u64) -> Vec<f64> {
    let Some(start) = replies.iter().map(|r| r.due_ns).min() else {
        return Vec::new();
    };
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in replies {
        windows
            .entry((r.due_ns - start) / width_ns)
            .or_default()
            .push(r.latency_ms());
    }
    windows
        .into_values()
        .map(|mut l| {
            l.sort_by(f64::total_cmp);
            quantile(&l, 0.5)
        })
        .collect()
}

/// Completions per second in each full window of the saturating phase;
/// the median of those rates.
fn peak_rps(replies: &[Reply], window: (u64, u64)) -> f64 {
    let (start, end) = window;
    let buckets = ((end - start) / RATE_WINDOW_NS).max(1) as usize;
    let mut counts = vec![0u64; buckets];
    for r in replies {
        if r.recv_ns >= start && r.recv_ns < start + buckets as u64 * RATE_WINDOW_NS {
            counts[((r.recv_ns - start) / RATE_WINDOW_NS) as usize] += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 * 1e9 / RATE_WINDOW_NS as f64)
        .collect();
    median(&rates)
}

fn run(args: &Args, work: &Path) -> Res<String> {
    let plan = Plan::new(args.workload, args.seed);
    let prepared = if args.workload.durable() {
        let dir = work.join("prepared");
        traced::prepare_state(&dir)?;
        Some(dir)
    } else {
        None
    };
    let pool = if args.workload == Workload::MissPath {
        Vec::new()
    } else {
        reference_pool(&plan, prepared.as_deref(), work)?
    };
    let obs = drive_daemon(args, &plan, prepared.as_deref(), &pool, work)?;
    let mut bodies = HashMap::new();
    for c in [&obs.warm, &obs.fixed, &obs.saturating] {
        for (k, b) in &c.bodies {
            bodies.entry(*k).or_insert_with(|| b.clone());
        }
    }
    let (verdict, attempted) = verify(args, &plan, &pool, &obs, &bodies);

    // End-to-end figures.
    let fixed = &obs.fixed.replies;
    let lat = latencies(fixed, |_| true);
    let completed = fixed.len().max(1) as f64;
    let cpu_us_per_req = obs.cpu_ns as f64 / 1e3 / completed;
    // CPU of daemon threads that exited during the fixed-rate phase: the
    // process clock counts it, a sum over the live threads does not.
    let exited_us_per_req = obs.cpu_ns.saturating_sub(obs.sched.run_ns) as f64 / 1e3 / completed;
    let sync_lat = if args.workload == Workload::SyncChurn {
        latencies(fixed, |r| r.sync.is_some())
    } else {
        latencies(&obs.probes, |_| true)
    };
    let mut late: Vec<f64> = fixed.iter().map(Reply::lateness_us).collect();
    late.sort_by(f64::total_cmp);
    let peak = peak_rps(&obs.saturating.replies, obs.sat_window);
    let windows = window_p50s(fixed, 500_000_000);

    let trial = |f: fn(&Trial) -> f64| obs.trials.iter().map(f).collect::<Vec<f64>>();
    // The gated end-to-end metrics (BENCHMARK.json), then the figures
    // that are reported beside them but spread too much on a shared host
    // to gate on (see README.md, "Reference figures").
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("cpu_us_per_req", median(&trial(|t| t.cpu_us_per_req)), "us"),
        ("rss_mb", obs.rss_mb, "MB"),
        ("setup_s", median(&obs.setup_s), "s"),
    ];
    let reference: Vec<(&str, f64, &str)> = vec![
        ("p50_ms", median(&trial(|t| t.p50_ms)), "ms"),
        ("p99_ms", median(&trial(|t| t.p99_ms)), "ms"),
        ("peak_rps", peak, "1/s"),
        (
            "sat_cpu_us_per_req",
            obs.sat_cpu_ns as f64 / 1e3 / obs.saturating.replies.len().max(1) as f64,
            "us",
        ),
        ("sync_p50_ms", quantile(&sync_lat, 0.5), "ms"),
    ];

    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} seconds {} | fixed {} req at {} rps ({} samples) | saturating window {} x {} conns, {} completions",
        args.workload.name(),
        args.seed,
        args.seconds,
        obs.fixed_ops,
        args.workload.shape().fixed_rate,
        lat.len(),
        args.workload.shape().window,
        procfs::cpus().clamp(1, 8),
        obs.saturating.replies.len()
    );
    for (name, value, unit) in &e2e {
        let _ = writeln!(report, "  {name:<18} {value:>14.4} {unit}");
    }
    let _ = writeln!(report, "reference (not gated):");
    for (name, value, unit) in &reference {
        let _ = writeln!(report, "  {name:<18} {value:>14.4} {unit}");
    }
    let _ = writeln!(
        report,
        "noise: steal_ticks {} | daemon run-queue wait {:.2} us/req (live threads) | daemon cpu of exited threads {:.2} us/req | generator lateness p99 {:.1} us max {:.1} us | generator cpu {:.2} us/req",
        obs.steal_ticks,
        obs.sched.wait_ns as f64 / 1e3 / completed,
        exited_us_per_req,
        quantile(&late, 0.99),
        late.last().copied().unwrap_or(0.0),
        obs.gen_cpu_us / completed
    );
    let _ = writeln!(
        report,
        "fixed-phase p50 per 0.5 s window (ms): {}",
        windows
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let trial_line = |f: fn(&Trial) -> f64| {
        obs.trials
            .iter()
            .map(|t| format!("{:.4}", f(t)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(
        report,
        "saturating phase: daemon cpu {:.3} us per completion",
        obs.sat_cpu_ns as f64 / 1e3 / obs.saturating.replies.len().max(1) as f64
    );
    let _ = writeln!(report, "trials p50_ms: {}", trial_line(|t| t.p50_ms));
    let _ = writeln!(report, "trials p99_ms: {}", trial_line(|t| t.p99_ms));
    let _ = writeln!(
        report,
        "trials cpu_us_per_req: {}",
        trial_line(|t| t.cpu_us_per_req)
    );
    let t = &obs.timed;
    let _ = writeln!(
        report,
        "stats (timed phases): hit {} miss {} stale {} coalesced {} shed {} responses {}",
        t.hit, t.miss, t.stale, t.coalesced, t.shed, t.responses
    );
    for (endpoint, h, m, s) in &t.by_endpoint {
        let _ = writeln!(report, "  {endpoint:<10} hit {h} miss {m} stale {s}");
    }
    for (shard, served) in &obs.saturating_stats.served_by_shard {
        let _ = writeln!(report, "  shard {shard} served {served} (saturating phase)");
    }
    let _ = writeln!(report, "context switches (fixed phase) by thread:");
    for (task, n) in &obs.task_switches {
        let _ = writeln!(report, "  {task:<24} {n}");
    }
    let _ = writeln!(report, "setup_s samples: {:?}", obs.setup_s);

    let metrics: Vec<(String, f64, String)> = if args.trace {
        let layers = traced::run(
            &plan,
            procfs::cpus().clamp(1, 8),
            args.workload.shape().replay_ops,
            work,
            prepared.as_deref(),
        )?;
        let timed_syncs = obs
            .fixed
            .replies
            .iter()
            .chain(&obs.saturating.replies)
            .filter(|r| r.sync.is_some())
            .count();
        let recomputes = (t.miss + t.stale).max(1) as f64;
        let mut m: Vec<(String, f64, String)> = layers
            .metrics
            .iter()
            .map(|(n, v, u)| ((*n).to_owned(), *v, (*u).to_owned()))
            .collect();
        let extra = [
            ("serve.cache_hit_ratio", t.hit_ratio(), "ratio"),
            (
                "serve.cache_stale_per_sync",
                if timed_syncs == 0 {
                    0.0
                } else {
                    t.stale as f64 / timed_syncs as f64
                },
                "count",
            ),
            (
                "serve.coalesced_ratio",
                t.coalesced as f64 / recomputes,
                "ratio",
            ),
            (
                "serve.shard_served_max_over_mean",
                obs.saturating_stats.shard_imbalance(),
                "ratio",
            ),
            ("daemon.usr_us_per_req", obs.cpu.user_us / completed, "us"),
            ("daemon.sys_us_per_req", obs.cpu.sys_us / completed, "us"),
            (
                "daemon.ctx_switches_per_req",
                obs.switches as f64 / completed,
                "count",
            ),
            ("daemon.exited_thread_us_per_req", exited_us_per_req, "us"),
            (
                "daemon.saturated_cpu_us_per_req",
                obs.sat_cpu_ns as f64 / 1e3 / obs.saturating.replies.len().max(1) as f64,
                "us",
            ),
            (
                "daemon.unattributed_us_per_req",
                cpu_us_per_req - layers.attributed_us_per_req,
                "us",
            ),
            (
                "trace.attributed_us_per_req",
                layers.attributed_us_per_req,
                "us",
            ),
            ("trace.overhead_pct", layers.overhead_pct, "%"),
        ];
        m.extend(
            extra
                .iter()
                .map(|(n, v, u)| ((*n).to_owned(), *v, (*u).to_owned())),
        );
        let _ = writeln!(
            report,
            "traced replay: {} stream ops, overhead {:.1}% against the untraced replay",
            layers.stream_ops, layers.overhead_pct
        );
        for (name, value, unit) in &m {
            let _ = writeln!(report, "  {name:<34} {value:>14.4} {unit}");
        }
        m
    } else {
        e2e.iter()
            .map(|(n, v, u)| ((*n).to_owned(), *v, (*u).to_owned()))
            .collect()
    };

    let failed = verdict.failed_ops.len() as u64;
    // Every workload is built so that no operation fails; any failure or
    // failed workload-level check makes the run incorrect.
    let correct = verdict.problems.is_empty() && failed == 0;
    for p in &verdict.problems {
        let _ = writeln!(report, "CHECK FAILED: {p}");
        eprintln!("perfbench: check failed: {p}");
    }
    print!("{report}");

    let mut fields = BTreeMap::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        fields.insert(
            name.clone(),
            format!("{{\"value\": {value}, \"unit\": \"{unit}\"}}"),
        );
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(n, _, _)| format!("\"{n}\": {}", fields[n]))
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics_json.join(", ")
    ))
}
