//! The in-process side of the benchmark: building the broker the way
//! `brokerctl serve` does, answering requests directly (the reference the
//! daemon's bytes are compared with), and the traced replay that splits a
//! workload's cost into layers.
//!
//! The replay calls the public entry points the daemon calls, in the
//! daemon's order, and wraps each call in a span kept by this module —
//! the program itself is not instrumented for it. Self time is a span's
//! duration minus its children's.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use serde_json::Value;
use uptime_broker::{
    BrokerService, DurabilityConfig, FrontierRequest, GroundTruth, ServingBroker,
    SimulatedProvider, SolutionRequest,
};
use uptime_catalog::{case_study, extended, CatalogStore, CloudId, ComponentKind};
use uptime_obs::{
    trace_seed_from_bytes, trace_seed_from_fingerprint, FlightRecorder, MetricsRegistry, Recorder,
    TraceConfig, TraceOutcome,
};
use uptime_serve::reactor::frame::{FrameScanner, Scan};
use uptime_serve::{EpochCache, Lookup, RequestFrame, ResponseFrame, ServeBackend};

use crate::util::{mean, median};
use crate::workload::{Ask, Op, Plan, Rounding, Workload, PREPARED_SYNC_ROUNDS, SYNC_BODY};

type Res<T> = Result<T, String>;

pub fn catalog(hybrid: bool) -> CatalogStore {
    if hybrid {
        extended::hybrid_catalog()
    } else {
        case_study::catalog()
    }
}

/// One clean simulated provider per catalog cloud, its ground truth taken
/// from the catalog's own records (as `brokerctl serve` registers them).
/// Returns the `(cloud, components)` pairs a `sync` round harvests.
fn register_providers(
    broker: &BrokerService,
    store: &CatalogStore,
) -> Vec<(CloudId, Vec<ComponentKind>)> {
    let mut targets = Vec::new();
    for id in store.cloud_ids() {
        let profile = store.cloud(id).expect("listed cloud resolves");
        let mut provider = SimulatedProvider::new(id.clone(), profile.display_name());
        let mut kinds = Vec::new();
        for kind in profile.observed_components() {
            let record = profile.reliability(kind).expect("observed component");
            provider = provider.with_ground_truth(
                kind,
                GroundTruth {
                    down_probability: record.down_probability(),
                    failures_per_year: record.failures_per_year(),
                },
            );
            kinds.push(kind);
        }
        broker.register_provider(Box::new(provider));
        targets.push((id.clone(), kinds));
    }
    targets
}

/// The daemon's backend for a workload's catalog, optionally recovered
/// from `state_dir`. Returns it with the recovery time in ms.
pub fn backend(
    hybrid: bool,
    state_dir: Option<&Path>,
    recorder: Arc<dyn Recorder>,
) -> Res<(ServingBroker, f64)> {
    let store = catalog(hybrid);
    let mut service = BrokerService::new(store.clone()).with_recorder(recorder);
    let mut replay_ms = 0.0;
    if let Some(dir) = state_dir {
        let started = Instant::now();
        let (recovered, _report) = service
            .with_durability(DurabilityConfig::new(dir))
            .map_err(|e| format!("recovery from {}: {e}", dir.display()))?;
        replay_ms = started.elapsed().as_secs_f64() * 1e3;
        service = recovered;
    }
    let broker = Arc::new(service);
    let targets = register_providers(&broker, &store);
    Ok((
        ServingBroker::new(broker).with_sync_targets(targets),
        replay_ms,
    ))
}

/// Journals [`PREPARED_SYNC_ROUNDS`] telemetry rounds into `dir` through
/// the public API: the state `sync-churn` daemons start from.
pub fn prepare_state(dir: &Path) -> Res<()> {
    let (backend, _) = backend(false, Some(dir), Arc::new(uptime_obs::NoopRecorder))?;
    let body: Value = serde_json::from_str(SYNC_BODY).expect("sync body is JSON");
    for _ in 0..PREPARED_SYNC_ROUNDS {
        backend
            .handle("sync", &body)
            .map_err(|e| format!("preparing state: {}", e.message()))?;
    }
    Ok(())
}

pub fn copy_dir(src: &Path, dst: &Path) -> Res<()> {
    fs::create_dir_all(dst).map_err(|e| format!("mkdir {}: {e}", dst.display()))?;
    for entry in fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let to = dst.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            fs::copy(entry.path(), &to).map_err(|e| format!("copy to {}: {e}", to.display()))?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The answer a direct in-process [`BrokerService`] call gives for `ask`,
/// serialized as the daemon serializes answers.
pub fn direct_answer(service: &BrokerService, ask: &Ask) -> Res<String> {
    let body: Value = serde_json::from_str(&ask.body(0)).map_err(|e| e.to_string())?;
    let value = match ask {
        Ask::Solution { metacloud, .. } => {
            let request: SolutionRequest =
                serde_json::from_value(&body).map_err(|e| e.to_string())?;
            if *metacloud {
                serde_json::to_value(
                    &service
                        .recommend_metacloud(&request)
                        .map_err(|e| e.to_string())?,
                )
            } else {
                serde_json::to_value(&service.recommend(&request).map_err(|e| e.to_string())?)
            }
        }
        Ask::Frontier { .. } => {
            let request: FrontierRequest =
                serde_json::from_value(&body).map_err(|e| e.to_string())?;
            serde_json::to_value(&service.solve_slo(&request).map_err(|e| e.to_string())?)
        }
        Ask::Sync => return Err("sync has no cacheable answer".into()),
    };
    serde_json::to_string(&value).map_err(|e| e.to_string())
}

/// One span: `parent` is the index + 1 of the enclosing span (0 = root).
struct SpanRec {
    name: &'static str,
    parent: u32,
    start: Instant,
    end: Instant,
}

/// Spans kept in memory for the whole replay; inert when `on` is false.
struct Spans {
    on: bool,
    recs: Vec<SpanRec>,
}

impl Spans {
    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.on {
            return 0;
        }
        let now = Instant::now();
        self.recs.push(SpanRec {
            name,
            parent,
            start: now,
            end: now,
        });
        self.recs.len() as u32
    }

    fn close(&mut self, id: u32) {
        if id > 0 {
            self.recs[id as usize - 1].end = Instant::now();
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Per-name totals: `(calls, total ns, self ns)`.
fn totals(recs: &[SpanRec]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns = vec![0.0f64; recs.len()];
    for r in recs {
        if r.parent > 0 {
            child_ns[r.parent as usize - 1] += (r.end - r.start).as_nanos() as f64;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (i, r) in recs.iter().enumerate() {
        let total = (r.end - r.start).as_nanos() as f64;
        let e = out.entry(r.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - child_ns[i];
    }
    out
}

/// The daemon's per-request pipeline, in process.
struct Pipeline {
    backend: ServingBroker,
    broker_metrics: Arc<MetricsRegistry>,
    serve_metrics: MetricsRegistry,
    tracer: Arc<FlightRecorder>,
    /// One cache per connection/shard, as in the daemon.
    caches: Vec<EpochCache>,
    scanner: FrameScanner,
    spans: Spans,
    /// Per-request extras that are not spans.
    journal_append_ns: Vec<f64>,
    absorbs: Vec<f64>,
    answer_bytes: Vec<f64>,
    spec_parse_ns: Vec<f64>,
}

impl Pipeline {
    fn new(
        hybrid: bool,
        state_dir: Option<&Path>,
        shards: usize,
        traced: bool,
    ) -> Res<(Pipeline, f64)> {
        let broker_metrics = Arc::new(MetricsRegistry::new());
        let (backend, replay_ms) = backend(hybrid, state_dir, broker_metrics.clone())?;
        Ok((
            Pipeline {
                backend,
                broker_metrics,
                serve_metrics: MetricsRegistry::new(),
                tracer: Arc::new(FlightRecorder::new(TraceConfig::default())),
                caches: (0..shards).map(|_| EpochCache::new(4096)).collect(),
                scanner: FrameScanner::new(1024 * 1024),
                spans: Spans {
                    on: traced,
                    recs: Vec::new(),
                },
                journal_append_ns: Vec::new(),
                absorbs: Vec::new(),
                answer_bytes: Vec::new(),
                spec_parse_ns: Vec::new(),
            },
            replay_ms,
        ))
    }

    fn counter(&mut self, root: u32, name: &str) {
        let metrics = &self.serve_metrics;
        self.spans
            .time("obs.counter_add", root, || metrics.counter_add(name, 1));
    }

    /// One request through the daemon's stages. Returns the answer body.
    fn request(&mut self, shard: usize, id: u64, op: &Op, frame_text: &str) -> Res<String> {
        let root = self.spans.open("request", 0);
        // 1. frame scan (the daemon copies the frame out of its buffer).
        let scanner = &mut self.scanner;
        let line = self.spans.time("serve.frame_scan", root, || {
            scanner.extend(frame_text.as_bytes());
            let line = match scanner.next_frame() {
                Scan::Frame(range) => String::from_utf8_lossy(&scanner.bytes()[range]).into_owned(),
                other => return Err(format!("scanner: {other:?}")),
            };
            let _ = scanner.next_frame();
            Ok(line)
        })?;
        // 2. frame decode.
        let frame = self
            .spans
            .time("serve.frame_decode", root, || {
                serde_json::from_str::<RequestFrame>(&line)
            })
            .map_err(|e| format!("frame decode: {e}"))?;
        let endpoint = frame.endpoint.clone();
        // 3. fingerprint.
        let backend = &self.backend;
        let fingerprint = self
            .spans
            .time("broker.fingerprint", root, || {
                backend.fingerprint(&endpoint, &frame.body)
            })
            .map_err(|e| format!("fingerprint: {}", e.message()))?;
        if let (Ask::Frontier { .. }, Some(slo)) = (&op.ask, frame.body.get("slo")) {
            let started = Instant::now();
            let parsed = uptime_slo::SloSpec::from_value(slo);
            self.spec_parse_ns.push(started.elapsed().as_nanos() as f64);
            parsed.map_err(|e| format!("slo spec: {e}"))?;
        }
        let tracer = &self.tracer;
        let trace = self.spans.time("obs.trace", root, || {
            let seed = match fingerprint {
                Some(fp) => trace_seed_from_fingerprint(fp),
                None => trace_seed_from_bytes(endpoint.as_bytes()),
            };
            let trace = tracer.begin(seed, &endpoint);
            trace.root().child_completed_ns("serve.queue.wait", 0);
            trace
        });
        let label = op.ask.endpoint();
        let epoch = self.backend.epoch();
        let (body, hit) = match fingerprint {
            None => {
                // Uncacheable (`sync`): straight to the backend.
                let backend = &self.backend;
                let value = self
                    .spans
                    .time("broker.sync_round", root, || {
                        let value = backend.handle_traced(&endpoint, &frame.body, trace.root())?;
                        Ok(serde_json::to_string(&value).unwrap_or_default())
                    })
                    .map_err(|e: uptime_serve::BackendError| format!("sync: {}", e.message()))?;
                (value, false)
            }
            Some(fp) => {
                // 4. cache lookup.
                let cache = &self.caches[shard];
                let lookup = self
                    .spans
                    .time("serve.cache_lookup", root, || cache.lookup(fp, epoch));
                match lookup {
                    Lookup::Hit(body) => {
                        self.counter(root, "serve.cache.hit");
                        self.counter(root, &format!("serve.cache.{label}.hit"));
                        (body.to_string(), true)
                    }
                    verdict => {
                        let verdict = if matches!(verdict, Lookup::Stale) {
                            "stale"
                        } else {
                            "miss"
                        };
                        self.counter(root, &format!("serve.cache.{verdict}"));
                        self.counter(root, &format!("serve.cache.{label}.{verdict}"));
                        // 5. decode, solve, build the tree, write it, cache it.
                        let text = self.solve(root, op, &frame.body, &trace)?;
                        let cache = &self.caches[shard];
                        let shared: Arc<str> = Arc::from(text.as_str());
                        self.spans.time("serve.cache_insert", root, || {
                            cache.insert(fp, epoch, shared)
                        });
                        self.answer_bytes.push(text.len() as f64);
                        (text, false)
                    }
                }
            }
        };
        self.spans
            .time("obs.trace", root, || trace.finish(TraceOutcome::Ok));
        self.counter(root, "serve.responses");
        self.counter(root, &format!("serve.shard.{shard}.served"));
        // 6. the envelope (the daemon's hit renderer is crate-private; this
        // is the public response serializer on the same fields).
        let line = self.spans.time("serve.envelope", root, || {
            let envelope = ResponseFrame::ok(id, epoch, Value::Null).with_cached(hit);
            let text = serde_json::to_string(&envelope).unwrap_or_default();
            match text.split_once("\"body\":null") {
                Some((head, tail)) => format!("{head}\"body\":{body}{tail}\n"),
                None => format!("{text}\n"),
            }
        });
        std::hint::black_box(&line);
        let serve_metrics = &self.serve_metrics;
        self.spans.time("obs.counter_add", root, || {
            serve_metrics.observe(&format!("serve.{label}.ns"), 1.0);
        });
        self.spans.close(root);
        Ok(body)
    }

    fn solve(
        &mut self,
        root: u32,
        op: &Op,
        body: &Value,
        trace: &uptime_obs::ActiveTrace,
    ) -> Res<String> {
        let service = Arc::clone(self.backend.service());
        let label = op.ask.label();
        let name: &'static str = match label {
            "recommend" => "broker.recommend",
            "metacloud" => "broker.metacloud",
            "topology" => "broker.topology",
            _ => "broker.frontier",
        };
        let value = match op.ask {
            Ask::Frontier { .. } => {
                let request = self
                    .spans
                    .time("broker.request_decode", root, || {
                        serde_json::from_value::<FrontierRequest>(body)
                    })
                    .map_err(|e| e.to_string())?;
                let report = self
                    .spans
                    .time(name, root, || {
                        service.solve_slo_traced(&request, trace.root())
                    })
                    .map_err(|e| e.to_string())?;
                self.spans
                    .time("broker.answer_tree", root, || serde_json::to_value(&report))
            }
            _ => {
                let request = self
                    .spans
                    .time("broker.request_decode", root, || {
                        serde_json::from_value::<SolutionRequest>(body)
                    })
                    .map_err(|e| e.to_string())?;
                if label == "metacloud" {
                    let answer = self
                        .spans
                        .time(name, root, || {
                            service.recommend_metacloud_traced(&request, trace.root())
                        })
                        .map_err(|e| e.to_string())?;
                    self.spans
                        .time("broker.answer_tree", root, || serde_json::to_value(&answer))
                } else {
                    let answer = self
                        .spans
                        .time(name, root, || {
                            service.recommend_traced(&request, trace.root())
                        })
                        .map_err(|e| e.to_string())?;
                    self.spans
                        .time("broker.answer_tree", root, || serde_json::to_value(&answer))
                }
            }
        };
        self.spans
            .time("broker.answer_write", root, || {
                serde_json::to_string(&value)
            })
            .map_err(|e| e.to_string())
    }

    /// A `sync` with its trace kept, to read the journal-append spans the
    /// broker records into it.
    fn sync_probe(&mut self) -> Res<()> {
        let body: Value = serde_json::from_str(SYNC_BODY).expect("sync body");
        let trace = self.tracer.begin(trace_seed_from_bytes(b"sync"), "sync");
        let backend = &self.backend;
        let reply = self
            .spans
            .time("broker.sync_round", 0, || {
                backend.handle_traced("sync", &body, trace.root())
            })
            .map_err(|e| format!("sync: {}", e.message()))?;
        if let Some(record) = trace.finish(TraceOutcome::Ok) {
            for span in record
                .spans
                .iter()
                .filter(|s| s.name == "broker.journal.append")
            {
                self.journal_append_ns.push(span.duration_ns as f64);
            }
        }
        self.absorbs
            .push(reply.get("accepted").and_then(Value::as_u64).unwrap_or(0) as f64);
        Ok(())
    }
}

/// What the traced run reports.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Mean self time of all traced stages per stream request, µs.
    pub attributed_us_per_req: f64,
    pub overhead_pct: f64,
    pub stream_ops: u64,
}

/// Probe requests for the layers a workload's stream does not reach, so
/// every workload reports every layer: unique `metacloud` and topology
/// requests where the stream has none.
fn probe_asks(workload: Workload) -> Vec<Ask> {
    if workload == Workload::MissPath {
        return Vec::new();
    }
    (0..8u32)
        .flat_map(|i| {
            let sla = (97.0 + f64::from(i) * 0.25) / 100.0;
            [
                Ask::Solution {
                    metacloud: true,
                    sla,
                    rate: 100.0,
                    rounding: Rounding::CeilHour,
                    topology: None,
                },
                Ask::Solution {
                    metacloud: false,
                    sla,
                    rate: 100.0,
                    rounding: Rounding::CeilHour,
                    topology: Some(crate::workload::TOPOLOGIES[i as usize % 2]),
                },
            ]
        })
        .collect()
}

/// Replays the first `ops` operations of `plan` through the pipeline, on
/// `shards` caches (operation `k` on cache `k % shards`, as connection
/// `k % shards` lands on its own shard in the daemon): untraced, traced,
/// and untraced again, each from fresh state.
pub fn run(
    plan: &Plan,
    shards: usize,
    ops: u64,
    work: &Path,
    prepared: Option<&Path>,
) -> Res<LayerReport> {
    let workload = plan.workload;
    let hybrid = workload.hybrid();
    let fresh_state = |tag: &str| -> Res<Option<PathBuf>> {
        match prepared {
            Some(src) => {
                let dst = work.join(tag);
                let _ = fs::remove_dir_all(&dst);
                copy_dir(src, &dst)?;
                Ok(Some(dst))
            }
            None => Ok(None),
        }
    };
    let frames: Vec<(Op, String)> = (0..ops).map(|i| (plan.op(i), plan.frame(i))).collect();

    let stream = |p: &mut Pipeline| -> Res<f64> {
        let started = Instant::now();
        for (i, (op, frame)) in frames.iter().enumerate() {
            p.request(i % shards, i as u64, op, frame)?;
        }
        Ok(started.elapsed().as_secs_f64())
    };

    // Untraced before and after the traced replay; the faster of the two
    // is the baseline the tracing overhead is measured against.
    let mut untraced_s = f64::INFINITY;
    let mut traced = None;
    for round in 0..3 {
        let dir = fresh_state(&format!("replay-{round}"))?;
        let (mut p, replay_ms) = Pipeline::new(hybrid, dir.as_deref(), shards, round == 1)?;
        let secs = stream(&mut p)?;
        if round == 1 {
            traced = Some((p, replay_ms, secs, dir));
        } else if let Some(d) = dir {
            untraced_s = untraced_s.min(secs);
            let _ = fs::remove_dir_all(d);
        } else {
            untraced_s = untraced_s.min(secs);
        }
    }
    let (mut p, replay_ms, traced_s, traced_dir) = traced.expect("the traced round ran");
    let stream_spans = p.spans.recs.len();
    let stream_bytes = p.answer_bytes.clone();
    let stream_snapshot = p.broker_metrics.snapshot();

    // Stream-only attribution: children of each request root.
    let roots: Vec<usize> = (0..stream_spans)
        .filter(|&i| p.spans.recs[i].parent == 0)
        .collect();
    let mut attributed_ns = 0.0;
    for r in &p.spans.recs[..stream_spans] {
        if r.parent > 0 && p.spans.recs[r.parent as usize - 1].parent == 0 {
            attributed_ns += (r.end - r.start).as_nanos() as f64;
        }
    }

    // Probes for layers the stream does not reach.
    for (j, ask) in probe_asks(workload).into_iter().enumerate() {
        let op = Op {
            key: u64::MAX - 1,
            spelling: 0,
            ask,
        };
        let id = (1 << 40) + j as u64;
        let frame = crate::workload::frame_line(id, op.ask.endpoint(), &op.ask.body(0));
        p.request(0, id, &op, &frame)?;
    }
    // Sync rounds with their journal appends, on a durable copy.
    let (sync_dir, mut durable, mut replay_ms) = match traced_dir {
        Some(dir) => (dir, None, replay_ms),
        None => {
            let dir = work.join("replay-sync-probe");
            let _ = fs::remove_dir_all(&dir);
            let (d, _) = Pipeline::new(hybrid, Some(&dir), 1, true)?;
            (dir, Some(d), 0.0)
        }
    };
    let bytes_before = dir_bytes(&sync_dir);
    let target = durable.as_mut().unwrap_or(&mut p);
    for _ in 0..8 {
        target.sync_probe()?;
    }
    let bytes_per_sync = (dir_bytes(&sync_dir).saturating_sub(bytes_before)) as f64 / 8.0;
    if let Some(d) = durable.take() {
        p.journal_append_ns.extend(d.journal_append_ns);
        p.absorbs.extend(d.absorbs);
        // The probe's spans are all top-level, so they append as they are.
        p.spans.recs.extend(d.spans.recs);
        // Recovery of what the probe journaled.
        let started = Instant::now();
        let _ = backend(hybrid, Some(&sync_dir), Arc::new(uptime_obs::NoopRecorder))?;
        replay_ms = started.elapsed().as_secs_f64() * 1e3;
    }

    // Catalog construction, as every daemon start pays it.
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(catalog(hybrid));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // Layers the stream reaches are reported from the stream alone; the
    // probes only fill in the layers it does not reach.
    let t_stream = totals(&p.spans.recs[..stream_spans]);
    let t_all = totals(&p.spans.recs);
    let get = |name: &str| {
        t_stream
            .get(name)
            .or_else(|| t_all.get(name))
            .copied()
            .unwrap_or((0, 0.0, 0.0))
    };
    let per_call = |name: &str, scale: f64| {
        let (n, total, _) = get(name);
        if n == 0 {
            0.0
        } else {
            total / n as f64 / scale
        }
    };
    let requests = roots.len().max(1) as f64;
    let per_req_self = |name: &str| get(name).2 / requests;

    // Optimizer figures from the spans the broker records itself.
    let searched = |snap: &uptime_obs::MetricsSnapshot| {
        snap.histograms
            .iter()
            .any(|h| h.name.starts_with("optimizer.") && h.name.ends_with(".search.ns"))
    };
    let snap = if searched(&stream_snapshot) {
        stream_snapshot
    } else {
        p.broker_metrics.snapshot()
    };
    let search_ns: f64 = snap
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("optimizer.") && h.name.ends_with(".search.ns"))
        .map(|h| h.sum)
        .sum();
    let variants: f64 = snap
        .counters
        .iter()
        .filter(|(n, _)| {
            n.starts_with("optimizer.")
                && (n.ends_with(".variants") || n.ends_with(".leaves_evaluated"))
        })
        .map(|(_, v)| *v as f64)
        .sum();
    let solves: f64 = [
        "broker.recommend",
        "broker.metacloud",
        "broker.topology",
        "broker.frontier",
    ]
    .iter()
    .map(|n| get(n).0 as f64)
    .sum::<f64>()
    .max(1.0);

    let metrics = vec![
        (
            "serve.frame_scan_ns",
            per_req_self("serve.frame_scan"),
            "ns",
        ),
        (
            "serve.frame_decode_ns",
            per_req_self("serve.frame_decode"),
            "ns",
        ),
        (
            "serve.cache_lookup_ns",
            per_call("serve.cache_lookup", 1.0),
            "ns",
        ),
        (
            "serve.cache_insert_ns",
            per_call("serve.cache_insert", 1.0),
            "ns",
        ),
        ("serve.envelope_ns", per_req_self("serve.envelope"), "ns"),
        (
            "broker.fingerprint_ns",
            per_call("broker.fingerprint", 1.0),
            "ns",
        ),
        (
            "broker.request_decode_us",
            per_call("broker.request_decode", 1e3),
            "us",
        ),
        (
            "broker.recommend_us",
            per_call("broker.recommend", 1e3),
            "us",
        ),
        (
            "broker.metacloud_us",
            per_call("broker.metacloud", 1e3),
            "us",
        ),
        ("broker.topology_us", per_call("broker.topology", 1e3), "us"),
        ("broker.frontier_us", per_call("broker.frontier", 1e3), "us"),
        (
            "broker.answer_tree_us",
            per_call("broker.answer_tree", 1e3),
            "us",
        ),
        (
            "broker.answer_write_us",
            per_call("broker.answer_write", 1e3),
            "us",
        ),
        (
            "broker.answer_bytes",
            mean(if stream_bytes.is_empty() {
                &p.answer_bytes
            } else {
                &stream_bytes
            }),
            "bytes",
        ),
        (
            "broker.sync_round_us",
            per_call("broker.sync_round", 1e3),
            "us",
        ),
        ("broker.absorbs_per_sync", mean(&p.absorbs), "count"),
        ("slo.spec_parse_us", mean(&p.spec_parse_ns) / 1e3, "us"),
        ("optimizer.search_us", search_ns / solves / 1e3, "us"),
        ("optimizer.variants_per_request", variants / solves, "count"),
        (
            "optimizer.ns_per_variant",
            if variants > 0.0 {
                search_ns / variants
            } else {
                0.0
            },
            "ns",
        ),
        (
            "durability.append_us",
            mean(&p.journal_append_ns) / 1e3,
            "us",
        ),
        ("durability.bytes_per_sync", bytes_per_sync, "bytes"),
        ("durability.replay_ms", replay_ms, "ms"),
        ("obs.counter_add_ns", per_call("obs.counter_add", 1.0), "ns"),
        ("obs.trace_finish_ns", get("obs.trace").1 / requests, "ns"),
        ("catalog.build_ms", median(&builds), "ms"),
    ];
    let _ = fs::remove_dir_all(sync_dir);
    Ok(LayerReport {
        metrics,
        attributed_us_per_req: attributed_ns / requests / 1e3,
        overhead_pct: (traced_s - untraced_s) / untraced_s * 100.0,
        stream_ops: ops,
    })
}
