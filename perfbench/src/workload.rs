//! The three workloads: what each sends, in which spellings, at what
//! rate, and against which daemon. Every request is a pure function of
//! `(seed, index)`, so a stream can be replayed anywhere in any order.

use crate::util::{pick, Rng};

/// The paper's three serial tiers, as the wire spells them.
const TIERS: &str = r#"["Compute","Storage","NetworkGateway"]"#;
const TIERS_SPACED: &str = r#"[ "Compute", "Storage", "NetworkGateway" ]"#;

/// Hot-pool size: recommend keys first, then frontier keys.
pub const POOL_RECOMMEND: usize = 5;
pub const POOL_FRONTIER: usize = 3;
/// JSON spellings per hot key; all of one key fingerprint the same.
pub const SPELLINGS: usize = 3;
/// `sync-churn` sends one `sync` per this many operations.
pub const SYNC_ROUND: u64 = 400;
/// `miss-path` rounds: this many `recommend`, then `metacloud` on the
/// bodies of the first of those `recommend`s, then `frontier`, then
/// archetype-topology `recommend`s (see [`Plan::op`]).
const MISS_RECOMMEND: u64 = 10;
const MISS_METACLOUD: u64 = 4;
const MISS_FRONTIER: u64 = 9;
const MISS_TOPOLOGY: u64 = 1;
pub const MISS_ROUND: u64 = MISS_RECOMMEND + MISS_METACLOUD + MISS_FRONTIER + MISS_TOPOLOGY;
/// Archetypes the `miss-path` topology requests draw from.
pub const TOPOLOGIES: [&str; 2] = ["regional", "global"];
/// Telemetry rounds journaled into `sync-churn`'s prepared state.
pub const PREPARED_SYNC_ROUNDS: u64 = 300;
/// Share of `--seconds` spent in the fixed-rate phase; the rest is the
/// saturating phase.
pub const FIXED_SHARE: f64 = 0.8;
/// Open-loop warm-up before the timed phases, seconds.
pub const WARM_SECONDS: f64 = 1.0;
/// Daemon spawns per group; a run times one group before the timed
/// phases, one between each two fixed-rate trials and one after the run,
/// and `setup_s` is the median of them all.
pub const SETUP_GROUP: usize = 2;
/// The body every `sync` carries; one fixed seed keeps every round's
/// telemetry plausible, so no absorb is ever quarantined.
pub const SYNC_BODY: &str = r#"{"seed":7}"#;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HitPath,
    MissPath,
    SyncChurn,
}

/// How a workload is driven. Rates and windows are constants so every
/// commit is measured under the same load.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Offered rate of the fixed-rate (open-loop) phase, requests/s.
    pub fixed_rate: f64,
    /// Requests in flight per connection in the saturating phase.
    pub window: usize,
    /// Stream operations the in-process traced run replays.
    pub replay_ops: u64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HitPath, Workload::MissPath, Workload::SyncChurn];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitPath => "hit-path",
            Workload::MissPath => "miss-path",
            Workload::SyncChurn => "sync-churn",
        }
    }

    /// Operations after which the stream's mix repeats: a `sync-churn`
    /// round, or two `miss-path` rounds (their topologies alternate). The
    /// warm-up and every fixed-rate trial hold whole periods, so each
    /// trial sends the same mix.
    pub fn period(self) -> u64 {
        match self {
            Workload::HitPath => 1,
            Workload::MissPath => MISS_ROUND * TOPOLOGIES.len() as u64,
            Workload::SyncChurn => SYNC_ROUND,
        }
    }

    /// Runs against the three-cloud hybrid catalog.
    pub fn hybrid(self) -> bool {
        self == Workload::MissPath
    }

    /// Runs with `--state-dir` on a prepared journal.
    pub fn durable(self) -> bool {
        self == Workload::SyncChurn
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::HitPath => Shape {
                fixed_rate: 20_000.0,
                window: 16,
                replay_ops: 40_000,
            },
            Workload::MissPath => Shape {
                fixed_rate: 150.0,
                window: 3,
                replay_ops: 240,
            },
            Workload::SyncChurn => Shape {
                fixed_rate: 20_000.0,
                window: 16,
                replay_ops: 10_000,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    Exact,
    NearestHour,
    CeilHour,
}

impl Rounding {
    const ALL: [Rounding; 3] = [Rounding::Exact, Rounding::NearestHour, Rounding::CeilHour];

    pub fn name(self) -> &'static str {
        match self {
            Rounding::Exact => "Exact",
            Rounding::NearestHour => "NearestHour",
            Rounding::CeilHour => "CeilHour",
        }
    }

    /// Billed hours for raw slippage hours (Eq. 5's rounding step).
    pub fn apply(self, hours: f64) -> f64 {
        match self {
            Rounding::Exact => hours,
            Rounding::NearestHour => hours.round(),
            Rounding::CeilHour => hours.ceil(),
        }
    }
}

/// One request, semantically: what the checker needs to know about it.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// `recommend` (optionally with an archetype topology) or `metacloud`.
    Solution {
        metacloud: bool,
        /// SLA target as a fraction (0.98 for 98%).
        sla: f64,
        /// Penalty, $ per slipped hour.
        rate: f64,
        rounding: Rounding,
        topology: Option<&'static str>,
    },
    /// `frontier`: a hard uptime floor plus a soft cost objective.
    Frontier {
        /// Hard uptime floor, percent.
        floor: f64,
        cost: f64,
        weight: f64,
        rate: f64,
    },
    Sync,
}

impl Ask {
    pub fn endpoint(&self) -> &'static str {
        match self {
            Ask::Solution {
                metacloud: true, ..
            } => "metacloud",
            Ask::Solution { .. } => "recommend",
            Ask::Frontier { .. } => "frontier",
            Ask::Sync => "sync",
        }
    }

    /// The broker call this request costs on a miss (the per-layer label).
    pub fn label(&self) -> &'static str {
        match self {
            Ask::Solution {
                metacloud: true, ..
            } => "metacloud",
            Ask::Solution {
                topology: Some(_), ..
            } => "topology",
            other => other.endpoint(),
        }
    }

    /// The request body in one of [`SPELLINGS`] JSON spellings. Spellings
    /// differ in key order, whitespace, number syntax and explicit
    /// defaults, never in meaning.
    pub fn body(&self, spelling: usize) -> String {
        match *self {
            Ask::Solution {
                sla,
                rate,
                rounding,
                topology,
                ..
            } => match spelling {
                0 => {
                    let mut s = format!(
                        r#"{{"tiers":{TIERS},"sla":{{"target":{sla}}},"penalty":{{"PerHour":{{"rate":{rate}}}}}"#
                    );
                    if rounding != Rounding::CeilHour {
                        s.push_str(&format!(r#","rounding":"{}""#, rounding.name()));
                    }
                    if let Some(t) = topology {
                        s.push_str(&format!(r#","topology":"{t}""#));
                    }
                    s.push('}');
                    s
                }
                1 => {
                    let topo = topology
                        .map(|t| format!(r#" "topology" : "{t}","#))
                        .unwrap_or_default();
                    format!(
                        r#"{{ "rounding": "{}",{topo} "penalty": {{ "PerHour": {{ "rate": {rate:e} }} }}, "sla": {{ "target": {sla:e} }}, "tiers": {TIERS_SPACED} }}"#,
                        rounding.name()
                    )
                }
                _ => {
                    let topo = topology.map_or("null".to_owned(), |t| format!("\"{t}\""));
                    format!(
                        r#"{{"as_is":null,"clouds":[],"penalty":{{"PerHour":{{"rate":{rate:?}}}}},"rounding":"{}","sla":{{"target":{sla:?}}},"tiers":{TIERS},"topology":{topo}}}"#,
                        rounding.name()
                    )
                }
            },
            Ask::Frontier {
                floor,
                cost,
                weight,
                rate,
            } => match spelling {
                0 => format!(
                    r#"{{"tiers":{TIERS},"penalty":{{"PerHour":{{"rate":{rate}}}}},"slo":{{"objectives":[{{"metric":"uptime","threshold":{floor},"mode":"hard"}},{{"metric":"cost","threshold":{cost},"mode":"soft","weight":{weight}}}]}}}}"#
                ),
                1 => format!(
                    r#"{{ "slo": {{ "objectives": [ {{ "mode": "hard", "threshold": {floor:e}, "metric": "uptime" }}, {{ "weight": {weight:e}, "mode": "soft", "threshold": {cost:e}, "metric": "cost" }} ] }}, "penalty": {{ "PerHour": {{ "rate": {rate:e} }} }}, "tiers": {TIERS_SPACED} }}"#
                ),
                _ => format!(
                    r#"{{"clouds":[],"penalty":{{"PerHour":{{"rate":{rate:?}}}}},"rounding":"CeilHour","slo":{{"objectives":[{{"metric":"uptime","mode":"hard","threshold":{floor:?}}},{{"metric":"cost","mode":"soft","threshold":{cost:?},"weight":{weight:?}}}]}},"tiers":{TIERS}}}"#
                ),
            },
            Ask::Sync => SYNC_BODY.to_owned(),
        }
    }
}

/// One operation of a stream.
#[derive(Debug, Clone)]
pub struct Op {
    /// Identifies the distinct request (cache key) this op asks; every
    /// spelling of one hot-pool entry shares it.
    pub key: u64,
    pub spelling: usize,
    pub ask: Ask,
}

/// A sync is not a cache key.
pub const SYNC_KEY: u64 = u64::MAX;

/// The paper's case-study request: 98% SLA, $100 per slipped hour.
pub fn paper_request() -> Ask {
    Ask::Solution {
        metacloud: false,
        sla: 0.98,
        rate: 100.0,
        rounding: Rounding::CeilHour,
        topology: None,
    }
}

/// A workload's seeded request stream.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The hot pool (`hit-path`, `sync-churn`); key = index.
    pub pool: Vec<Ask>,
    /// Every spelling of every hot-pool body, rendered once.
    pool_bodies: Vec<Vec<String>>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let mut pool = vec![paper_request()];
        while pool.len() < POOL_RECOMMEND {
            pool.push(Ask::Solution {
                metacloud: false,
                sla: (9500 + rng.below(450)) as f64 / 10_000.0,
                rate: (50 + rng.below(450)) as f64,
                rounding: Rounding::ALL[rng.below(3) as usize],
                topology: None,
            });
        }
        for _ in 0..POOL_FRONTIER {
            pool.push(Ask::Frontier {
                floor: (9600 + rng.below(350)) as f64 / 100.0,
                cost: (1000 + rng.below(3000)) as f64,
                weight: (5 + rng.below(26)) as f64 / 10.0,
                rate: (50 + rng.below(450)) as f64,
            });
        }
        let pool_bodies = pool
            .iter()
            .map(|ask| (0..SPELLINGS).map(|s| ask.body(s)).collect())
            .collect();
        Plan {
            workload,
            seed,
            pool,
            pool_bodies,
        }
    }

    /// Operation `i` of the stream.
    ///
    /// * `hit-path`: a uniformly drawn hot-pool entry and spelling.
    /// * `sync-churn`: the same, except that each round of
    ///   [`SYNC_ROUND`] operations holds one `sync` at a seeded position.
    /// * `miss-path`: rounds of [`MISS_ROUND`] unique requests in seeded
    ///   order: 10 `recommend`, 4 `metacloud` on the bodies of the first
    ///   four of those `recommend`s, 9 `frontier` and 1 `recommend` with an
    ///   archetype topology. The weights keep every kind under about half
    ///   of the daemon's solve and serialization time.
    pub fn op(&self, i: u64) -> Op {
        match self.workload {
            Workload::HitPath => self.pool_op(i),
            Workload::SyncChurn => {
                let round = i / SYNC_ROUND;
                if i % SYNC_ROUND == pick(self.seed, 1, round) % SYNC_ROUND {
                    Op {
                        key: SYNC_KEY,
                        spelling: 0,
                        ask: Ask::Sync,
                    }
                } else {
                    self.pool_op(i)
                }
            }
            Workload::MissPath => self.miss_op(i),
        }
    }

    fn pool_op(&self, i: u64) -> Op {
        let entry = pick(self.seed, 2, i) % (self.pool.len() * SPELLINGS) as u64;
        let key = entry / SPELLINGS as u64;
        Op {
            key,
            spelling: (entry % SPELLINGS as u64) as usize,
            ask: self.pool[key as usize].clone(),
        }
    }

    fn miss_op(&self, i: u64) -> Op {
        let round = i / MISS_ROUND;
        // Seeded position -> slot permutation for this round.
        let mut slots: Vec<u64> = (0..MISS_ROUND).collect();
        let mut rng = Rng::new(pick(self.seed, 3, round));
        for k in (1..slots.len()).rev() {
            slots.swap(k, rng.below(k as u64 + 1) as usize);
        }
        let slot = slots[(i % MISS_ROUND) as usize];
        let first_meta = MISS_RECOMMEND;
        let first_frontier = first_meta + MISS_METACLOUD;
        let first_topology = first_frontier + MISS_FRONTIER;
        let metacloud = (first_meta..first_frontier).contains(&slot);
        // `metacloud` slots reuse the bodies of the first recommend slots.
        let body_slot = if metacloud { slot - first_meta } else { slot };
        // Unique per body within a run: a distinct SLA / floor per index,
        // offset by the seed.
        let unique = (self.seed % 1000) * 1000 + round * MISS_ROUND + body_slot;
        let step = (unique % 200_000) as f64;
        let mut rng = Rng::new(pick(self.seed, 4, round * MISS_ROUND + body_slot));
        let rate = (50 + rng.below(450)) as f64;
        let rounding = Rounding::ALL[rng.below(3) as usize];
        let ask = match slot {
            s if s < first_frontier => Ask::Solution {
                metacloud,
                sla: (97.0 + step * 1e-5) / 100.0,
                rate,
                rounding,
                topology: None,
            },
            s if s < first_topology => Ask::Frontier {
                floor: 96.0 + step * 1e-5,
                cost: (800 + rng.below(3200)) as f64,
                weight: (5 + rng.below(26)) as f64 / 10.0,
                rate,
            },
            _ => Ask::Solution {
                metacloud: false,
                sla: (97.0 + step * 1e-5) / 100.0,
                rate,
                rounding,
                topology: Some(TOPOLOGIES[(round % TOPOLOGIES.len() as u64) as usize]),
            },
        };
        Op {
            key: round * MISS_ROUND + body_slot + if metacloud { 1 << 40 } else { 0 },
            spelling: (rng.below(SPELLINGS as u64)) as usize,
            ask,
        }
    }

    /// The wire frame for operation `i` (id = `i`), newline-terminated.
    pub fn frame(&self, i: u64) -> String {
        let op = self.op(i);
        match op.ask {
            Ask::Sync => frame_line(i, "sync", SYNC_BODY),
            _ if self.workload != Workload::MissPath => frame_line(
                i,
                op.ask.endpoint(),
                &self.pool_bodies[op.key as usize][op.spelling],
            ),
            _ => frame_line(i, op.ask.endpoint(), &op.ask.body(op.spelling)),
        }
    }
}

pub fn frame_line(id: u64, endpoint: &str, body: &str) -> String {
    format!("{{\"id\":{id},\"endpoint\":\"{endpoint}\",\"v\":1,\"body\":{body}}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_seed_and_index() {
        for w in Workload::ALL {
            let a = Plan::new(w, 11);
            let b = Plan::new(w, 11);
            for i in [0, 1, 7, 49, 50, 1234] {
                assert_eq!(a.frame(i), b.frame(i));
            }
            assert_ne!(
                (0..20).map(|i| a.frame(i)).collect::<Vec<_>>(),
                (0..20)
                    .map(|i| Plan::new(w, 12).frame(i))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sync_churn_has_one_sync_per_round() {
        let plan = Plan::new(Workload::SyncChurn, 3);
        for round in 0..20 {
            let syncs = (round * SYNC_ROUND..(round + 1) * SYNC_ROUND)
                .filter(|&i| plan.op(i).ask == Ask::Sync)
                .count();
            assert_eq!(syncs, 1);
        }
    }

    #[test]
    fn miss_path_bodies_are_unique_and_metacloud_pairs_share_one() {
        let plan = Plan::new(Workload::MissPath, 5);
        let mut seen = std::collections::HashSet::new();
        let mut labels = std::collections::BTreeMap::new();
        for i in 0..MISS_ROUND * 200 {
            let op = plan.op(i);
            assert!(seen.insert((op.ask.endpoint(), op.ask.body(0))));
            *labels.entry(op.ask.label()).or_insert(0) += 1;
            if let Ask::Solution {
                metacloud: true, ..
            } = op.ask
            {
                let twin = (i / MISS_ROUND * MISS_ROUND..(i / MISS_ROUND + 1) * MISS_ROUND)
                    .map(|j| plan.op(j))
                    .find(|o| o.key == op.key - (1 << 40))
                    .expect("paired recommend in the same round");
                assert_eq!(twin.ask.endpoint(), "recommend");
                assert_eq!(twin.ask.body(0), {
                    let Ask::Solution {
                        sla,
                        rate,
                        rounding,
                        ..
                    } = op.ask
                    else {
                        unreachable!()
                    };
                    Ask::Solution {
                        metacloud: false,
                        sla,
                        rate,
                        rounding,
                        topology: None,
                    }
                    .body(0)
                });
            }
        }
        assert_eq!(labels["recommend"], MISS_RECOMMEND * 200);
        assert_eq!(labels["metacloud"], MISS_METACLOUD * 200);
        assert_eq!(labels["frontier"], MISS_FRONTIER * 200);
        assert_eq!(labels["topology"], MISS_TOPOLOGY * 200);
    }
}
