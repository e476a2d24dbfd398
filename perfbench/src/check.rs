//! The answer checker. It knows the paper's equations and the request
//! that was asked, and nothing of the program: every check recomputes a
//! figure from the answer's own fields or compares answers with each
//! other, never with a stored copy of an earlier output.

use serde_json::Value;

use crate::workload::{Ask, Rounding};

/// Hours in the paper's billing month (Eq. 5).
pub const HOURS_PER_MONTH: f64 = 730.0;

type Check<T = ()> = Result<T, String>;

fn num(v: &Value, path: &str) -> Check<f64> {
    let mut cur = v;
    for part in path.split('.') {
        cur = cur
            .get(part)
            .ok_or_else(|| format!("missing field `{path}`"))?;
    }
    cur.as_f64()
        .ok_or_else(|| format!("`{path}` is not a number"))
}

fn array<'v>(v: &'v Value, key: &str) -> Check<&'v Vec<Value>> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))
}

fn index(v: &Value, key: &str) -> Check<Option<usize>> {
    match v.get(key) {
        None => Err(format!("missing field `{key}`")),
        Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(|i| Some(i as usize))
            .ok_or_else(|| format!("`{key}` is not an index")),
    }
}

fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-9 * scale.abs().max(1.0)
}

/// Eq. 1/4 and Eq. 5 on one evaluation (`{uptime:{breakdown,failover},
/// tco:{uptime,ha_cost,penalty,raw_slippage_hours,billed_slippage_hours}}`),
/// returning its TCO (Eq. 5: HA cost plus penalty).
pub fn check_evaluation(eval: &Value, sla: f64, rate: f64, rounding: Rounding) -> Check<f64> {
    let breakdown = num(eval, "uptime.breakdown")?;
    let failover = num(eval, "uptime.failover")?;
    let uptime = num(eval, "tco.uptime")?;
    // Eq. 1/4: U_s = 1 - breakdown - failover.
    if !close(uptime, 1.0 - breakdown - failover, 1.0) {
        return Err(format!(
            "Eq. 1/4: uptime {uptime} != 1 - {breakdown} - {failover}"
        ));
    }
    if !(0.0..=1.0).contains(&uptime) {
        return Err(format!("uptime {uptime} outside [0, 1]"));
    }
    // Eq. 5: penalty = rate x rounding(730 h x max(0, SLA - U_s)).
    let raw = HOURS_PER_MONTH * (sla - uptime).max(0.0);
    let raw_reported = num(eval, "tco.raw_slippage_hours")?;
    if !close(raw, raw_reported, HOURS_PER_MONTH) {
        return Err(format!(
            "Eq. 5: slippage {raw_reported} h, expected {raw} h"
        ));
    }
    let billed = rounding.apply(raw_reported);
    let billed_reported = num(eval, "tco.billed_slippage_hours")?;
    if !close(billed, billed_reported, HOURS_PER_MONTH) {
        return Err(format!(
            "Eq. 5: billed {billed_reported} h, expected {billed} h ({})",
            rounding.name()
        ));
    }
    let penalty = num(eval, "tco.penalty")?;
    if !close(penalty, rate * billed, rate * HOURS_PER_MONTH) {
        return Err(format!(
            "Eq. 5: penalty {penalty}, expected {}",
            rate * billed
        ));
    }
    let ha_cost = num(eval, "tco.ha_cost")?;
    if ha_cost < 0.0 {
        return Err(format!("negative HA cost {ha_cost}"));
    }
    Ok(ha_cost + penalty)
}

/// The figures a `recommend` answer pins down per cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudFigures {
    pub cloud: String,
    /// `(uptime, TCO)` per option, in answer order.
    pub options: Vec<(f64, f64)>,
    pub best_index: usize,
    pub min_risk_index: Option<usize>,
}

impl CloudFigures {
    pub fn best_tco(&self) -> f64 {
        self.options[self.best_index].1
    }
}

/// Checks a `recommend` answer (plain or archetype topology) against the
/// request: Eq. 1/4 and 5 on every option, per-tier costs summing to the
/// HA cost, `meets_sla`, Eq. 6's argmin and the cheapest SLA-meeting
/// option.
pub fn check_recommend(answer: &Value, ask: &Ask) -> Check<Vec<CloudFigures>> {
    let Ask::Solution {
        sla,
        rate,
        rounding,
        ..
    } = *ask
    else {
        return Err("not a solution request".into());
    };
    let clouds = array(answer, "clouds")?;
    if clouds.is_empty() {
        return Err("no clouds answered".into());
    }
    let mut out = Vec::with_capacity(clouds.len());
    for cloud in clouds {
        let name = cloud
            .get("cloud")
            .and_then(Value::as_str)
            .ok_or("cloud without a name")?
            .to_owned();
        let options = array(cloud, "options")?;
        if options.is_empty() {
            return Err(format!("{name}: no options"));
        }
        let mut figures = Vec::with_capacity(options.len());
        for (i, option) in options.iter().enumerate() {
            let eval = option
                .get("evaluation")
                .ok_or("option without evaluation")?;
            let tco = check_evaluation(eval, sla, rate, rounding)
                .map_err(|e| format!("{name} option {}: {e}", i + 1))?;
            let tier_sum: f64 = array(option, "tier_costs")?
                .iter()
                .map(|c| c.as_f64().unwrap_or(f64::NAN))
                .sum();
            let ha_cost = num(eval, "tco.ha_cost")?;
            if !close(tier_sum, ha_cost, ha_cost) {
                return Err(format!(
                    "{name} option {}: tier costs sum to {tier_sum}, HA cost {ha_cost}",
                    i + 1
                ));
            }
            let uptime = num(eval, "tco.uptime")?;
            let meets = option.get("meets_sla").and_then(Value::as_bool);
            if meets != Some(uptime >= sla) {
                return Err(format!(
                    "{name} option {}: meets_sla {meets:?} at uptime {uptime} vs SLA {sla}",
                    i + 1
                ));
            }
            figures.push((uptime, tco));
        }
        let best_index = index(cloud, "best_index")?.ok_or("best_index is null")?;
        let min_risk_index = index(cloud, "min_risk_index")?;
        check_argmin(&name, &figures, best_index, min_risk_index, sla)?;
        out.push(CloudFigures {
            cloud: name,
            options: figures,
            best_index,
            min_risk_index,
        });
    }
    Ok(out)
}

/// Eq. 6: `best_index` is the (first) argmin of TCO; `min_risk_index` the
/// cheapest option that meets the SLA, or none when none does.
fn check_argmin(
    cloud: &str,
    figures: &[(f64, f64)],
    best: usize,
    min_risk: Option<usize>,
    sla: f64,
) -> Check {
    let Some(&(_, best_tco)) = figures.get(best) else {
        return Err(format!("{cloud}: best_index {best} out of range"));
    };
    for (i, &(_, tco)) in figures.iter().enumerate() {
        if tco < best_tco - 1e-9 * best_tco.abs().max(1.0) {
            return Err(format!(
                "{cloud}: Eq. 6: option {} costs {tco} < best_index {} at {best_tco}",
                i + 1,
                best + 1
            ));
        }
    }
    let meeting: Vec<usize> = (0..figures.len())
        .filter(|&i| figures[i].0 >= sla)
        .collect();
    match (min_risk, meeting.is_empty()) {
        (None, true) => Ok(()),
        (None, false) => Err(format!(
            "{cloud}: an option meets the SLA but min_risk_index is null"
        )),
        (Some(i), _) if !meeting.contains(&i) => Err(format!(
            "{cloud}: min_risk_index {} does not meet the SLA",
            i + 1
        )),
        (Some(i), _) => {
            let cheapest = meeting
                .iter()
                .map(|&j| figures[j].1)
                .fold(f64::INFINITY, f64::min);
            if figures[i].1 > cheapest + 1e-9 * cheapest.abs().max(1.0) {
                Err(format!(
                    "{cloud}: min_risk_index {} costs {} > cheapest SLA-meeting {cheapest}",
                    i + 1,
                    figures[i].1
                ))
            } else {
                Ok(())
            }
        }
    }
}

/// The paper's case study (98% SLA, $100/h on the case-study catalog):
/// option #1 at 92.17% / $4300, #3 at 96.78% / $1250 (the argmin), #5 at
/// 98.71% / $1350 (cheapest at no expected penalty), #8 at $3550, and
/// the 1 - 1350/3550 = 62% saving.
pub fn check_paper_case(figures: &[CloudFigures]) -> Check {
    let [cloud] = figures else {
        return Err(format!(
            "case study has one cloud, answer has {}",
            figures.len()
        ));
    };
    let opt = |n: usize| -> Check<(f64, f64)> {
        cloud
            .options
            .get(n - 1)
            .copied()
            .ok_or_else(|| format!("case study: no option #{n}"))
    };
    let pct = |u: f64| (u * 10_000.0).round() / 100.0;
    let expect = |n: usize, uptime: Option<f64>, tco: f64| -> Check {
        let (u, t) = opt(n)?;
        if uptime.is_some_and(|want| pct(u) != want) || (t - tco).abs() > 1e-6 {
            return Err(format!(
                "case study option #{n}: {:.2}% / ${t}, paper says {uptime:?}% / ${tco}",
                pct(u)
            ));
        }
        Ok(())
    };
    if cloud.options.len() != 8 {
        return Err(format!(
            "case study has 8 options, answer has {}",
            cloud.options.len()
        ));
    }
    expect(1, Some(92.17), 4300.0)?;
    expect(3, Some(96.78), 1250.0)?;
    expect(5, Some(98.71), 1350.0)?;
    expect(8, None, 3550.0)?;
    if cloud.best_index != 2 {
        return Err(format!(
            "case study argmin is option #3, answer says #{}",
            cloud.best_index + 1
        ));
    }
    if cloud.min_risk_index != Some(4) {
        return Err(format!(
            "case study min-risk is option #5, answer says {:?}",
            cloud.min_risk_index.map(|i| i + 1)
        ));
    }
    let saving = 1.0 - opt(5)?.1 / opt(8)?.1;
    if (saving * 100.0).round() != 62.0 {
        return Err(format!(
            "case study saving {:.1}%, paper says 62%",
            saving * 100.0
        ));
    }
    Ok(())
}

/// Checks a `metacloud` answer: Eq. 1/4 and 5 on its evaluation,
/// placements pricing the HA cost, and — when the same body's `recommend`
/// answer is at hand — a TCO no higher than the best single cloud's.
pub fn check_metacloud(answer: &Value, ask: &Ask, best_single: Option<f64>) -> Check<f64> {
    let Ask::Solution {
        sla,
        rate,
        rounding,
        ..
    } = *ask
    else {
        return Err("not a solution request".into());
    };
    let eval = answer
        .get("evaluation")
        .ok_or("metacloud without evaluation")?;
    let tco = check_evaluation(eval, sla, rate, rounding)?;
    let placed: f64 = array(answer, "placements")?
        .iter()
        .map(|p| {
            p.get("monthly_cost")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        })
        .sum();
    let ha_cost = num(eval, "tco.ha_cost")?;
    if !close(placed, ha_cost, ha_cost) {
        return Err(format!(
            "metacloud placements cost {placed}, HA cost {ha_cost}"
        ));
    }
    if let Some(single) = best_single {
        if tco > single + 1e-9 * single.abs().max(1.0) {
            return Err(format!(
                "metacloud TCO {tco} above the best single-cloud TCO {single}"
            ));
        }
    }
    Ok(tco)
}

/// Checks a `frontier` answer: per cloud, points cost-ascending, mutually
/// non-dominated in (cost, uptime, failover minutes), all above the hard
/// uptime floor, ranked 1..n, with the recommended point the lowest soft
/// score.
pub fn check_frontier(answer: &Value, ask: &Ask) -> Check {
    let Ask::Frontier { floor, .. } = *ask else {
        return Err("not a frontier request".into());
    };
    let clouds = array(answer, "clouds")?;
    if clouds.is_empty() {
        return Err("frontier without clouds".into());
    }
    let mut any_point = false;
    for cloud in clouds {
        let name = cloud.get("cloud").and_then(Value::as_str).unwrap_or("?");
        let points = array(cloud, "points")?;
        let mut p = Vec::with_capacity(points.len());
        for (i, point) in points.iter().enumerate() {
            let rank = point.get("rank").and_then(Value::as_u64);
            if rank != Some(i as u64 + 1) {
                return Err(format!("{name}: point {} has rank {rank:?}", i + 1));
            }
            p.push((
                num(point, "cost_per_month")?,
                num(point, "uptime_percent")?,
                num(point, "failover_minutes_per_month")?,
                num(point, "soft_score")?,
            ));
        }
        for (i, &(cost, uptime, _, _)) in p.iter().enumerate() {
            if uptime < floor {
                return Err(format!(
                    "{name}: point {} at {uptime}% is below the hard floor {floor}%",
                    i + 1
                ));
            }
            if i > 0 && cost < p[i - 1].0 {
                return Err(format!(
                    "{name}: frontier not cost-ascending at point {}",
                    i + 1
                ));
            }
        }
        for (i, a) in p.iter().enumerate() {
            for (j, b) in p.iter().enumerate() {
                let no_worse = a.0 <= b.0 && a.1 >= b.1 && a.2 <= b.2;
                let better = a.0 < b.0 || a.1 > b.1 || a.2 < b.2;
                if i != j && no_worse && better {
                    return Err(format!("{name}: point {} dominates point {}", i + 1, j + 1));
                }
            }
        }
        let recommended = index(cloud, "recommended_index")?;
        match (recommended, p.is_empty()) {
            (None, true) => {}
            (Some(r), false) if r < p.len() => {
                let lowest = p.iter().map(|x| x.3).fold(f64::INFINITY, f64::min);
                if p[r].3 > lowest {
                    return Err(format!(
                        "{name}: recommended point is not the lowest soft score"
                    ));
                }
            }
            (r, _) => {
                return Err(format!(
                    "{name}: recommended_index {r:?} with {} points",
                    p.len()
                ))
            }
        }
        any_point |= !p.is_empty();
    }
    if !any_point {
        return Err("frontier has no feasible point on any cloud".into());
    }
    Ok(())
}

/// Checks one answer body against its request; returns the best TCO for
/// solution answers (for pairing `metacloud` with `recommend`).
pub fn check_answer(body: &str, ask: &Ask) -> Check<Option<f64>> {
    let answer: Value =
        serde_json::from_str(body).map_err(|e| format!("answer is not JSON: {e}"))?;
    match ask {
        Ask::Solution {
            metacloud: true, ..
        } => check_metacloud(&answer, ask, None).map(Some),
        Ask::Solution { .. } => {
            let clouds = check_recommend(&answer, ask)?;
            Ok(clouds.iter().map(CloudFigures::best_tco).reduce(f64::min))
        }
        Ask::Frontier { .. } => check_frontier(&answer, ask).map(|()| None),
        Ask::Sync => Err("sync has no cacheable answer".into()),
    }
}

/// One `sync` as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncObservation {
    /// When the request was written (ns since the run's origin).
    pub sent_ns: u64,
    /// The epoch the reply reports.
    pub epoch: u64,
    pub accepted: u64,
    pub rejected: u64,
}

/// `sync` epochs strictly increase: a sync issued after any reply was in
/// hand reports a later epoch than that reply, and every batch of every
/// round is absorbed. `replies` are `(received_ns, epoch)` of every reply.
pub fn check_sync_epochs(syncs: &[SyncObservation], replies: &[(u64, u64)]) -> Check {
    let mut by_recv = replies.to_vec();
    by_recv.sort_unstable();
    // Prefix maximum of reply epochs by arrival time.
    let mut prefix = Vec::with_capacity(by_recv.len());
    let mut max_epoch = 0u64;
    for &(_, epoch) in &by_recv {
        max_epoch = max_epoch.max(epoch);
        prefix.push(max_epoch);
    }
    for sync in syncs {
        if sync.accepted == 0 || sync.rejected > 0 {
            return Err(format!(
                "sync absorbed {} batch(es), rejected {}",
                sync.accepted, sync.rejected
            ));
        }
        let seen = by_recv.partition_point(|&(recv, _)| recv < sync.sent_ns);
        if seen > 0 && sync.epoch <= prefix[seen - 1] {
            return Err(format!(
                "sync reported epoch {} but epoch {} was already observed before it was sent",
                sync.epoch,
                prefix[seen - 1]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::paper_request;

    /// A two-option, one-cloud answer built from the equations themselves
    /// (not from program output): 98% SLA, $100/h, CeilHour.
    fn answer() -> Value {
        let option = |n: u64, breakdown: f64, ha: f64| {
            let uptime = 1.0 - breakdown;
            let raw = 730.0 * (0.98 - uptime).max(0.0);
            let billed = raw.ceil();
            serde_json::json!({
                "option_number": n,
                "meets_sla": uptime >= 0.98,
                "tier_costs": [ha, 0.0],
                "evaluation": {
                    "uptime": { "breakdown": breakdown, "failover": 0.0 },
                    "tco": {
                        "uptime": uptime,
                        "ha_cost": ha,
                        "penalty": 100.0 * billed,
                        "raw_slippage_hours": raw,
                        "billed_slippage_hours": billed,
                    },
                },
            })
        };
        serde_json::json!({
            "clouds": [{
                "cloud": "c",
                "best_index": 1,
                "min_risk_index": 1,
                "options": [option(1, 0.05, 0.0), option(2, 0.01, 500.0)],
            }],
        })
    }

    fn edit(mut v: Value, path: &[&str], new: Value) -> Value {
        let mut cur = &mut v;
        for part in &path[..path.len() - 1] {
            cur = match cur {
                Value::Object(map) => map.get_mut(*part).unwrap(),
                Value::Array(items) => &mut items[part.parse::<usize>().unwrap()],
                _ => unreachable!(),
            };
        }
        match cur {
            Value::Object(map) => {
                map.insert(path[path.len() - 1].to_owned(), new);
            }
            _ => unreachable!(),
        }
        v
    }

    #[test]
    fn a_consistent_answer_passes() {
        let figures = check_recommend(&answer(), &paper_request()).unwrap();
        assert_eq!(figures[0].best_index, 1);
        assert_eq!(figures[0].best_tco(), 500.0);
    }

    #[test]
    fn tco_not_ha_cost_plus_penalty_is_rejected() {
        // The penalty no longer equals rate x billed hours, so the
        // reported figures cannot sum to the TCO Eq. 5 defines.
        let broken = edit(
            answer(),
            &[
                "clouds",
                "0",
                "options",
                "0",
                "evaluation",
                "tco",
                "penalty",
            ],
            serde_json::json!(123.0),
        );
        let err = check_recommend(&broken, &paper_request()).unwrap_err();
        assert!(err.contains("Eq. 5"), "{err}");
    }

    #[test]
    fn uptime_not_one_minus_downtime_is_rejected() {
        let broken = edit(
            answer(),
            &[
                "clouds",
                "0",
                "options",
                "1",
                "evaluation",
                "uptime",
                "failover",
            ],
            serde_json::json!(0.001),
        );
        let err = check_recommend(&broken, &paper_request()).unwrap_err();
        assert!(err.contains("Eq. 1/4"), "{err}");
    }

    #[test]
    fn wrong_best_index_is_rejected() {
        let broken = edit(
            answer(),
            &["clouds", "0", "best_index"],
            serde_json::json!(0),
        );
        let err = check_recommend(&broken, &paper_request()).unwrap_err();
        assert!(err.contains("Eq. 6"), "{err}");
    }

    #[test]
    fn wrong_min_risk_index_is_rejected() {
        let broken = edit(
            answer(),
            &["clouds", "0", "min_risk_index"],
            serde_json::json!(0),
        );
        assert!(check_recommend(&broken, &paper_request()).is_err());
    }

    #[test]
    fn paper_figures_are_pinned() {
        let mut cloud = CloudFigures {
            cloud: "softlayer".into(),
            options: vec![
                (0.92169, 4300.0),
                (0.9401, 4000.0),
                (0.96777, 1250.0),
                (0.9304, 5900.0),
                (0.98712, 1350.0),
                (0.949, 5500.0),
                (0.9769, 2850.0),
                (0.9964, 3550.0),
            ],
            best_index: 2,
            min_risk_index: Some(4),
        };
        check_paper_case(std::slice::from_ref(&cloud)).unwrap();
        cloud.options[7].1 = 3600.0;
        assert!(check_paper_case(std::slice::from_ref(&cloud)).is_err());
        cloud.options[7].1 = 3550.0;
        cloud.best_index = 4;
        assert!(check_paper_case(&[cloud]).is_err());
    }

    fn frontier() -> Value {
        serde_json::json!({
            "clouds": [{
                "cloud": "c",
                "recommended_index": 0,
                "points": [
                    { "rank": 1, "cost_per_month": 100.0, "uptime_percent": 98.5,
                      "failover_minutes_per_month": 0.2, "soft_score": 0.0 },
                    { "rank": 2, "cost_per_month": 200.0, "uptime_percent": 99.5,
                      "failover_minutes_per_month": 0.1, "soft_score": 1.0 },
                ],
            }],
        })
    }

    fn frontier_ask() -> Ask {
        Ask::Frontier {
            floor: 98.0,
            cost: 1000.0,
            weight: 1.0,
            rate: 100.0,
        }
    }

    #[test]
    fn dominated_frontier_point_is_rejected() {
        check_frontier(&frontier(), &frontier_ask()).unwrap();
        // Point 2 now costs more for less uptime and more failover.
        let broken = edit(
            frontier(),
            &["clouds", "0", "points", "1", "uptime_percent"],
            serde_json::json!(98.4),
        );
        let broken = edit(
            broken,
            &["clouds", "0", "points", "1", "failover_minutes_per_month"],
            serde_json::json!(0.3),
        );
        let err = check_frontier(&broken, &frontier_ask()).unwrap_err();
        assert!(err.contains("dominates"), "{err}");
    }

    #[test]
    fn frontier_below_floor_or_unsorted_is_rejected() {
        let low = edit(
            frontier(),
            &["clouds", "0", "points", "0", "uptime_percent"],
            serde_json::json!(97.9),
        );
        assert!(check_frontier(&low, &frontier_ask()).is_err());
        let unsorted = edit(
            frontier(),
            &["clouds", "0", "points", "1", "cost_per_month"],
            serde_json::json!(50.0),
        );
        assert!(check_frontier(&unsorted, &frontier_ask()).is_err());
    }

    #[test]
    fn metacloud_above_best_single_cloud_is_rejected() {
        let answer = answer();
        let option = &array(&array(&answer, "clouds").unwrap()[0], "options").unwrap()[1];
        let meta = serde_json::json!({
            "evaluation": option.get("evaluation").unwrap().clone(),
            "placements": [{ "monthly_cost": 500.0 }],
        });
        assert_eq!(
            check_metacloud(&meta, &paper_request(), Some(500.0)).unwrap(),
            500.0
        );
        assert!(check_metacloud(&meta, &paper_request(), Some(499.0)).is_err());
    }

    #[test]
    fn epoch_that_does_not_rise_after_a_sync_is_rejected() {
        let replies = [(10, 0), (20, 3), (40, 3)];
        let ok = SyncObservation {
            sent_ns: 30,
            epoch: 6,
            accepted: 3,
            rejected: 0,
        };
        check_sync_epochs(&[ok], &replies).unwrap();
        let stuck = SyncObservation { epoch: 3, ..ok };
        let err = check_sync_epochs(&[stuck], &replies).unwrap_err();
        assert!(err.contains("already observed"), "{err}");
        let quarantined = SyncObservation { rejected: 1, ..ok };
        assert!(check_sync_epochs(&[quarantined], &replies).is_err());
    }
}
