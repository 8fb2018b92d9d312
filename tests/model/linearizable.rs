//! Per-object linearizability of a concurrent history against
//! [`RefStore`]. Each call carries its invoke and return stamps from one
//! atomic clock and splits into per-object sub-ops that share its
//! interval (P-compositionality, Horn & Kroening, FORTE 2015): a report
//! call becomes each object's run, a predict batch one sub-op per query,
//! a range or within query one include-or-not fact per id. Each object's
//! sub-ops are then searched for an order that respects real time and
//! whose model answers match byte for byte: Wing & Gong's search with
//! Lowe's memo on (linearized set, model state), as Porcupine
//! (https://github.com/anishathalye/porcupine) does.

use super::stores::{Answer, RefStore, Req};
use hpm_geo::Point;
use hpm_objectstore::ObjectId;
use hpm_server::{RequestBody as Q, ResponseBody as R};
use hpm_trajectory::Timestamp;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One call of a history: its invoke and return stamps, what it asked
/// and what came back.
pub type Call = (u64, u64, Req, Answer);

/// What one call asked of one object and got; or `Open`, the empty
/// object an ingest call may show while its run lands on an untracked
/// id (a real store inserts the object before it takes its lock).
#[derive(Debug)]
enum Step {
    Call(Req, Answer),
    Open(u64, Timestamp),
}

/// The sub-ops of one object's run of reports: the call's, and an
/// `Open` at the first report a real store admits at all, the one that
/// would start the object.
fn run(id: ObjectId, run: &[(Timestamp, Point)], call: Step) -> Vec<(u64, Step)> {
    let first = run.iter().find(|r| r.1.is_finite() && r.0 < Timestamp::MAX);
    let open = first.map(|&(t, _)| (id.0, Step::Open(id.0, t)));
    [(id.0, call)].into_iter().chain(open).collect()
}

/// One include-or-not fact per id of `0..ids`: the hits naming it.
fn facts<T: Clone>(
    (req, hits, ids): (&Req, &[T], u64),
    id: impl Fn(&T) -> u64,
    answer: impl Fn(Vec<T>) -> R,
) -> Result<Vec<(u64, Step)>, String> {
    if hits.windows(2).any(|w| id(&w[0]) >= id(&w[1])) || hits.iter().any(|h| id(h) >= ids) {
        return Err(format!("{req:?}: hits not in id order, or not of 0..{ids}"));
    }
    let fact = |i| answer(hits.iter().filter(|h| id(h) == i).cloned().collect());
    let facts = (0..ids).map(|i| (i, Step::Call(req.clone(), Answer::Body(fact(i)))));
    Ok(facts.collect())
}

/// The per-object sub-ops of one call, for objects `0..ids`.
fn split(req: &Req, answer: &Answer, ids: u64) -> Result<Vec<(u64, Step)>, String> {
    let call = || Step::Call(req.clone(), answer.clone());
    Ok(match (req, answer) {
        (Req::Remove(id) | Req::Wire(Q::Stats(id) | Q::ForceRetrain(id)), _) => {
            vec![(id.0, call())]
        }
        (Req::Report(id, t, p), _) => run(*id, &[(*t, *p)], call()),
        // A batch starts at its first report, unless one is not finite.
        (Req::ReportBatch(id, t, ps), _) => {
            let first = ps.first().filter(|_| ps.iter().all(Point::is_finite));
            run(*id, first.map(|&p| (*t, p)).as_slice(), call())
        }
        (Req::Wire(Q::ReportMany(reports)), Answer::Body(R::Ingested(results))) => {
            let mut runs: BTreeMap<ObjectId, (Vec<_>, Vec<_>)> = BTreeMap::new();
            for (&(id, t, p), result) in reports.iter().zip(results) {
                let entry = runs.entry(id).or_default();
                entry.0.push((t, p));
                entry.1.push(*result);
            }
            let runs = runs.into_iter().flat_map(|(id, (reports, results))| {
                let frame = reports.iter().map(|&(t, p)| (id, t, p)).collect();
                let answer = Answer::Body(R::Ingested(results));
                run(
                    id,
                    &reports,
                    Step::Call(Req::Wire(Q::ReportMany(frame)), answer),
                )
            });
            runs.collect()
        }
        (Req::Wire(Q::PredictBatch(queries)), Answer::Body(R::Predictions(results))) => {
            let subs = queries.iter().zip(results).map(|(&(id, t), r)| {
                let (q, answer) = (vec![(id, t)], R::Predictions(vec![r.clone()]));
                (
                    id.0,
                    Step::Call(Req::Wire(Q::PredictBatch(q)), Answer::Body(answer)),
                )
            });
            subs.collect()
        }
        (Req::Wire(Q::PredictRange { .. }), Answer::Body(R::Range(hits))) => {
            facts((req, hits, ids), |h| h.0 .0, R::Range)?
        }
        (Req::Wire(Q::PredictWithin { .. }), Answer::Body(R::Within(hits))) => {
            facts((req, hits, ids), |h| h.0 .0, R::Within)?
        }
        _ => return Err(format!("{answer:?} answers {req:?}")),
    })
}

/// Checks that `calls` (of objects `0..ids`) linearize object by object
/// against `init`.
pub fn check(init: &RefStore, calls: &[Call], ids: u64) -> Result<(), String> {
    let mut histories: BTreeMap<u64, Vec<(u64, u64, Step)>> = BTreeMap::new();
    for (invoke, ret, req, answer) in calls {
        for (id, step) in split(req, answer, ids)? {
            histories.entry(id).or_default().push((*invoke, *ret, step));
        }
    }
    for (id, mut history) in histories {
        history.sort_by_key(|sub| sub.0);
        search(init, &history).map_err(|e| format!("object {id}: {e}"))?;
    }
    Ok(())
}

/// Wing & Gong over one object's sub-ops. The history is a doubly
/// linked list of events in time order: node `2i + 1` is sub-op `i`'s
/// invoke, `2i + 2` its return, `0` and `2n + 1` the ends. The search
/// linearizes the first invoke that the model answers alike and that
/// reaches an unseen (linearized set, state), lifting it out of the
/// list; at a return whose invoke is still in the list it backtracks.
fn search(init: &RefStore, subs: &[(u64, u64, Step)]) -> Result<(), String> {
    let n = subs.len();
    let stamp = |e: usize| [subs[(e - 1) / 2].0, subs[(e - 1) / 2].1][(e - 1) % 2];
    let mut events: Vec<usize> = (1..=2 * n).collect();
    events.sort_by_key(|&e| stamp(e));
    let (mut next, mut prev) = (vec![0; 2 * n + 2], vec![0; 2 * n + 2]);
    let list: Vec<usize> = [0].into_iter().chain(events).chain([2 * n + 1]).collect();
    for w in list.windows(2) {
        (next[w[0]], prev[w[1]]) = (w[1], w[0]);
    }
    let mut states = vec![init.clone()];
    let mut interned = HashMap::from([(init.key(), 0)]);
    let mut steps: HashMap<(usize, usize), Option<usize>> = HashMap::new();
    let mut seen = HashSet::new();
    let mut linearized = vec![0u64; n.div_ceil(64)];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let (mut state, mut e, mut deepest) = (0, next[0], 0);
    while next[0] != 2 * n + 1 {
        let i = (e - 1) / 2;
        if e % 2 == 0 {
            // Sub-op `i` returned unlinearized: undo the latest choice.
            let Some((invoke, from)) = stack.pop() else {
                let mut text =
                    format!("no order of its {n} sub-ops linearizes (at most {deepest})");
                for (invoke, ret, step) in subs {
                    text += &format!("\n  [{invoke}, {ret}] {step:?}");
                }
                return Err(text);
            };
            let j = (invoke - 1) / 2;
            linearized[j / 64] ^= 1 << (j % 64);
            for x in [invoke + 1, invoke] {
                (next[prev[x]], prev[next[x]]) = (x, x);
            }
            (state, e) = (from, next[invoke]);
            continue;
        }
        let to = *steps.entry((state, i)).or_insert_with(|| {
            let mut model = states[state].clone();
            match &subs[i].2 {
                Step::Call(req, want) => (model.serve(std::slice::from_ref(req)).pop().as_ref()
                    == Some(want))
                .then_some(())?,
                Step::Open(id, t) => model.open(*id, *t),
            }
            let next_id = states.len();
            let id = *interned.entry(model.key()).or_insert(next_id);
            if id == next_id {
                states.push(model);
            }
            Some(id)
        });
        if let Some(to) = to {
            linearized[i / 64] ^= 1 << (i % 64);
            if seen.insert((linearized.clone(), to)) {
                stack.push((e, state));
                deepest = deepest.max(stack.len());
                for x in [e, e + 1] {
                    (next[prev[x]], prev[next[x]]) = (next[x], prev[x]);
                }
                (state, e) = (to, next[0]);
                continue;
            }
            linearized[i / 64] ^= 1 << (i % 64);
        }
        e = next[e];
    }
    Ok(())
}
