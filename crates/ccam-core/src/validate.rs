//! Cost-model validation: run a live workload and diff the predictions
//! of [`CostParams`] (paper §3.2, Tables 3–4) against observed I/O.
//!
//! The paper validates its algebraic model by comparing predicted data
//! page accesses with measured ones (Table 5). This module reproduces
//! that methodology as a reusable harness: for each operation class it
//! replays a deterministic sample of operations under the buffering
//! assumption the model makes, measures the [`ccam_storage::IoSnapshot`] delta around
//! each call, and reports predicted vs. observed accesses per class
//! together with the relative error.
//!
//! Buffering protocol per class (matching §3.2's assumptions):
//!
//! * `find` — cold buffer before every call; the model charges exactly
//!   one data-page access,
//! * `get_a_successor` — the source node's page is faulted in first, so
//!   only the `1 − α` co-location miss is charged,
//! * `get_successors` — likewise, source page buffered: `(1 − α)·|A|`,
//! * `route` — a single one-page buffer (the paper's route-evaluation
//!   setup): `1 + (L − 1)(1 − α)`,
//! * `insert` / `delete` — reads **and** writes are measured and compared
//!   against `2 ×` the Table 4 worst-case retrieval cost ("the Write
//!   cost is equal to the Read cost", §3.2). Every deleted node is
//!   re-inserted, so validation leaves the file logically unchanged.

use ccam_graph::{NodeData, NodeId};
use ccam_storage::{Json, PageStore, StorageResult};

use crate::am::AccessMethod;
use crate::costmodel::CostParams;
use crate::reorg::ReorgPolicy;

/// Workload shape for [`validate`].
#[derive(Debug, Clone, Copy)]
pub struct ValidationConfig {
    /// Operations sampled per point class (`find`, `get_a_successor`,
    /// `get_successors`, and each update class).
    pub sample: usize,
    /// Number of route-evaluation trials.
    pub routes: usize,
    /// Target route length in nodes (walks stop early at sinks).
    pub route_len: usize,
    /// Seed of the deterministic sampler.
    pub seed: u64,
    /// Reorganization policy assumed for the Table 4 update predictions.
    pub policy: ReorgPolicy,
    /// Also exercise `delete` + re-`insert` (mutates the file during the
    /// run, but restores every record before returning).
    pub updates: bool,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            sample: 64,
            routes: 8,
            route_len: 20,
            seed: 0xC0FFEE,
            policy: ReorgPolicy::SecondOrder,
            updates: true,
        }
    }
}

/// Predicted vs. observed page accesses for one operation class.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Operation class name (`find`, `get_successors`, `route`, ...).
    pub class: String,
    /// Number of operations measured.
    pub trials: usize,
    /// Model prediction, mean page accesses per operation.
    pub predicted: f64,
    /// Observed mean page accesses per operation.
    pub observed: f64,
}

impl ClassReport {
    /// |observed − predicted| / max(predicted, 1): relative error with
    /// the denominator floored at one page so near-zero predictions
    /// (high-α files) do not explode the ratio.
    pub fn rel_error(&self) -> f64 {
        (self.observed - self.predicted).abs() / self.predicted.max(1.0)
    }
}

/// The outcome of a [`validate`] run.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Parameters measured from the file before the workload ran.
    pub params: CostParams,
    /// One entry per operation class exercised.
    pub classes: Vec<ClassReport>,
}

impl ValidationReport {
    /// Mean relative error across classes.
    pub fn mean_rel_error(&self) -> f64 {
        if self.classes.is_empty() {
            return 0.0;
        }
        self.classes.iter().map(ClassReport::rel_error).sum::<f64>() / self.classes.len() as f64
    }

    /// Worst relative error across classes.
    pub fn max_rel_error(&self) -> f64 {
        self.classes
            .iter()
            .map(ClassReport::rel_error)
            .fold(0.0, f64::max)
    }

    /// The report for a named class, if that class ran.
    pub fn class(&self, name: &str) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.class == name)
    }

    /// Plain-text table in the style of the experiment harness.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cost-model validation (α={:.4}, |A|={:.3}, λ={:.3}, γ={:.2})\n",
            self.params.alpha,
            self.params.avg_successors,
            self.params.avg_neighbors,
            self.params.blocking_factor
        ));
        out.push_str(&format!(
            "{:<18} {:>7} {:>11} {:>11} {:>9}\n",
            "class", "trials", "predicted", "observed", "rel.err"
        ));
        for c in &self.classes {
            out.push_str(&format!(
                "{:<18} {:>7} {:>11.3} {:>11.3} {:>8.1}%\n",
                c.class,
                c.trials,
                c.predicted,
                c.observed,
                c.rel_error() * 100.0
            ));
        }
        out.push_str(&format!(
            "mean rel.err {:.1}%   max rel.err {:.1}%\n",
            self.mean_rel_error() * 100.0,
            self.max_rel_error() * 100.0
        ));
        out
    }

    /// The report as one line of JSON.
    pub fn to_json(&self) -> String {
        let params = Json::object()
            .field("alpha", self.params.alpha)
            .field("avg_successors", self.params.avg_successors)
            .field("avg_neighbors", self.params.avg_neighbors)
            .field("blocking_factor", self.params.blocking_factor);
        let classes = self.classes.iter().map(|c| {
            Json::object()
                .field("class", c.class.as_str())
                .field("trials", c.trials)
                .field("predicted", c.predicted)
                .field("observed", c.observed)
                .field("rel_error", c.rel_error())
        });
        Json::object()
            .field("params", params)
            .field("classes", classes.collect::<Json>())
            .field("mean_rel_error", self.mean_rel_error())
            .field("max_rel_error", self.max_rel_error())
            .render(0)
    }
}

/// Deterministic sampler (64-bit LCG, Knuth constants). `rand` is a
/// dev-only dependency of this crate, and validation must be exactly
/// reproducible from `seed` anyway.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next() % n as u64) as usize
    }
}

/// Runs the validation workload against a live access method and returns
/// the per-class report. The buffer pool's capacity is restored on exit;
/// with `cfg.updates` every deleted node is re-inserted, so the file
/// holds the same records afterwards (possibly re-placed, which can
/// shift α — measure it again if you need the post-run value).
pub fn validate<S, A>(am: &mut A, cfg: &ValidationConfig) -> StorageResult<ValidationReport>
where
    S: PageStore,
    A: AccessMethod<S> + ?Sized,
{
    let params = CostParams::measure(am.file())?;
    let scan = am.file().scan_uncounted()?;
    let nodes: Vec<NodeData> = scan.into_iter().flat_map(|(_, recs)| recs).collect();
    if nodes.is_empty() {
        return Ok(ValidationReport {
            params,
            classes: Vec::new(),
        });
    }

    let stats = am.stats();
    let mut rng = Lcg(cfg.seed);
    let mut classes = Vec::new();

    // -- find: cold buffer, model charges exactly one access -----------------
    let mut observed = 0u64;
    let trials = cfg.sample.min(nodes.len()).max(1);
    for _ in 0..trials {
        let id = nodes[rng.pick(nodes.len())].id;
        am.file().pool().clear()?;
        let before = stats.snapshot();
        am.find(id)?;
        observed += stats.snapshot().since(&before).physical_reads;
    }
    classes.push(ClassReport {
        class: "find".into(),
        trials,
        predicted: 1.0,
        observed: observed as f64 / trials as f64,
    });

    // -- get_a_successor: source page buffered, charge 1 − α ------------------
    let edges: Vec<(NodeId, NodeId)> = nodes
        .iter()
        .flat_map(|n| n.successors.iter().map(|e| (n.id, e.to)))
        .collect();
    if !edges.is_empty() {
        let trials = cfg.sample.min(edges.len()).max(1);
        let mut observed = 0u64;
        for _ in 0..trials {
            let (from, to) = edges[rng.pick(edges.len())];
            am.file().pool().clear()?;
            am.find(from)?; // fault the source node's page in
            let before = stats.snapshot();
            am.get_a_successor(from, to)?;
            observed += stats.snapshot().since(&before).physical_reads;
        }
        classes.push(ClassReport {
            class: "get_a_successor".into(),
            trials,
            predicted: params.get_a_successor_cost(),
            observed: observed as f64 / trials as f64,
        });
    }

    // -- get_successors: source page buffered, charge (1 − α)·|A| -------------
    {
        let trials = cfg.sample.min(nodes.len()).max(1);
        let mut observed = 0u64;
        for _ in 0..trials {
            let id = nodes[rng.pick(nodes.len())].id;
            am.file().pool().clear()?;
            am.find(id)?;
            let before = stats.snapshot();
            am.get_successors(id)?;
            observed += stats.snapshot().since(&before).physical_reads;
        }
        classes.push(ClassReport {
            class: "get_successors".into(),
            trials,
            predicted: params.get_successors_cost(),
            observed: observed as f64 / trials as f64,
        });
    }

    // -- route: random successor walks with a single one-page buffer ----------
    if cfg.routes > 0 && cfg.route_len > 0 {
        use std::collections::HashMap;
        let succ_of: HashMap<NodeId, Vec<NodeId>> = nodes
            .iter()
            .map(|n| (n.id, n.successors.iter().map(|e| e.to).collect()))
            .collect();
        let saved_capacity = am.file().pool().capacity();
        am.file().pool().set_capacity(1)?;
        let mut predicted = 0.0;
        let mut observed = 0u64;
        for _ in 0..cfg.routes {
            let mut cur = nodes[rng.pick(nodes.len())].id;
            am.file().pool().clear()?;
            let before = stats.snapshot();
            am.find(cur)?;
            let mut visited = 1usize;
            while visited < cfg.route_len {
                let Some(succs) = succ_of.get(&cur).filter(|s| !s.is_empty()) else {
                    break;
                };
                let next = succs[rng.pick(succs.len())];
                am.get_a_successor(cur, next)?;
                cur = next;
                visited += 1;
            }
            observed += stats.snapshot().since(&before).physical_reads;
            predicted += params.route_evaluation_cost(visited);
        }
        am.file().pool().set_capacity(saved_capacity)?;
        classes.push(ClassReport {
            class: "route".into(),
            trials: cfg.routes,
            predicted: predicted / cfg.routes as f64,
            observed: observed as f64 / cfg.routes as f64,
        });
    }

    // -- updates: delete + re-insert vs. 2 × Table 4 --------------------------
    if cfg.updates {
        let trials = cfg.sample.min(nodes.len()).max(1);
        let mut del_observed = 0u64;
        let mut ins_observed = 0u64;
        let mut measured = 0usize;
        for _ in 0..trials {
            let id = nodes[rng.pick(nodes.len())].id;
            am.file().pool().clear()?;
            let before = stats.snapshot();
            let Some(deleted) = am.delete_node(id)? else {
                continue; // already deleted this round via an earlier pick
            };
            let d = stats.snapshot().since(&before);
            del_observed += d.physical_reads + d.physical_writes;

            let before = stats.snapshot();
            am.insert_node(&deleted.data, &deleted.incoming)?;
            let d = stats.snapshot().since(&before);
            ins_observed += d.physical_reads + d.physical_writes;
            measured += 1;
        }
        if measured > 0 {
            classes.push(ClassReport {
                class: "delete".into(),
                trials: measured,
                predicted: 2.0 * params.delete_cost(cfg.policy),
                observed: del_observed as f64 / measured as f64,
            });
            classes.push(ClassReport {
                class: "insert".into(),
                trials: measured,
                predicted: 2.0 * params.insert_cost(cfg.policy),
                observed: ins_observed as f64 / measured as f64,
            });
        }
    }

    Ok(ValidationReport { params, classes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_fixture() -> ValidationReport {
        ValidationReport {
            params: CostParams {
                alpha: 0.75,
                avg_successors: 3.0,
                avg_neighbors: 3.2,
                blocking_factor: 12.0,
            },
            classes: vec![
                ClassReport {
                    class: "find".into(),
                    trials: 10,
                    predicted: 1.0,
                    observed: 1.0,
                },
                ClassReport {
                    class: "get_successors".into(),
                    trials: 10,
                    predicted: 0.75,
                    observed: 0.9,
                },
            ],
        }
    }

    #[test]
    fn rel_error_floors_denominator_at_one_page() {
        let c = ClassReport {
            class: "get_a_successor".into(),
            trials: 4,
            predicted: 0.01,
            observed: 0.02,
        };
        // Without the floor this would read as 100% error on a hundredth
        // of a page; with it the error is one hundredth of a page.
        assert!((c.rel_error() - 0.01).abs() < 1e-12);

        let c2 = ClassReport {
            class: "delete".into(),
            trials: 4,
            predicted: 4.0,
            observed: 5.0,
        };
        assert!((c2.rel_error() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn report_aggregates_mean_and_max() {
        let r = report_fixture();
        assert!((r.class("find").unwrap().rel_error() - 0.0).abs() < 1e-12);
        assert!((r.max_rel_error() - 0.15).abs() < 1e-12);
        assert!((r.mean_rel_error() - 0.075).abs() < 1e-12);
        assert!(r.class("route").is_none());
    }

    #[test]
    fn render_and_json_mention_every_class() {
        let r = report_fixture();
        let text = r.render();
        let json = r.to_json();
        for c in &r.classes {
            assert!(text.contains(&c.class));
            assert!(json.contains(&format!("\"class\":\"{}\"", c.class)));
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"mean_rel_error\""));
    }

    #[test]
    fn lcg_is_deterministic_and_in_range() {
        let mut a = Lcg(42);
        let mut b = Lcg(42);
        for _ in 0..100 {
            let x = a.pick(7);
            assert_eq!(x, b.pick(7));
            assert!(x < 7);
        }
    }
}
