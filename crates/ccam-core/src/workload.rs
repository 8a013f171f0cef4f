//! Workload traces: a tiny text format for recording and replaying
//! operation sequences against any access method.
//!
//! The paper evaluates access methods by replaying operation mixes
//! (random operations over 50% of the nodes, route sets, insertion
//! streams — §4). A serialisable trace makes such workloads portable:
//! generate once, replay against every method / block size / policy, and
//! diff the I/O. The format is line-oriented:
//!
//! ```text
//! # comments and blank lines are skipped
//! find 42
//! succ 42
//! asucc 42 99          # get-a-successor(from, to)
//! route 1 5 9 13       # find + get-a-successor chain
//! astar 1 200
//! insert-edge 1 7 30   # from to cost
//! delete-edge 1 7
//! delete-node 9
//! reinsert-node 9      # restore the most recent delete of node 9
//! ```

use std::collections::HashMap;
use std::fmt;

use ccam_graph::NodeId;
use ccam_storage::{PageStore, StorageResult};

use crate::am::{AccessMethod, DeletedNode};
use crate::query::route::evaluate_path;
use crate::query::search::a_star;

/// One trace operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `Find(node)`.
    Find(NodeId),
    /// `Get-successors(node)`.
    Successors(NodeId),
    /// `Get-A-successor(from, to)`.
    ASuccessor(NodeId, NodeId),
    /// Route evaluation over the node sequence.
    Route(Vec<NodeId>),
    /// A* search.
    AStar(NodeId, NodeId),
    /// `Insert(edge)`.
    InsertEdge(NodeId, NodeId, u32),
    /// `Delete(edge)`.
    DeleteEdge(NodeId, NodeId),
    /// `Delete(node)` (the replay engine stashes the record).
    DeleteNode(NodeId),
    /// Re-insert the most recently deleted copy of the node.
    ReinsertNode(NodeId),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Find(n) => write!(f, "find {}", n.0),
            Op::Successors(n) => write!(f, "succ {}", n.0),
            Op::ASuccessor(a, b) => write!(f, "asucc {} {}", a.0, b.0),
            Op::Route(nodes) => {
                write!(f, "route")?;
                for n in nodes {
                    write!(f, " {}", n.0)?;
                }
                Ok(())
            }
            Op::AStar(a, b) => write!(f, "astar {} {}", a.0, b.0),
            Op::InsertEdge(a, b, c) => write!(f, "insert-edge {} {} {c}", a.0, b.0),
            Op::DeleteEdge(a, b) => write!(f, "delete-edge {} {}", a.0, b.0),
            Op::DeleteNode(n) => write!(f, "delete-node {}", n.0),
            Op::ReinsertNode(n) => write!(f, "reinsert-node {}", n.0),
        }
    }
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a trace from its text form.
pub fn parse_trace(text: &str) -> Result<Vec<Op>, ParseError> {
    let mut ops = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let cmd = parts.next().expect("non-empty line");
        let args: Vec<&str> = parts.collect();
        let err = |message: String| ParseError {
            line: lineno + 1,
            message,
        };
        let node = |s: &str| -> Result<NodeId, ParseError> {
            s.parse::<u64>()
                .map(NodeId)
                .map_err(|_| err(format!("bad node id `{s}`")))
        };
        let need = |n: usize| -> Result<(), ParseError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(err(format!(
                    "`{cmd}` needs {n} argument(s), got {}",
                    args.len()
                )))
            }
        };
        let op = match cmd {
            "find" => {
                need(1)?;
                Op::Find(node(args[0])?)
            }
            "succ" => {
                need(1)?;
                Op::Successors(node(args[0])?)
            }
            "asucc" => {
                need(2)?;
                Op::ASuccessor(node(args[0])?, node(args[1])?)
            }
            "route" => {
                if args.len() < 2 {
                    return Err(err("`route` needs at least two nodes".into()));
                }
                Op::Route(args.iter().map(|s| node(s)).collect::<Result<_, _>>()?)
            }
            "astar" => {
                need(2)?;
                Op::AStar(node(args[0])?, node(args[1])?)
            }
            "insert-edge" => {
                need(3)?;
                let cost = args[2]
                    .parse::<u32>()
                    .map_err(|_| err(format!("bad cost `{}`", args[2])))?;
                Op::InsertEdge(node(args[0])?, node(args[1])?, cost)
            }
            "delete-edge" => {
                need(2)?;
                Op::DeleteEdge(node(args[0])?, node(args[1])?)
            }
            "delete-node" => {
                need(1)?;
                Op::DeleteNode(node(args[0])?)
            }
            "reinsert-node" => {
                need(1)?;
                Op::ReinsertNode(node(args[0])?)
            }
            other => return Err(err(format!("unknown op `{other}`"))),
        };
        ops.push(op);
    }
    Ok(ops)
}

/// Serialises a trace to its text form (inverse of [`parse_trace`]).
pub fn format_trace(ops: &[Op]) -> String {
    let mut out = String::new();
    for op in ops {
        out.push_str(&op.to_string());
        out.push('\n');
    }
    out
}

/// Outcome of replaying one trace.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplayStats {
    /// Operations executed.
    pub executed: usize,
    /// Operations that addressed missing nodes/edges (skipped, counted).
    pub misses: usize,
    /// Total counted data-page reads.
    pub page_reads: u64,
    /// Total counted data-page writes.
    pub page_writes: u64,
    /// Per-op-kind counts, keyed by the op's command word.
    pub per_op: Vec<(String, usize)>,
}

/// Replays `ops` against `am`, counting data-page I/O per the paper's
/// conventions (each operation starts with whatever the previous one left
/// buffered — trace replay measures the *workload*, not isolated ops).
pub fn replay<S: PageStore>(
    am: &mut dyn AccessMethod<S>,
    ops: &[Op],
) -> StorageResult<ReplayStats> {
    let mut stats = ReplayStats::default();
    let mut per_op: HashMap<&'static str, usize> = HashMap::new();
    let mut graveyard: HashMap<NodeId, Vec<DeletedNode>> = HashMap::new();
    let before = am.stats().snapshot();

    for op in ops {
        stats.executed += 1;
        let kind: &'static str = match op {
            Op::Find(n) => {
                if am.find(*n)?.is_none() {
                    stats.misses += 1;
                }
                "find"
            }
            Op::Successors(n) => {
                if am.get_successors(*n)?.is_empty() && am.find(*n)?.is_none() {
                    stats.misses += 1;
                }
                "succ"
            }
            Op::ASuccessor(a, b) => {
                am.find(*a)?;
                if am.get_a_successor(*a, *b)?.is_none() {
                    stats.misses += 1;
                }
                "asucc"
            }
            Op::Route(nodes) => {
                let eval = evaluate_path(am, nodes)?;
                if !eval.complete {
                    stats.misses += 1;
                }
                "route"
            }
            Op::AStar(a, b) => {
                if a_star(am, *a, *b)?.is_none() {
                    stats.misses += 1;
                }
                "astar"
            }
            Op::InsertEdge(a, b, c) => {
                if !am.insert_edge(*a, *b, *c)? {
                    stats.misses += 1;
                }
                "insert-edge"
            }
            Op::DeleteEdge(a, b) => {
                if am.delete_edge(*a, *b)?.is_none() {
                    stats.misses += 1;
                }
                "delete-edge"
            }
            Op::DeleteNode(n) => {
                match am.delete_node(*n)? {
                    Some(del) => graveyard.entry(*n).or_default().push(del),
                    None => stats.misses += 1,
                }
                "delete-node"
            }
            Op::ReinsertNode(n) => {
                match graveyard.get_mut(n).and_then(|v| v.pop()) {
                    Some(del) => am.insert_node(&del.data, &del.incoming)?,
                    None => stats.misses += 1,
                }
                "reinsert-node"
            }
        };
        *per_op.entry(kind).or_insert(0) += 1;
    }

    let delta = am.stats().snapshot().since(&before);
    stats.page_reads = delta.physical_reads;
    stats.page_writes = delta.physical_writes;
    let mut per: Vec<(String, usize)> = per_op
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    per.sort();
    stats.per_op = per;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::am::CcamBuilder;
    use ccam_graph::generators::{grid_network, zorder_id};
    use ccam_graph::RecordCodec;

    #[test]
    fn parse_format_roundtrip() {
        let text = "\
# a comment
find 1
succ 2
asucc 2 3
route 1 2 3 4   # inline comment
astar 1 9
insert-edge 1 9 30
delete-edge 1 9
delete-node 4
reinsert-node 4
";
        let ops = parse_trace(text).unwrap();
        assert_eq!(ops.len(), 9);
        let reparsed = parse_trace(&format_trace(&ops)).unwrap();
        assert_eq!(reparsed, ops);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_trace("find 1\nfrobnicate 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
        let e = parse_trace("find not-a-number").unwrap_err();
        assert!(e.message.contains("bad node id"));
        let e = parse_trace("asucc 1").unwrap_err();
        assert!(e.message.contains("2 argument"));
        let e = parse_trace("route 1").unwrap_err();
        assert!(e.message.contains("at least two"));
    }

    #[test]
    fn replay_executes_and_counts() {
        // 28 × 28 nodes take 80 compact pages, more than the 64-frame
        // pool holds, so the trace has to read some of them.
        let net = grid_network(28, 28, 1.0);
        let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
        assert!(am.file().num_pages() > am.file().pool().capacity());
        let a = zorder_id(0, 0);
        let b = zorder_id(1, 0);
        let c = zorder_id(27, 27);
        let trace = format!(
            "find {}\nsucc {}\nasucc {} {}\nastar {} {}\ndelete-node {}\nreinsert-node {}\n",
            a.0, a.0, a.0, b.0, a.0, c.0, b.0, b.0
        );
        let ops = parse_trace(&trace).unwrap();
        let stats = replay(&mut am, &ops).unwrap();
        assert_eq!(stats.executed, 6);
        assert_eq!(stats.misses, 0);
        assert!(stats.page_reads > 0);
        // The file is intact after the delete/reinsert pair.
        assert_eq!(am.file().len(), 28 * 28);
        assert!(am.find(b).unwrap().is_some());
    }

    #[test]
    fn replay_counts_misses_without_failing() {
        let net = grid_network(4, 4, 1.0);
        let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
        let ops = parse_trace("find 999999\ndelete-node 999999\nreinsert-node 5\n").unwrap();
        let stats = replay(&mut am, &ops).unwrap();
        assert_eq!(stats.executed, 3);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn same_trace_cheaper_on_better_clustering() {
        use crate::am::{TopoAm, TraversalOrder};
        use ccam_graph::walks::random_walk_routes;
        use std::collections::HashMap as Map;
        let net = grid_network(10, 10, 1.0);
        // A route-heavy trace: the paper's CRR-sensitive workload. (A
        // full `succ` sweep of every node would be bound by page count,
        // not clustering.)
        let mut text = String::new();
        for r in random_walk_routes(&net, 40, 12, 8) {
            text.push_str(&Op::Route(r.nodes).to_string());
            text.push('\n');
        }
        let ops = parse_trace(&text).unwrap();
        let mut ccam = CcamBuilder::new(512)
            .codec(RecordCodec::Paper)
            .build_static(&net)
            .unwrap();
        let mut bfs = TopoAm::create(
            &net,
            512,
            TraversalOrder::BreadthFirst,
            None,
            &Map::new(),
            RecordCodec::Paper,
        )
        .unwrap();
        ccam.file().pool().set_capacity(2).unwrap();
        bfs.file().pool().set_capacity(2).unwrap();
        let s1 = replay(&mut ccam, &ops).unwrap();
        let s2 = replay(&mut bfs, &ops).unwrap();
        assert!(
            s1.page_reads < s2.page_reads,
            "ccam {} vs bfs {}",
            s1.page_reads,
            s2.page_reads
        );
    }
}
