//! `embedded_ops`: direct `Ccam` calls on one thread, no server.
//!
//! Reads: `evaluate_route` over commuter routes, `a_star` between the
//! ends of fixed-length walks, `SpatialIndex::window_records`, and
//! `route_unit_aggregate`, in equal shares. Writes: `delete_node` +
//! `insert_node` pairs under the default reorganization policy with
//! auto-commit (page splits, merges and reorganization included). A
//! server optimisation predicts no change here.

use std::path::PathBuf;
use std::time::Instant;

use ccam_core::epoch::EpochCell;
use ccam_core::query::aggregate::RouteUnitAggregate;
use ccam_core::query::route::{evaluate_route, RouteEvaluation};
use ccam_core::query::route_unit_aggregate;
use ccam_core::query::search::{a_star, SearchResult};
use ccam_core::query::spatial::SpatialIndex;
use ccam_core::AccessMethod;
use ccam_graph::{Network, NodeData, NodeId};

use crate::check::{
    aggregate_matches, route_matches, same_node, search_matches, window_matches, Tally,
};
use crate::layers;
use crate::ops::{EmbeddedOps, EmbeddedRead};
use crate::report::{Metrics, Outcome};
use crate::rounds::{
    latency_us, record_counts, record_timings, run_rounds, seconds_per_request, FixedReads,
    FixedWrites, Round,
};
use crate::serve::write_trace;
use crate::setup::{self, median_of, repeated_set_up, Ctx, Db, DbDir, Instance, Res};
use crate::spec::{Spec, MIN_ROUNDS, VALIDATE_EVERY};
use crate::trace::Tracer;
use crate::RunArgs;

/// What a read call returned.
enum Answer {
    Route(RouteEvaluation),
    Search(Option<SearchResult>),
    Window(Vec<NodeData>),
    Aggregate(RouteUnitAggregate),
}

/// Makes one read call.
fn call(db: &Db, op: &EmbeddedRead) -> Res<Answer> {
    Ok(match op {
        EmbeddedRead::Route(route) => {
            Answer::Route(evaluate_route(db, route).ctx("evaluate_route")?)
        }
        EmbeddedRead::AStar(from, to) => Answer::Search(a_star(db, *from, *to).ctx("a_star")?),
        EmbeddedRead::Window(w) => Answer::Window(
            SpatialIndex::zorder()
                .window_records(db.file(), w[0], w[1], w[2], w[3])
                .ctx("window_records")?,
        ),
        EmbeddedRead::Aggregate(arcs) => {
            Answer::Aggregate(route_unit_aggregate(db, arcs).ctx("route_unit_aggregate")?)
        }
    })
}

/// True when `answer` is right for `op`: compared with the model field
/// by field when `full`, else only for having found something.
fn answer_ok(net: &Network, op: &EmbeddedRead, answer: &Answer, full: bool) -> bool {
    match (op, answer) {
        (EmbeddedRead::Route(route), Answer::Route(eval)) => {
            eval.complete && (!full || route_matches(net, &route.nodes, eval))
        }
        (EmbeddedRead::AStar(from, to), Answer::Search(found)) => {
            found.is_some() && (!full || search_matches(net, *from, *to, found.as_ref()))
        }
        (EmbeddedRead::Window(w), Answer::Window(recs)) => {
            !recs.is_empty() && (!full || window_matches(net, *w, recs))
        }
        (EmbeddedRead::Aggregate(arcs), Answer::Aggregate(agg)) => {
            agg.arcs_missing == 0 && (!full || aggregate_matches(net, arcs, agg))
        }
        _ => false,
    }
}

/// One round of read calls. One call in [`VALIDATE_EVERY`] — rotating
/// through the four kinds — is compared with the model in full, after
/// the round's clock has stopped.
fn read_round(db: &Db, net: &Network, calls: &[EmbeddedRead], tally: &mut Tally) -> Res<Round> {
    let mut round = Round::default();
    let mut kept = Vec::new();
    let t0 = Instant::now();
    for (i, op) in calls.iter().enumerate() {
        let sent = Instant::now();
        let answer = call(db, op)?;
        round.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
        round.ops += 1;
        if i % VALIDATE_EVERY == (i / VALIDATE_EVERY) % 4 {
            kept.push((op, answer));
        } else {
            tally.record(answer_ok(net, op, &answer, false));
        }
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    for (op, answer) in &kept {
        tally.record(answer_ok(net, op, answer, true));
    }
    Ok(round)
}

/// One round of `delete_node` + `insert_node` pairs; each call is one
/// write (and, under auto-commit, one transaction).
fn write_round(db: &mut Db, ids: &[NodeId], tally: &mut Tally) -> Res<Round> {
    let mut round = Round::default();
    let t0 = Instant::now();
    for &id in ids {
        let sent = Instant::now();
        let deleted = db.delete_node(id).ctx("delete_node")?;
        round.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
        tally.record(deleted.is_some());
        let Some(deleted) = deleted else { continue };
        let sent = Instant::now();
        db.insert_node(&deleted.data, &deleted.incoming)
            .ctx("insert_node")?;
        round.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
        tally.record(true);
        round.ops += 2;
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    Ok(round)
}

/// One embedded run's state.
struct Session<'a> {
    spec: &'a Spec,
    ops: EmbeddedOps,
    db: Db,
    db_path: PathBuf,
    /// The reference model. Deleting and re-inserting a node leaves it
    /// as it was, so the generated network stays the model throughout.
    net: Network,
    /// Every node deleted and re-inserted, for the check after restart.
    rewritten: Vec<NodeId>,
    tally: Tally,
}

impl Session<'_> {
    /// Alternating rounds of read calls and of write pairs, timed apart
    /// (both kinds of metric see the whole of the run). Also returns the
    /// counts of the warm-up plus the first [`MIN_ROUNDS`] rounds, the
    /// reads' from a cold pool.
    fn rounds(&mut self, budget_s: f64) -> Res<(Vec<Round>, Vec<Round>, FixedReads, FixedWrites)> {
        let stats = self.db.stats();
        let wal_before = setup::wal_info(&self.db)?;
        let mut fixed = None;
        let (mut total_reads, mut total_writes, mut read_pages) = (0, 0, 0);
        let rounds = run_rounds(budget_s, MIN_ROUNDS, |r| {
            let calls = self.ops.read_round(r, self.spec.reads_per_round);
            let ids = self.ops.write_round(r, self.spec.writes_per_round);
            // The write rounds read pages through the same pool: only
            // the reads' own page reads are counted.
            let io_before = stats.snapshot();
            let reads = read_round(&self.db, &self.net, &calls, &mut self.tally)?;
            read_pages += stats.snapshot().since(&io_before).physical_reads;
            let writes = write_round(&mut self.db, &ids, &mut self.tally)?;
            self.rewritten.extend(&ids);
            total_reads += reads.ops;
            total_writes += writes.ops;
            if r == MIN_ROUNDS {
                fixed = Some((
                    FixedReads {
                        physical_reads: read_pages,
                        ops: total_reads,
                    },
                    setup::fixed_writes(&self.db, &wal_before, total_writes)?,
                ));
            }
            Ok((reads, writes))
        })?;
        let (fixed_reads, fixed_writes) = fixed.ok_or("run ended before its fixed rounds")?;
        let (reads, writes) = rounds.into_iter().unzip();
        Ok((reads, writes, fixed_reads, fixed_writes))
    }

    /// The traced part: one more read and write round with a span around
    /// each direct call, then the per-layer probes, added to `m`.
    fn traced_layers(
        &mut self,
        reads: &[Round],
        writes: &[Round],
        tracer: &mut Tracer,
        m: &mut Metrics,
    ) -> Res<()> {
        let stats = self.db.stats();
        let before = stats.snapshot();
        let calls = self
            .ops
            .read_round(reads.len() + 1, self.spec.reads_per_round);
        let t0 = Instant::now();
        for (i, op) in calls.iter().enumerate() {
            let span = tracer.start(op.span(), None, i as u64);
            let answer = call(&self.db, op);
            tracer.end(span);
            self.tally.record(answer_ok(&self.net, op, &answer?, false));
        }
        m.set("write_lat_p90_us", latency_us(writes, 0.90));
        let per_call = t0.elapsed().as_secs_f64() / calls.len() as f64;
        m.set(
            "trace.overhead_ratio",
            per_call / seconds_per_request(reads),
        );
        let io = stats.snapshot().since(&before);
        m.set(
            "buffer.hit_ratio",
            io.buffer_hits as f64 / (io.buffer_hits + io.physical_reads).max(1) as f64,
        );
        m.set(
            "buffer.evictions_per_op",
            io.evictions as f64 / calls.len() as f64,
        );
        m.set(
            "store.physical_reads_per_op",
            io.physical_reads as f64 / calls.len() as f64,
        );
        // Find and Get-successors are what every other call is built from.
        let ids = self
            .ops
            .write_round(writes.len() + 2, self.spec.reads_per_round);
        for (i, &id) in ids.iter().enumerate() {
            let found = tracer.time("core.eval.find", None, i as u64, || self.db.find(id));
            std::hint::black_box(found.ctx("find")?);
            let succ = tracer.time("core.eval.succ", None, i as u64, || {
                self.db.get_successors(id)
            });
            std::hint::black_box(succ.ctx("get_successors")?);
        }
        for (metric, span) in [
            ("core.eval_us.find", "core.eval.find"),
            ("core.eval_us.succ", "core.eval.succ"),
            ("core.eval_us.route", "core.eval.route"),
            ("core.eval_us.agg", "core.eval.agg"),
            ("core.eval_us.astar", "core.eval.astar"),
            ("core.eval_us.window", "core.eval.window"),
        ] {
            m.set(metric, tracer.mean_ns(span) / 1e3);
        }

        let wal_before = setup::wal_info(&self.db)?;
        let io_before = stats.snapshot();
        let victims = self
            .ops
            .write_round(writes.len() + 1, self.spec.writes_per_round);
        for (i, &id) in victims.iter().enumerate() {
            let deleted = tracer
                .time("core.delete_node", None, i as u64, || {
                    self.db.delete_node(id)
                })
                .ctx("delete_node")?;
            self.tally.record(deleted.is_some());
            let Some(deleted) = deleted else { continue };
            tracer
                .time("core.insert_node", None, i as u64, || {
                    self.db.insert_node(&deleted.data, &deleted.incoming)
                })
                .ctx("insert_node")?;
            self.tally.record(true);
        }
        self.rewritten.extend(&victims);
        let wal = setup::wal_info(&self.db)?;
        let io = stats.snapshot().since(&io_before);
        let n = (victims.len() * 2) as f64;
        let (delete_us, insert_us) = (
            tracer.mean_ns("core.delete_node") / 1e3,
            tracer.mean_ns("core.insert_node") / 1e3,
        );
        m.set("core.delete_us", delete_us);
        m.set("core.insert_us", insert_us);
        m.set("core.upsert_us", delete_us + insert_us);
        m.set(
            "wal.bytes_per_upsert",
            (wal.bytes_appended - wal_before.bytes_appended) as f64 / n,
        );
        m.set("wal.syncs_per_upsert", io.syncs as f64 / n);
        m.set(
            "store.physical_writes_per_upsert",
            io.physical_writes as f64 / n,
        );
        m.set("wal.checkpoints", wal.checkpoints as f64);
        m.set("wal.live_bytes_end", wal.live_bytes as f64);

        let windows = layers::windows_around(&self.net, &ids);
        layers::probe_file(self.db.file(), &ids, &windows, tracer, m)?;
        layers::probe_partition(self.spec, &self.net, self.db.file(), tracer, m);
        Ok(())
    }
}

/// Runs `embedded_ops` end to end.
pub fn run(spec: &Spec, args: &RunArgs) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let dir = DbDir::create(&args.out_dir, spec.workload.name())?;
    let (net, instance, setups) = repeated_set_up(spec, args.traced, &dir.db_path(), &mut tracer)?;
    let Instance::Embedded(db) = instance else {
        return Err("embedded workload was set up with a server".into());
    };
    let nodes = net.len();
    out.note("nodes", nodes);
    out.note("data_pages", db.file().num_pages());
    out.note("pool_frames", db.file().pool().capacity());
    out.note("workers", "0 (no server, one thread)");
    out.note("loop", "closed");
    out.note_storage(&args.out_dir);
    let space_bytes = setup::space_bytes(&db, &dir.db_path())?;

    let mut session = Session {
        spec,
        ops: EmbeddedOps::new(&net, spec, args.seed),
        db: *db,
        db_path: dir.db_path(),
        net,
        rewritten: Vec::new(),
        tally: Tally::default(),
    };
    let mut m = Metrics::default();
    if args.traced {
        layers::probe_placement(session.db.file(), session.ops.routes(), &mut m)?;
        m.set("graph.generate_s", median_of(&setups, |t| t.generate_s));
        m.set("core.create_s", median_of(&setups, |t| t.create_s));
    }
    let (reads, writes, fixed_reads, fixed_writes) = session.rounds(args.untraced_seconds())?;
    out.note("read_rounds", reads.len());
    out.note("write_rounds", writes.len());
    if args.traced {
        session.traced_layers(&reads, &writes, &mut tracer, &mut m)?;
    }

    record_timings(&mut out, &setups, &reads, &writes);
    record_counts(&mut out, fixed_reads, fixed_writes, space_bytes, nodes);

    // Restart: every node that was deleted and re-inserted must read
    // back as the model has it.
    let Session {
        db,
        db_path,
        net,
        mut rewritten,
        mut tally,
        ..
    } = session;
    drop(db);
    let (mut db, _report) = setup::open(spec, &db_path)?;
    rewritten.sort_unstable();
    rewritten.dedup();
    for id in &rewritten {
        let stored = db.find(*id).ctx("re-read rewritten node")?;
        let ok = matches!((net.node(*id), &stored), (Some(want), Some(got)) if same_node(want, got, true));
        tally.record(ok);
    }
    out.tally = tally;
    out.end_to_end
        .set("success_ratio", out.tally.success_ratio());
    if args.traced {
        // ccam-core::epoch has no part in this workload; its probe runs
        // on the same database for the ledger's sake.
        db.enable_snapshots().ctx("enable snapshots")?;
        let cell = EpochCell::new(db).ctx("publish first snapshot")?;
        layers::probe_epoch(&cell, &mut tracer, &mut m)?;
        out.per_layer = m;
        write_trace(&tracer, args, spec, &mut out)?;
    }
    Ok(out)
}
