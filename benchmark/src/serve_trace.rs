//! The traced part of a served run: one more round of each kind with a
//! span around every call the benchmark makes into a layer, then the
//! per-layer probes. The per-layer metrics are derived from the spans
//! and from counter differences; all times here are as measured.

use std::time::Instant;

use ccam_core::query::route::evaluate_path_bounded;
use ccam_core::query::route_unit_aggregate_bounded;
use ccam_core::{AccessMethod, Ccam};
use ccam_graph::NodeId;
use ccam_server::protocol::{
    decode_request_batch, decode_response_batch, encode_request_batch, encode_response_batch,
    Request,
};
use ccam_storage::SnapshotStore;

use crate::check::status_ok;
use crate::json::{self, Value};
use crate::layers;
use crate::ops::Phase;
use crate::report::Metrics;
use crate::rounds::{latency_us, seconds_per_request};
use crate::serve::{upsert_request, Measured, Session};
use crate::setup::{median_of, Ctx, Res, SetupTimes};
use crate::stats::percentile;
use crate::trace::Tracer;

/// The span name of the direct evaluation of `req`.
fn eval_span(req: &Request) -> &'static str {
    match req {
        Request::Find(_) => "core.eval.find",
        Request::GetSuccessors(_) => "core.eval.succ",
        Request::Route(_) => "core.eval.route",
        Request::RangeAggregate(_) => "core.eval.agg",
        Request::Stats | Request::Upsert { .. } => "core.eval.other",
    }
}

/// Evaluates one read request directly on a snapshot view, with the
/// calls the server's worker makes.
fn evaluate(view: &Ccam<SnapshotStore>, req: &Request) -> Res<()> {
    let mut never = || false;
    match req {
        Request::Find(id) => {
            std::hint::black_box(view.find(*id).ctx("find")?);
        }
        Request::GetSuccessors(id) => {
            std::hint::black_box(view.get_successors(*id).ctx("get_successors")?);
        }
        Request::Route(nodes) => {
            std::hint::black_box(evaluate_path_bounded(view, nodes, &mut never).ctx("route")?);
        }
        Request::RangeAggregate(arcs) => {
            std::hint::black_box(
                route_unit_aggregate_bounded(view, arcs, &mut never).ctx("aggregate")?,
            );
        }
        Request::Stats | Request::Upsert { .. } => {}
    }
    Ok(())
}

/// Median of a server-side latency histogram, interpolated inside its
/// power-of-two bucket (that is the histogram's resolution).
fn histogram_p50(registry: &Value, name: &str) -> f64 {
    let Some(h) = registry.get("histograms").and_then(|h| h.get(name)) else {
        return 0.0;
    };
    let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let half = number(h, "count").unwrap_or(0.0) / 2.0;
    let (mut below, mut lower) = (0.0, 0.0);
    for bucket in h.get("buckets").and_then(Value::as_arr).unwrap_or(&[]) {
        let inside = number(bucket, "count").unwrap_or(0.0);
        // The overflow bucket's bound is the string "+Inf".
        let upper = number(bucket, "le")
            .or_else(|| number(h, "max"))
            .unwrap_or(lower);
        if inside > 0.0 && below + inside >= half {
            return lower + (upper - lower) * (half - below) / inside;
        }
        below += inside;
        lower = upper;
    }
    0.0
}

/// Runs the traced rounds and probes of a served workload and returns
/// its per-layer metrics, added to `m` (the placement metrics, taken
/// before any write).
pub(crate) fn traced_layers(
    session: &mut Session<'_>,
    measured: &Measured,
    setups: &[SetupTimes],
    tracer: &mut Tracer,
    mut m: Metrics,
) -> Res<Metrics> {
    let spec = session.spec;
    m.set("graph.generate_s", median_of(setups, |t| t.generate_s));
    m.set("core.create_s", median_of(setups, |t| t.create_s));
    m.set("write_lat_p90_us", latency_us(&measured.writes, 0.90));

    // Counters of the untraced rounds: what the buffer and the store did
    // per read request.
    let io = session.views.total();
    let reads = measured.total_reads as f64;
    m.set(
        "buffer.hit_ratio",
        io.buffer_hits as f64 / (io.buffer_hits + io.physical_reads).max(1) as f64,
    );
    m.set("buffer.evictions_per_op", io.evictions as f64 / reads);
    m.set(
        "store.physical_reads_per_op",
        io.physical_reads as f64 / reads,
    );

    // One traced read round over the wire. The last round's writes
    // replaced the view its reads used, so the pool is sized again first.
    session.size_pool()?;
    let batches = session
        .ops
        .read_round(measured.reads.len() + 1, spec.reads_per_round);
    let mut client = session.connect()?;
    let mut answers = Vec::with_capacity(batches.len());
    let t0 = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let span = tracer.start("client.call", None, i as u64);
        let resps = client.call(batch);
        tracer.end(span);
        let resps = resps.ctx("traced read batch")?;
        for (req, resp) in batch.iter().zip(&resps) {
            session.tally.record(status_ok(req, resp));
        }
        answers.push(resps);
    }
    let traced_requests: usize = batches.iter().map(Vec::len).sum();
    m.set(
        "trace.overhead_ratio",
        t0.elapsed().as_secs_f64() / traced_requests as f64 / seconds_per_request(&measured.reads),
    );

    // The same batches again, layer by layer, without the wire.
    let view = session.cell().read().ctx("pin snapshot")?;
    let mut wire_bytes = 0usize;
    let mut replayed = 0u64;
    for (i, (batch, resps)) in batches.iter().zip(&answers).enumerate() {
        let i = i as u64;
        let parent = tracer.start("replay.batch", None, i);
        let frame = tracer.time("protocol.encode_request_batch", Some(parent), i, || {
            encode_request_batch(i as u32, 0, batch)
        });
        let decoded = tracer.time("protocol.decode_request_batch", Some(parent), i, || {
            decode_request_batch(&frame)
        });
        std::hint::black_box(decoded.map_err(|e| format!("decode request: {e:?}"))?);
        for req in batch {
            let span = tracer.start(eval_span(req), Some(parent), i);
            let evaluated = evaluate(&view, req);
            tracer.end(span);
            evaluated?;
        }
        let reply = tracer.time("protocol.encode_response_batch", Some(parent), i, || {
            encode_response_batch(i as u32, resps)
        });
        let decoded = tracer.time("protocol.decode_response_batch", Some(parent), i, || {
            decode_response_batch(&reply)
        });
        std::hint::black_box(decoded.map_err(|e| format!("decode response: {e:?}"))?);
        tracer.end(parent);
        wire_bytes += frame.len() + reply.len();
        replayed += batch.len() as u64;
    }
    drop(view);
    let per_request = |tracer: &Tracer, span: &str| tracer.totals(span).0 as f64 / replayed as f64;
    for (metric, span) in [
        (
            "protocol.encode_req_ns_per_op",
            "protocol.encode_request_batch",
        ),
        (
            "protocol.decode_req_ns_per_op",
            "protocol.decode_request_batch",
        ),
        (
            "protocol.encode_resp_ns_per_op",
            "protocol.encode_response_batch",
        ),
        (
            "protocol.decode_resp_ns_per_op",
            "protocol.decode_response_batch",
        ),
    ] {
        m.set(metric, per_request(tracer, span));
    }
    m.set("protocol.bytes_per_op", wire_bytes as f64 / replayed as f64);
    for (metric, span) in [
        ("core.eval_us.find", "core.eval.find"),
        ("core.eval_us.succ", "core.eval.succ"),
        ("core.eval_us.route", "core.eval.route"),
        ("core.eval_us.agg", "core.eval.agg"),
    ] {
        m.set(metric, tracer.mean_ns(span) / 1e3);
    }
    // What the wire, the queue, the worker hand-off and the snapshot pin
    // add to one request: round trip per request minus everything the
    // replay accounts for.
    m.set(
        "server.overhead_us_per_op",
        (per_request(tracer, "client.call") - per_request(tracer, "replay.batch")) / 1e3,
    );

    // Traced writes over the wire, with the log's and the store's
    // counters differenced around them.
    let wal_before = session.wal_info()?;
    let io_before = session.writer_io()?;
    let over_wire = session.ops.write_round(
        Phase::Write,
        measured.writes.len() + 1,
        spec.writes_per_round,
    );
    for (i, w) in over_wire.iter().enumerate() {
        let req = upsert_request(w);
        let span = tracer.start("client.call.upsert", None, i as u64);
        let sent = session.upsert(&mut client, w, &req);
        tracer.end(span);
        sent?;
    }
    let wal = session.wal_info()?;
    let io = session.writer_io()?.since(&io_before);
    let n = over_wire.len() as f64;
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

    // The same kind of write step by step, as the server's worker takes
    // them: guard, delete + insert as one transaction, log commit,
    // snapshot publish.
    let direct = session
        .ops
        .write_round(Phase::Replay, 0, spec.writes_per_round);
    for (i, w) in direct.iter().enumerate() {
        let i = i as u64;
        let parent = tracer.start("replay.upsert", None, i);
        let mut guard = tracer
            .time("epoch.write", Some(parent), i, || {
                session.served.cell.write()
            })
            .ctx("write guard")?;
        guard.file_mut().set_auto_commit(false);
        let deleted = tracer
            .time("core.delete_node", Some(parent), i, || {
                guard.delete_node(w.id)
            })
            .ctx("delete_node")?
            .ok_or("node to rewrite is missing")?;
        let mut data = deleted.data;
        data.payload.clone_from(&w.payload);
        tracer
            .time("core.insert_node", Some(parent), i, || {
                guard.insert_node(&data, &deleted.incoming)
            })
            .ctx("insert_node")?;
        guard.file_mut().set_auto_commit(true);
        tracer
            .time("wal.commit", Some(parent), i, || guard.file().commit())
            .ctx("commit")?;
        tracer
            .time("epoch.commit", Some(parent), i, || guard.commit())
            .ctx("publish")?;
        tracer.end(parent);
        session.tally.record(true);
        session.acknowledge(w);
    }
    let span_us = |tracer: &Tracer, span: &str| tracer.mean_ns(span) / 1e3;
    m.set("core.delete_us", span_us(tracer, "core.delete_node"));
    m.set("core.insert_us", span_us(tracer, "core.insert_node"));
    m.set(
        "core.upsert_us",
        span_us(tracer, "core.delete_node")
            + span_us(tracer, "core.insert_node")
            + span_us(tracer, "wal.commit"),
    );

    layers::probe_epoch(session.cell(), tracer, &mut m)?;

    // The server's own registry for the same run.
    let registry =
        json::parse(&session.served.handle.metrics_json()).ctx("parse server metrics")?;
    let counters = registry
        .get("counters")
        .and_then(Value::as_obj)
        .unwrap_or(&[]);
    let counted = |prefix: &str| -> f64 {
        counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .filter_map(|(_, v)| v.as_f64())
            .fold(0.0, |sum, v| sum + v)
    };
    m.set("snapshot.pins", counted("serve.snapshot_pins"));
    m.set(
        "snapshot.reader_stall_ms",
        registry
            .get("histograms")
            .and_then(|h| h.get("serve.reader_stall_ms"))
            .and_then(|h| h.get("mean"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    );
    for (metric, histogram) in [
        ("server.exec_us_p50.find", "serve.find.elapsed_us"),
        ("server.exec_us_p50.succ", "serve.get_successors.elapsed_us"),
        ("server.exec_us_p50.route", "serve.route.elapsed_us"),
        ("server.exec_us_p50.agg", "serve.range_aggregate.elapsed_us"),
        ("server.exec_us_p50.upsert", "serve.upsert.elapsed_us"),
    ] {
        m.set(metric, histogram_p50(&registry, histogram));
    }
    m.set("server.overloaded", counted("serve.overloaded"));
    m.set("server.internal_errors", counted("serve.internal_errors"));
    if !measured.late_ms.is_empty() {
        m.set(
            "server.write_late_ms_p90",
            percentile(&measured.late_ms, 0.90),
        );
    }

    // The index, buffer and store probes, on the view now served.
    let view = session.cell().read().ctx("pin snapshot")?;
    let ids: Vec<NodeId> = batches
        .iter()
        .flatten()
        .filter_map(|req| match req {
            Request::Find(id) | Request::GetSuccessors(id) => Some(*id),
            _ => None,
        })
        .collect();
    let windows = layers::windows_around(&session.net, &ids);
    layers::probe_file(view.file(), &ids, &windows, tracer, &mut m)?;
    layers::probe_partition(spec, &session.net, view.file(), tracer, &mut m);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        let registry = json::parse(
            r#"{"histograms": {"h": {"count": 10, "max": 40, "buckets": [
                {"le": 8, "count": 2}, {"le": 16, "count": 6}, {"le": "+Inf", "count": 2}]}}}"#,
        )
        .unwrap();
        // The 5th of 10 observations is the 3rd of the 6 in (8, 16].
        assert_eq!(histogram_p50(&registry, "h"), 12.0);
        assert_eq!(histogram_p50(&registry, "absent"), 0.0);
    }
}
