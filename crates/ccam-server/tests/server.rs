//! End-to-end tests over a real loopback socket: batching, error
//! statuses, batches run on their reader or queued for the pool under
//! contention, overload rejection, snapshot-consistent reads during
//! writer commits, and graceful shutdown draining.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ccam_core::epoch::EpochCell;
use ccam_core::{AccessMethod, Ccam, CcamBuilder};
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::{Network, NodeData, NodeId};
use ccam_server::client::Client;
use ccam_server::protocol::{OpCode, Request, Response, Status, PROTOCOL_VERSION};
use ccam_server::{Server, ServerConfig, ServerHandle};
use ccam_storage::{MemPageStore, SweepRng, WalInfo, WalStore, DEFAULT_MAX_WAL_BYTES};

mod common;
use common::{ping_pong, wait_until};

const PAGE: usize = 1024;

fn build_db() -> (Ccam, Network) {
    let net = road_map(&RoadMapConfig {
        grid_w: 10,
        grid_h: 10,
        removed_nodes: 2,
        target_segments: 150,
        target_directed: 265,
        cell: 64,
        jitter: 24,
        seed: 5,
    });
    let am = CcamBuilder::new(PAGE).build_static(&net).unwrap();
    (am, net)
}

fn start_server(config: ServerConfig) -> (ServerHandle<ccam_storage::MemPageStore>, Network) {
    let (am, net) = build_db();
    let db = Arc::new(EpochCell::new(am).unwrap());
    (Server::start(db, config).unwrap(), net)
}

/// A long-running server must forget closed connections (each holds two
/// socket fds plus a reader handle) instead of accumulating them until
/// shutdown — whether the client disconnects idle or right after a
/// served batch.
#[test]
fn closed_connections_are_forgotten() {
    let (handle, net) = start_server(ServerConfig::default());
    let a = net.node_ids()[0];
    for busy in [false, true] {
        for _ in 0..4 {
            let mut client = Client::connect(handle.local_addr()).unwrap();
            if busy {
                let resps = client.call(&[Request::Find(a)]).unwrap();
                assert_eq!(resps.len(), 1);
            }
            drop(client);
        }
    }
    // Readers observe the EOFs asynchronously.
    wait_until(|| handle.active_connections() == 0);
    handle.shutdown().unwrap();
}

#[test]
fn batched_queries_round_trip() {
    let (handle, net) = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let ids = net.node_ids();
    let (a, b) = (ids[0], ids[1]);
    let resps = client
        .call(&[
            Request::Find(a),
            Request::Find(NodeId(u64::MAX)),
            Request::GetSuccessors(b),
            Request::Stats,
        ])
        .unwrap();
    assert_eq!(resps.len(), 4);
    match &resps[0] {
        Response::Record(node) => assert_eq!(node.id, a),
        other => panic!("expected record, got {other:?}"),
    }
    assert_eq!(resps[1], Response::Error(Status::NotFound, OpCode::Find));
    match &resps[2] {
        Response::Records(succs) => {
            let expected = net.nodes().find(|n| n.id == b).unwrap().successors.len();
            assert_eq!(succs.len(), expected);
        }
        other => panic!("expected records, got {other:?}"),
    }
    match &resps[3] {
        Response::StatsJson(json) => {
            assert!(json.contains("serve.requests"));
            assert!(json.contains("io.physical_reads"));
        }
        other => panic!("expected stats, got {other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn route_and_aggregate_match_direct_evaluation() {
    let (am, net) = build_db();
    // Take a real 4-node walk so the route is complete.
    let start = net.node_ids()[3];
    let mut walk = vec![start];
    for _ in 0..3 {
        let cur = *walk.last().unwrap();
        let node = net.nodes().find(|n| n.id == cur).unwrap();
        match node.successors.first() {
            Some(e) => walk.push(e.to),
            None => break,
        }
    }
    let direct = ccam_core::query::route::evaluate_path(&am, &walk).unwrap();
    let arcs: Vec<(NodeId, NodeId)> = walk.windows(2).map(|w| (w[0], w[1])).collect();
    let direct_agg = ccam_core::query::route_unit_aggregate(&am, &arcs).unwrap();

    let db = Arc::new(EpochCell::new(am).unwrap());
    let handle = Server::start(db, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let resps = client
        .call(&[
            Request::Route(walk.clone()),
            Request::RangeAggregate(arcs.clone()),
        ])
        .unwrap();
    assert_eq!(
        resps[0],
        Response::RouteEval {
            total_cost: direct.total_cost,
            nodes_visited: direct.nodes_visited as u32,
            complete: direct.complete,
        }
    );
    assert_eq!(
        resps[1],
        Response::Aggregate {
            arcs_found: direct_agg.arcs_found as u32,
            arcs_missing: direct_agg.arcs_missing as u32,
            total_cost: direct_agg.total_cost,
            node_payload_sum: direct_agg.node_payload_sum,
            nodes_retrieved: direct_agg.nodes_retrieved as u32,
        }
    );
    handle.shutdown().unwrap();
}

#[test]
fn undecodable_frame_gets_bad_request_and_close() {
    let (handle, _net) = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.send_raw(&[PROTOCOL_VERSION, 0xFF, 0xFF]).unwrap();
    let payload = client.recv_raw().unwrap().expect("error response expected");
    let (_tag, resps) = ccam_server::protocol::decode_response_batch(&payload).unwrap();
    assert_eq!(resps.len(), 1);
    assert!(matches!(resps[0], Response::Error(Status::BadRequest, _)));
    // Server closes the connection after a bad frame.
    assert!(client.recv_raw().unwrap().is_none());
    handle.shutdown().unwrap();
}

/// One `GetSuccessors` per node: a batch of a few hundred microseconds.
fn heavy_batch(net: &Network) -> Vec<Request> {
    net.node_ids()
        .into_iter()
        .map(Request::GetSuccessors)
        .collect()
}

/// `routes` long ping-pong routes: a batch that holds its execution slot
/// for a long while.
fn slot_holder(net: &Network, routes: usize) -> Vec<Request> {
    vec![Request::Route(ping_pong(net, |_| true)); routes]
}

fn send(client: &mut Client, tag: u32, reqs: &[Request]) {
    let payload = ccam_server::protocol::encode_request_batch(tag, 0, reqs);
    client.send_raw(&payload).unwrap();
}

fn recv(client: &mut Client) -> (u32, Vec<Response>) {
    let payload = client.recv_raw().unwrap().expect("a response frame");
    ccam_server::protocol::decode_response_batch(&payload).unwrap()
}

fn is_overloaded(resps: &[Response]) -> bool {
    resps
        .iter()
        .all(|r| matches!(r, Response::Error(Status::Overloaded, _)))
}

/// Overload needs contention: with one slot and depth-1 queues,
/// connection A holds the slot with a long batch while connection B
/// pipelines frames. B's first frame queues behind A; frames that find
/// B's queue full are rejected immediately with per-request `Overloaded`,
/// and A's batch still completes.
#[test]
fn overload_is_rejected_with_overloaded_not_a_hang() {
    let (handle, net) = start_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let m = Arc::clone(handle.metrics());
    let mut a = Client::connect(handle.local_addr()).unwrap();
    send(&mut a, 0, &slot_holder(&net, 16));
    wait_until(|| m.counter("serve.batches_inline") == 1);

    let heavy = heavy_batch(&net);
    let mut b = Client::connect(handle.local_addr()).unwrap();
    let total_frames = 32;
    for tag in 0..total_frames {
        send(&mut b, tag, &heavy);
    }
    let mut overloaded = 0usize;
    let mut served = 0usize;
    for _ in 0..total_frames {
        let (_tag, resps) = recv(&mut b);
        assert_eq!(resps.len(), heavy.len());
        if is_overloaded(&resps) {
            overloaded += 1;
        } else {
            served += 1;
        }
    }
    assert!(served >= 1, "B's first frame queues and is served");
    assert!(
        overloaded >= 1,
        "with depth 1 behind a busy slot some frames must be rejected"
    );
    assert_eq!(
        m.counter("serve.overloaded"),
        (overloaded * heavy.len()) as u64
    );
    assert!(m.counter("serve.batches_queued") >= 1);
    let (tag, resps) = recv(&mut a);
    assert_eq!(tag, 0);
    assert!(resps
        .iter()
        .all(|r| matches!(r, Response::RouteEval { complete: true, .. })));
    handle.shutdown().unwrap();
}

/// A lone connection never waits for a slot, so its reader runs every
/// batch itself: closed-loop calls and 32 pipelined frames against one
/// slot and depth-1 queues alike are answered in tag order, none
/// `Overloaded`, none queued.
#[test]
fn a_lone_connection_runs_every_batch_on_its_reader() {
    let (handle, net) = start_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let m = Arc::clone(handle.metrics());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let ids = net.node_ids();
    for &id in ids.iter().take(20) {
        let resps = client.call(&[Request::Find(id)]).unwrap();
        assert!(matches!(resps[0], Response::Record(_)));
    }
    let heavy = heavy_batch(&net);
    for tag in 0..32 {
        send(&mut client, tag, &heavy);
    }
    for want in 0..32 {
        let (tag, resps) = recv(&mut client);
        assert_eq!(tag, want, "answers out of tag order");
        assert!(!is_overloaded(&resps));
    }
    assert_eq!(m.counter("serve.batches"), 52);
    assert_eq!(m.counter("serve.batches_inline"), 52);
    assert_eq!(m.counter("serve.batches_queued"), 0);
    assert_eq!(m.counter("serve.overloaded"), 0);
    handle.shutdown().unwrap();
}

/// Per-connection FIFO across the two paths: a connection whose frames
/// queued while both slots were held keeps sending after they free up.
/// A worker drains its queue one batch at a time, so a slot stays free —
/// yet the later frames queue behind the earlier ones instead of running
/// on the reader, and every answer arrives in tag order.
#[test]
fn a_connection_with_queued_batches_keeps_its_order() {
    let (handle, net) = start_server(ServerConfig {
        workers: 2,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let m = Arc::clone(handle.metrics());
    let (long, heavy) = (slot_holder(&net, 1), heavy_batch(&net));
    let mut holders: Vec<Client> = (0..2)
        .map(|_| Client::connect(handle.local_addr()).unwrap())
        .collect();
    for holder in &mut holders {
        send(holder, 0, &slot_holder(&net, 4));
    }
    wait_until(|| m.counter("serve.batches") == 2);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for tag in 0..8 {
        send(&mut client, tag, &long);
    }
    // A holder's reader frees its slot before it sees EOF and forgets
    // the connection: once only `client` is left, both slots are free.
    for mut holder in holders {
        recv(&mut holder);
    }
    wait_until(|| handle.active_connections() == 1);
    wait_until(|| m.counter("serve.batches_queued") >= 1);
    for tag in 8..16 {
        send(&mut client, tag, &heavy);
    }
    for want in 0..16 {
        assert_eq!(recv(&mut client).0, want, "answers out of tag order");
    }
    assert!(m.counter("serve.batches_queued") >= 8);
    handle.shutdown().unwrap();
}

/// Four connections pipelining heavy batches at once — each opening with
/// a long one — contend for one or two slots: the connections that find
/// every slot held queue, the high-water mark of batches executing never
/// exceeds `workers`, the two path counters add up, and every connection
/// still gets its answers in order.
#[test]
fn contended_batches_queue_and_never_exceed_the_slots() {
    for workers in [1, 2] {
        let (handle, net) = start_server(ServerConfig {
            workers,
            queue_depth: 64,
            ..ServerConfig::default()
        });
        let (long, heavy) = (slot_holder(&net, 8), heavy_batch(&net));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut client = Client::connect(handle.local_addr()).unwrap();
                    start.wait();
                    for tag in 0..8 {
                        send(&mut client, tag, if tag == 0 { &long } else { &heavy });
                    }
                    for want in 0..8 {
                        let (tag, resps) = recv(&mut client);
                        assert_eq!(tag, want, "answers out of tag order");
                        assert!(!is_overloaded(&resps));
                    }
                });
            }
        });
        handle.metrics_json();
        let m = handle.metrics();
        let peak = m.gauge("serve.executing_peak").unwrap();
        assert!(peak >= 1.0 && peak <= workers as f64, "peak {peak}");
        let (inline, queued) = (
            m.counter("serve.batches_inline"),
            m.counter("serve.batches_queued"),
        );
        assert_eq!(inline + queued, m.counter("serve.batches"));
        assert_eq!(inline + queued, 32);
        assert!(queued > 0, "{workers} slots, 4 busy connections");
        handle.shutdown().unwrap();
    }
}

#[test]
fn batches_are_snapshot_consistent_across_commits() {
    // A writer toggles a node's payload between two self-consistent
    // values (all bytes 0xAA or all 0xBB) via the epoch writer. Every
    // batch of two Finds for that node must see the SAME value twice:
    // a batch runs under one epoch read guard.
    let (am, net) = build_db();
    let target = net.node_ids()[7];
    let db = Arc::new(EpochCell::new(am).unwrap());
    let handle = Server::start(
        Arc::clone(&db),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let writer_stop = Arc::clone(&stop);
    let writer_db = Arc::clone(&db);
    let writer = std::thread::spawn(move || {
        let mut flip = false;
        while !writer_stop.load(Ordering::Relaxed) {
            // One write transaction under the epoch guard: delete +
            // re-insert with a flipped payload is invisible to readers
            // until commit publishes the next snapshot.
            let mut am = writer_db.write().unwrap();
            let deleted = am.delete_node(target).unwrap().unwrap();
            let mut node = deleted.data;
            let byte = if flip { 0xAA } else { 0xBB };
            flip = !flip;
            node.payload = vec![byte; 8];
            am.insert_node(&node, &deleted.incoming).unwrap();
            am.commit().unwrap();
        }
    });

    let mut client = Client::connect(handle.local_addr()).unwrap();
    for _ in 0..300 {
        let resps = client
            .call(&[Request::Find(target), Request::Find(target)])
            .unwrap();
        let payloads: Vec<&Vec<u8>> = resps
            .iter()
            .map(|r| match r {
                Response::Record(n) => &n.payload,
                other => panic!("expected record, got {other:?}"),
            })
            .collect();
        // Same snapshot within the batch…
        assert_eq!(payloads[0], payloads[1], "torn batch across a commit");
        // …and each observation is itself a committed value.
        if payloads[0].len() == 8 {
            assert!(
                payloads[0].iter().all(|&b| b == 0xAA) || payloads[0].iter().all(|&b| b == 0xBB),
                "read observed a torn payload: {:?}",
                payloads[0]
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    handle.shutdown().unwrap();
}

/// Shutdown answers every accepted frame, whichever path holds it when
/// shutdown starts. Inline: a lone connection's last frame is a long
/// batch its reader is still running, and the reader finishes it before
/// it sees EOF. Queued: a second connection holds the only slot with a
/// long batch, so all of the client's frames wait in its queue when
/// shutdown starts; the holder's reader finishes its batch, and the pool
/// drains the queue after the readers are joined.
#[test]
fn graceful_shutdown_drains_pending_batches() {
    for queued in [false, true] {
        let (handle, net) = start_server(ServerConfig {
            workers: 1,
            queue_depth: 16,
            ..ServerConfig::default()
        });
        let m = Arc::clone(handle.metrics());
        let (heavy, long) = (heavy_batch(&net), slot_holder(&net, 16));
        let mut holder = queued.then(|| {
            let mut holder = Client::connect(handle.local_addr()).unwrap();
            send(&mut holder, 0, &long);
            wait_until(|| m.counter("serve.batches_inline") == 1);
            holder
        });

        // Send several frames, then shut down before reading responses:
        // every accepted frame must still be answered.
        let mut client = Client::connect(handle.local_addr()).unwrap();
        let frames = 8u32;
        let frame = |tag: u32| {
            if !queued && tag + 1 == frames {
                &long
            } else {
                &heavy
            }
        };
        for tag in 0..frames {
            send(&mut client, tag, frame(tag));
        }
        // Wait until the reader has *accepted* all frames — shutdown only
        // guarantees answers for accepted batches, not frames still in
        // the socket buffer.
        let accepted = u64::from(frames + u32::from(queued));
        wait_until(|| m.counter("serve.frames_accepted") == accepted);
        assert_eq!(
            m.counter("serve.batches_queued"),
            0,
            "the holder finished early"
        );
        let shutdown = std::thread::spawn(move || handle.shutdown());
        if let Some(holder) = &mut holder {
            let (tag, resps) = recv(holder);
            assert_eq!((tag, resps.len()), (0, long.len()));
        }
        let mut answered = 0;
        while let Ok(Some(payload)) = client.recv_raw() {
            let (tag, resps) = ccam_server::protocol::decode_response_batch(&payload).unwrap();
            assert_eq!(tag, answered, "answers out of tag order");
            assert_eq!(resps.len(), frame(tag).len());
            answered += 1;
        }
        shutdown.join().unwrap().unwrap();
        assert_eq!(answered, frames, "shutdown dropped accepted batches");
        let paths = (
            m.counter("serve.batches_inline"),
            m.counter("serve.batches_queued"),
        );
        let frames = u64::from(frames);
        assert_eq!(paths, if queued { (1, frames) } else { (frames, 0) });
    }
}

#[test]
fn requests_after_shutdown_get_shutting_down_or_closed_connection() {
    let (handle, _net) = start_server(ServerConfig::default());
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // Prove the connection works, then shut the server down.
    client.call(&[Request::Stats]).unwrap();
    handle.shutdown().unwrap();
    // The old connection is closed; new connections are refused or die
    // unanswered. Either way: no hang, no partial garbage.
    let err = client.call(&[Request::Stats]);
    assert!(err.is_err());
}

type WalMem = WalStore<MemPageStore>;

/// A primary as `ccam serve` runs one: a log under the store, every
/// operation its own transaction, page versioning on. The log file is
/// removed when the returned guard drops.
fn start_wal_server(tag: &str) -> (ServerHandle<WalMem>, Network, TempLog) {
    let log =
        TempLog(std::env::temp_dir().join(format!("ccam-server-{}-{tag}.wal", std::process::id())));
    let (_, net) = build_db();
    let store = WalStore::create(MemPageStore::new(PAGE).unwrap(), &log.0).unwrap();
    let mut am = CcamBuilder::new(PAGE).build_static_on(store, &net).unwrap();
    am.file_mut().set_auto_commit(true);
    assert!(am.enable_snapshots().unwrap());
    let db = Arc::new(EpochCell::new(am).unwrap());
    (
        Server::start(db, ServerConfig::default()).unwrap(),
        net,
        log,
    )
}

struct TempLog(std::path::PathBuf);

impl Drop for TempLog {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn wal_info(handle: &ServerHandle<WalMem>) -> WalInfo {
    handle
        .db()
        .with_writer(|am| am.file().pool().with_wal(|log| log.info()))
        .unwrap()
        .expect("the server's store has a log")
}

fn upsert(client: &mut Client, id: NodeId, payload: &[u8]) -> Response {
    let payload = payload.to_vec();
    client
        .call(&[Request::Upsert { id, payload }])
        .unwrap()
        .remove(0)
}

fn find(client: &mut Client, id: NodeId) -> NodeData {
    match client.call(&[Request::Find(id)]).unwrap().remove(0) {
        Response::Record(node) => node,
        other => panic!("expected a record for {id:?}, got {other:?}"),
    }
}

/// A record with its edge lists in id order: `Delete()` and `Insert()`
/// re-append a neighbour's entry, an in-place rewrite does not.
fn logical(mut rec: NodeData) -> NodeData {
    rec.successors.sort_by_key(|e| e.to);
    rec.predecessors.sort_unstable();
    rec
}

/// `Upsert` over the wire against a twin file driven by `Delete()` then
/// `Insert()`: after every step the node and its neighbours read the
/// same on both, each upsert is one epoch, one log `fdatasync` and —
/// while the record still fits its page — one page image on that page;
/// an unknown id is `NotFound` and leaves no trace.
#[test]
fn upsert_rewrites_one_record_and_matches_delete_then_insert() {
    let (handle, net, _log) = start_wal_server("equiv");
    let (mut twin, _) = build_db();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let ids = net.node_ids();
    let page_of = |id| {
        let page = handle.db().with_writer(|am| am.file().page_of(id));
        page.unwrap().unwrap().unwrap()
    };

    let mut rng = SweepRng::new(22);
    for step in 0..120u64 {
        let id = ids[rng.gen_range(ids.len() as u64) as usize];
        let old = find(&mut client, id);
        // Mostly same-size payloads; one in four grows or shrinks.
        let len = if rng.gen_bool(1, 4) {
            rng.gen_range(300) as usize
        } else {
            old.payload.len()
        };
        let payload = vec![step as u8; len];
        let (before, epoch, page) = (wal_info(&handle), handle.db().epoch(), page_of(id));

        let resp = upsert(&mut client, id, &payload);
        assert_eq!(resp, Response::Upserted { epoch: epoch + 1 });
        let after = wal_info(&handle);
        assert_eq!(after.commits, before.commits + 1);
        assert_eq!(
            after.syncs - before.syncs,
            1 + after.checkpoints - before.checkpoints,
            "log fdatasyncs of one upsert"
        );
        if len <= old.payload.len() {
            assert_eq!(page_of(id), page, "a record that fits stays put");
            let logged = after.bytes_appended - before.bytes_appended;
            assert!(logged < 2 * PAGE as u64, "{logged} bytes for one page");
        }

        let del = twin.delete_node(id).unwrap().unwrap();
        let data = NodeData {
            payload,
            ..del.data
        };
        twin.insert_node(&data, &del.incoming).unwrap();
        for near in std::iter::once(id).chain(data.neighbors()) {
            assert_eq!(
                logical(find(&mut client, near)),
                logical(twin.find(near).unwrap().unwrap()),
                "step {step}: {near:?} near {id:?}"
            );
        }
    }
    let audit = handle
        .db()
        .with_writer(|am| ccam_core::check::verify(am.file()))
        .unwrap()
        .unwrap();
    assert!(audit.is_clean(), "{:?}", audit.issues);

    let (before, epoch) = (wal_info(&handle), handle.db().epoch());
    let resp = upsert(&mut client, NodeId(u64::MAX), &[1, 2, 3]);
    assert_eq!(resp, Response::Error(Status::NotFound, OpCode::Upsert));
    assert_eq!(handle.db().epoch(), epoch);
    assert_eq!(wal_info(&handle), before);
    handle.shutdown().unwrap();
}

/// Published snapshots read their page images from memory, not the log:
/// a reader pinned at the first generation neither keeps 2 000 later
/// commits in the log nor loses its own view of the data.
#[test]
fn the_log_under_a_serving_cell_stays_within_its_cap() {
    let (handle, net, _log) = start_wal_server("bounded");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let ids = net.node_ids();
    let pinned = handle.db().read().unwrap();
    let first = pinned.find(ids[0]).unwrap().unwrap();

    let before = wal_info(&handle);
    let one_batch = (PAGE + 64) as u64;
    for i in 0..2_000usize {
        let resp = upsert(&mut client, ids[i % ids.len()], &[i as u8; 8]);
        assert!(matches!(resp, Response::Upserted { .. }), "{resp:?}");
        if i % 100 == 0 {
            let live = wal_info(&handle).live_bytes;
            assert!(live <= DEFAULT_MAX_WAL_BYTES + one_batch, "{live} live");
        }
    }
    let after = wal_info(&handle);
    assert!(after.live_bytes <= DEFAULT_MAX_WAL_BYTES + one_batch);
    assert!(after.bytes_appended - before.bytes_appended > DEFAULT_MAX_WAL_BYTES);
    assert!(after.checkpoints > before.checkpoints, "the cap never cut");
    assert_eq!(
        after.retained_lsn,
        after.next_lsn - 1,
        "nothing holds the tail"
    );

    assert_eq!(pinned.find(ids[0]).unwrap().unwrap(), first);
    assert_ne!(find(&mut client, ids[0]).payload, first.payload);
    drop(pinned);
    handle.shutdown().unwrap();
}
