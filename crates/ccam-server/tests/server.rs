//! End-to-end tests over a real loopback socket: batching, error
//! statuses, batches waiting for a slot in arrival order under
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
use ccam_storage::{SweepRng, WalInfo, DEFAULT_MAX_WAL_BYTES};

mod common;
use common::{ping_pong, wait_until, wal_mem, WalMem};

const PAGE: usize = 1024;

fn build_db() -> (Ccam<WalMem>, Network) {
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
    let am = CcamBuilder::new(PAGE)
        .build_static_on(wal_mem(PAGE), &net)
        .unwrap();
    (am, net)
}

fn start_server(config: ServerConfig) -> (ServerHandle<WalMem>, Network) {
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

/// The value of counter `name` in a `Stats` document.
fn counter_in(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = json.find(&key).expect("the counter is present") + key.len();
    let digits = json[at..].split(|c: char| !c.is_ascii_digit()).next();
    digits.unwrap().parse().unwrap()
}

/// Overload needs contention: with one slot and room for one waiting
/// batch, connection A holds the slot with a long batch and B's frame
/// waits for it. C's frames find the line full and are rejected at once
/// with per-request `Overloaded`; then A completes and B is served.
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
    wait_until(|| m.counter("serve.batches") == 1);

    let heavy = heavy_batch(&net);
    let mut b = Client::connect(handle.local_addr()).unwrap();
    send(&mut b, 0, &heavy);
    wait_until(|| m.counter("serve.slot_waits") == 1);

    let mut c = Client::connect(handle.local_addr()).unwrap();
    let shed = 8;
    for tag in 0..shed {
        send(&mut c, tag, &heavy);
    }
    for want in 0..shed {
        let (tag, resps) = recv(&mut c);
        assert_eq!(tag, want, "answers out of tag order");
        assert_eq!(resps.len(), heavy.len());
        assert!(is_overloaded(&resps), "the line is full while A runs");
    }

    let (tag, resps) = recv(&mut a);
    assert_eq!(tag, 0);
    assert!(resps
        .iter()
        .all(|r| matches!(r, Response::RouteEval { complete: true, .. })));
    let (tag, resps) = recv(&mut b);
    assert_eq!(tag, 0);
    assert!(!is_overloaded(&resps), "B waited and is served");
    assert_eq!(
        m.counter("serve.overloaded"),
        u64::from(shed) * heavy.len() as u64
    );
    assert_eq!(m.counter("serve.batches"), 2);
    handle.shutdown().unwrap();
}

/// A lone connection never waits for a slot, so its reader runs every
/// batch at once: closed-loop calls and 32 pipelined frames against one
/// slot and room for one waiting batch alike are answered in tag order,
/// none `Overloaded`, none waiting.
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
    assert_eq!(m.counter("serve.slot_waits"), 0);
    assert_eq!(m.counter("serve.overloaded"), 0);
    handle.shutdown().unwrap();
}

/// A pipelining connection whose first frame finds both slots held is
/// backpressured, not buffered: its reader has accepted that one frame
/// and waits with it, and the rest stay in the socket. Once the slots
/// free up, all 16 answers arrive in tag order.
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
        send(holder, 0, &slot_holder(&net, 16));
    }
    wait_until(|| m.counter("serve.batches") == 2);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for tag in 0..16 {
        send(&mut client, tag, if tag < 8 { &long } else { &heavy });
    }
    wait_until(|| m.counter("serve.slot_waits") == 1);
    // Every connection has at most one accepted frame not yet run — the
    // holders none. Read `accepted` first: `batches` only grows.
    let backlog = || m.counter("serve.frames_accepted") - m.counter("serve.batches");
    assert_eq!(
        m.counter("serve.frames_accepted"),
        3,
        "the client's first frame only"
    );
    for _ in 0..20 {
        assert!(backlog() <= 1, "the server buffered a pipelined frame");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for mut holder in holders {
        recv(&mut holder);
    }
    for want in 0..16 {
        assert_eq!(recv(&mut client).0, want, "answers out of tag order");
    }
    assert_eq!(m.counter("serve.frames_accepted"), 18);
    handle.shutdown().unwrap();
}

/// Four connections pipelining heavy batches at once — each opening with
/// a long one — contend for one or two slots: batches that find every
/// slot held wait, the high-water mark of batches executing never
/// exceeds `workers`, and every connection still gets its answers in
/// order, none `Overloaded`.
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
        assert_eq!(m.counter("serve.batches"), 32);
        assert!(
            m.counter("serve.slot_waits") > 0,
            "{workers} slots, 4 busy connections"
        );
        handle.shutdown().unwrap();
    }
}

/// Waiting batches get the slot in arrival order: with the only slot
/// held, connections B..G each send one `Stats` batch, the next only
/// once the previous one waits. Each batch reads `serve.batches` inside
/// itself, so the values it sees rise in the order the batches arrived.
#[test]
fn slots_are_handed_out_in_arrival_order() {
    let (handle, net) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let m = Arc::clone(handle.metrics());
    let mut holder = Client::connect(handle.local_addr()).unwrap();
    send(&mut holder, 0, &slot_holder(&net, 16));
    wait_until(|| m.counter("serve.batches") == 1);
    let mut waiters = Vec::new();
    for arrived in 1..=6 {
        let mut waiter = Client::connect(handle.local_addr()).unwrap();
        send(&mut waiter, 0, &[Request::Stats]);
        wait_until(|| m.counter("serve.slot_waits") == arrived);
        waiters.push(waiter);
    }
    recv(&mut holder);
    let seen: Vec<u64> = waiters
        .iter_mut()
        .map(|waiter| match &recv(waiter).1[0] {
            Response::StatsJson(json) => counter_in(json, "serve.batches"),
            other => panic!("expected stats, got {other:?}"),
        })
        .collect();
    assert_eq!(
        seen,
        (2..=7).collect::<Vec<u64>>(),
        "slots out of arrival order"
    );
    handle.shutdown().unwrap();
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

/// Shutdown answers every accepted batch, running or waiting for a slot
/// when shutdown starts. Lone: a connection's last of eight frames is a
/// long batch its reader is still running, and the reader finishes it
/// before it sees EOF. Waiting: a holder's long batch has the only slot
/// while three more connections each wait for it with one accepted
/// frame; each gets the slot in turn, answers, then sees EOF.
#[test]
fn graceful_shutdown_drains_pending_batches() {
    for waiting in [false, true] {
        let (handle, net) = start_server(ServerConfig {
            workers: 1,
            queue_depth: 16,
            ..ServerConfig::default()
        });
        let m = Arc::clone(handle.metrics());
        let (heavy, long) = (heavy_batch(&net), slot_holder(&net, 16));
        // The frames each connection sends, in tag order.
        let plans: Vec<Vec<&[Request]>> = if waiting {
            vec![vec![&long], vec![&heavy], vec![&heavy], vec![&heavy]]
        } else {
            let mut lone = vec![&heavy[..]; 7];
            lone.push(&long);
            vec![lone]
        };
        let mut accepted = 0;
        let mut clients = Vec::new();
        for plan in &plans {
            let mut client = Client::connect(handle.local_addr()).unwrap();
            for (tag, reqs) in plan.iter().enumerate() {
                send(&mut client, tag as u32, reqs);
            }
            // Shutdown only guarantees answers for *accepted* frames,
            // not frames still in the socket buffer.
            accepted += plan.len() as u64;
            wait_until(|| m.counter("serve.frames_accepted") == accepted);
            clients.push(client);
        }
        let shutdown = std::thread::spawn(move || handle.shutdown());
        for (client, plan) in clients.iter_mut().zip(&plans) {
            let mut answered = 0;
            while let Ok(Some(payload)) = client.recv_raw() {
                let (tag, resps) = ccam_server::protocol::decode_response_batch(&payload).unwrap();
                assert_eq!(tag, answered, "answers out of tag order");
                assert_eq!(resps.len(), plan[tag as usize].len());
                answered += 1;
            }
            assert_eq!(
                answered as usize,
                plan.len(),
                "shutdown dropped accepted batches"
            );
        }
        shutdown.join().unwrap().unwrap();
        assert_eq!(m.counter("serve.batches"), accepted);
        let waits = if waiting { 3 } else { 0 };
        assert_eq!(
            m.counter("serve.slot_waits"),
            waits,
            "the holder finished early"
        );
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

/// A primary as `ccam serve` runs one: every operation its own
/// transaction.
fn start_auto_commit_server() -> (ServerHandle<WalMem>, Network) {
    let (mut am, net) = build_db();
    am.file_mut().set_auto_commit(true);
    let db = Arc::new(EpochCell::new(am).unwrap());
    (Server::start(db, ServerConfig::default()).unwrap(), net)
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

/// `Upsert` over the wire against the model: after every step the
/// published view holds the network with that one payload replaced (the
/// `ccam_testing` check — what `Delete()` then `Insert()` would
/// leave, up to list order), each upsert is one epoch, one log
/// `fdatasync` and — while the record still fits its page — one page
/// image on that page; an unknown id is `NotFound` and leaves no trace.
#[test]
fn upsert_rewrites_one_record_and_matches_delete_then_insert() {
    let (handle, net) = start_auto_commit_server();
    let mut model = net.clone();
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

        assert_eq!(find(&mut client, id).payload, payload, "step {step}");
        model.node_mut(id).unwrap().payload = payload;
        let served = ccam_testing::check(handle.db().read().unwrap().file(), &model);
        assert_eq!(served, Ok(()), "step {step}: upsert of {id:?}");
    }

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
    let (handle, net) = start_auto_commit_server();
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
