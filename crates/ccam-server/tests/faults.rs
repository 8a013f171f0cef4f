//! Fault-tolerance tests over a real loopback socket: slowloris
//! reaping, mid-frame disconnects, request deadlines, panic isolation on
//! a batch that ran at once and on one that waited for its slot, and
//! degraded reads around corrupted pages.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ccam_core::epoch::EpochCell;
use ccam_core::{AccessMethod, CcamBuilder};
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::Network;
use ccam_server::client::Client;
use ccam_server::protocol::{OpCode, Request, Response, Status};
use ccam_server::{Server, ServerConfig, ServerHandle};
use ccam_storage::{FaultStore, MemPageStore, PageId};

mod common;
use common::{logged, ping_pong, wait_until, wal_mem, WalMem};

fn test_net() -> Network {
    road_map(&RoadMapConfig {
        grid_w: 10,
        grid_h: 10,
        removed_nodes: 2,
        target_segments: 150,
        target_directed: 265,
        cell: 64,
        jitter: 24,
        seed: 5,
    })
}

fn start_server(config: ServerConfig) -> (ServerHandle<WalMem>, Network) {
    let net = test_net();
    let am = CcamBuilder::new(1024)
        .build_static_on(wal_mem(1024), &net)
        .unwrap();
    let db = Arc::new(EpochCell::new(am).unwrap());
    (Server::start(db, config).unwrap(), net)
}

/// A slowloris peer — a connection that writes half a frame and then
/// stalls — must be reaped by the idle timeout: its reader exits, the
/// socket is severed (the peer observes EOF/reset), and the connection
/// slot is reclaimed. Meanwhile a well-behaved client on the same
/// server keeps getting answers; the staller pins nothing.
#[test]
fn stalled_half_frame_is_reaped_without_blocking_others() {
    let (handle, net) = start_server(ServerConfig {
        idle_timeout_ms: 200,
        ..ServerConfig::default()
    });
    let a = net.node_ids()[0];

    // The staller: claim a 64-byte frame, deliver only 8 bytes.
    let mut staller = TcpStream::connect(handle.local_addr()).unwrap();
    staller.write_all(&64u32.to_le_bytes()).unwrap();
    staller.write_all(&[0u8; 8]).unwrap();
    staller.flush().unwrap();

    // A healthy client is served while the staller sits half-written.
    let mut good = Client::connect(handle.local_addr()).unwrap();
    for _ in 0..5 {
        let resps = good.call(&[Request::Find(a)]).unwrap();
        assert!(matches!(resps[0], Response::Record(_)));
        std::thread::sleep(Duration::from_millis(20));
    }

    // The reap severs the staller's socket: its read unblocks with EOF
    // or a reset well within a few idle-timeout periods.
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = [0u8; 16];
    match staller.read(&mut sink) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("staller unexpectedly received {n} bytes"),
    }
    assert!(handle.metrics().counter("serve.idle_reaped") >= 1);

    // The staller's connection slot is reclaimed; only `good` remains.
    drop(good);
    wait_until(|| handle.active_connections() == 0);
    handle.shutdown().unwrap();
}

/// A client that vanishes mid-conversation — pipelined request frames,
/// responses discarded unread, socket dropped (close with unread data
/// sends a TCP reset) — must not wedge a reader or the server: writes
/// to the dead peer fail and sever the connection, other clients keep
/// working, and shutdown stays clean.
#[test]
fn mid_frame_disconnect_during_response_write_is_survived() {
    let (handle, net) = start_server(ServerConfig {
        workers: 2,
        write_timeout_ms: 500,
        ..ServerConfig::default()
    });
    let ids = net.node_ids();
    let heavy: Vec<Request> = ids.iter().map(|&id| Request::GetSuccessors(id)).collect();

    for _ in 0..4 {
        let mut rude = Client::connect(handle.local_addr()).unwrap();
        for tag in 0..8 {
            let payload = ccam_server::protocol::encode_request_batch(tag, 0, &heavy);
            rude.send_raw(&payload).unwrap();
        }
        // Give the server a moment to start answering, then vanish with
        // the responses unread.
        std::thread::sleep(Duration::from_millis(30));
        drop(rude);
    }

    let mut good = Client::connect(handle.local_addr()).unwrap();
    let resps = good.call(&heavy).unwrap();
    assert_eq!(resps.len(), heavy.len());
    drop(good);

    // No dead connection is left behind.
    wait_until(|| handle.active_connections() == 0);
    handle.shutdown().unwrap();
}

/// A pathological `Route` under a tiny client-supplied deadline answers
/// `DeadlineExceeded` instead of holding a slot for the whole walk.
#[test]
fn pathological_route_respects_client_deadline() {
    let (handle, net) = start_server(ServerConfig::default());
    let route = ping_pong(&net, |_| true);

    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_deadline_ms(1);
    let resps = client.call(&[Request::Route(route.clone())]).unwrap();
    assert_eq!(
        resps[0],
        Response::Error(Status::DeadlineExceeded, OpCode::Route)
    );
    assert!(handle.metrics().counter("serve.deadline_exceeded") >= 1);

    // The same route without a deadline completes.
    client.set_deadline_ms(0);
    let resps = client.call(&[Request::Route(route)]).unwrap();
    assert!(
        matches!(resps[0], Response::RouteEval { complete: true, .. }),
        "unbounded route should evaluate fully, got {:?}",
        resps[0]
    );
    handle.shutdown().unwrap();
}

/// A request that panics inside the storage stack answers `Internal`
/// for that request only; the server counts the panic, keeps answering
/// subsequent requests on the same connection, and still shuts down
/// cleanly (no corpse discovered at join time).
///
/// The panic is injected into the *served view's* read path: the pinned
/// snapshot's buffer pool invokes the prefetch hook on every fault, so
/// an armed hook that panics on one page, plus dropped cached frames,
/// makes the next request reading that page unwind. With the slot free
/// the lone connection's batch runs at once; with `contended`, a second
/// connection first holds the only slot with a long batch over other
/// pages, so the panicking batch waits for the slot before it runs.
fn request_panic_is_isolated(contended: bool) {
    let net = test_net();
    let am = CcamBuilder::new(1024)
        .build_static_on(wal_mem(1024), &net)
        .unwrap();
    let db = Arc::new(EpochCell::new(am).unwrap());
    let workers = if contended { 1 } else { 2 };
    let handle = Server::start(
        Arc::clone(&db),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let m = Arc::clone(handle.metrics());
    let a = net.node_ids()[0];
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Sanity: the database answers before the fault is armed.
    let resps = client.call(&[Request::Find(a)]).unwrap();
    assert!(matches!(resps[0], Response::Record(_)));

    // Arm the hook on the published view (all pinned snapshots of this
    // epoch share it) and drop cached frames so the next read faults.
    let armed = Arc::new(AtomicBool::new(false));
    let hook_armed = Arc::clone(&armed);
    let view = db.read().unwrap();
    let page_of = |id| view.file().page_of(id).unwrap();
    let target = page_of(a).expect("a is stored");
    view.file()
        .pool()
        .set_prefetcher(Some(Arc::new(move |id: PageId| {
            if id == target && hook_armed.load(Ordering::SeqCst) {
                panic!("injected storage panic reading {id:?}");
            }
            Vec::new()
        })));
    view.file().pool().clear().unwrap();
    armed.store(true, Ordering::SeqCst);

    let holder = contended.then(|| {
        let route = ping_pong(&net, |id| page_of(id) != Some(target));
        let reqs = vec![Request::Route(route); 16];
        let mut holder = Client::connect(handle.local_addr()).unwrap();
        let started = m.counter("serve.batches") + 1;
        let payload = ccam_server::protocol::encode_request_batch(1, 0, &reqs);
        holder.send_raw(&payload).unwrap();
        wait_until(|| m.counter("serve.batches") >= started);
        (holder, reqs.len())
    });
    let resps = client
        .call(&[Request::Find(a), Request::Stats, Request::Find(a)])
        .unwrap();
    assert_eq!(resps[0], Response::Error(Status::Internal, OpCode::Find));
    // The panic is contained per-request: the rest of the batch ran…
    assert!(matches!(resps[1], Response::StatsJson(_)));
    // …and the faulted page was installed before the hook unwound, so
    // the retry within the same batch already answers again.
    assert!(matches!(resps[2], Response::Record(_)));
    assert!(m.counter("serve.worker_panics") >= 1);
    match holder {
        Some((mut holder, n)) => {
            assert!(m.counter("serve.slot_waits") >= 1, "waited for its slot");
            let payload = holder.recv_raw().unwrap().expect("the holder's answer");
            let (_, resps) = ccam_server::protocol::decode_response_batch(&payload).unwrap();
            assert_eq!(resps.len(), n);
            assert!(resps
                .iter()
                .all(|r| matches!(r, Response::RouteEval { complete: true, .. })));
        }
        None => assert_eq!(m.counter("serve.slot_waits"), 0, "ran at once"),
    }

    // Disarm: the same connection and the server keep serving.
    armed.store(false, Ordering::SeqCst);
    let resps = client.call(&[Request::Find(a)]).unwrap();
    assert!(matches!(resps[0], Response::Record(_)));
    handle.shutdown().unwrap();
}

#[test]
fn worker_panic_is_isolated_and_the_pool_survives() {
    request_panic_is_isolated(false);
}

#[test]
fn a_request_panic_on_a_pool_worker_is_isolated() {
    request_panic_is_isolated(true);
}

/// A maintenance writer that panics mid-transaction poisons the cell:
/// in-flight pinned snapshots keep answering, *new* batches fail with
/// `Internal` (counted under `serve.internal_errors.poisoned`), and
/// `EpochCell::recover` restores service on the running server.
#[test]
fn poisoned_cell_fails_batches_until_recovered() {
    let (handle, net) = start_server(ServerConfig::default());
    let db = Arc::clone(handle.db());
    let a = net.node_ids()[0];
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let resps = client.call(&[Request::Find(a)]).unwrap();
    assert!(matches!(resps[0], Response::Record(_)));

    // Writer dies mid-transaction, before any commit.
    let writer_db = Arc::clone(&db);
    let r = std::thread::spawn(move || {
        let _am = writer_db.write().unwrap();
        panic!("injected maintenance panic");
    })
    .join();
    assert!(r.is_err());
    assert!(db.is_poisoned());

    // Every request of a new batch answers Internal, and the failure is
    // visible per-kind in the metrics.
    let resps = client.call(&[Request::Find(a), Request::Stats]).unwrap();
    assert_eq!(resps[0], Response::Error(Status::Internal, OpCode::Find));
    assert_eq!(resps[1], Response::Error(Status::Internal, OpCode::Stats));
    assert!(handle.metrics().counter("serve.internal_errors.poisoned") >= 2);

    // Recovery republishes the committed state on the running server.
    db.recover().unwrap();
    let resps = client.call(&[Request::Find(a)]).unwrap();
    assert!(matches!(resps[0], Response::Record(_)));
    handle.shutdown().unwrap();
}

/// Reads that hit a corrupted (checksum-failing) page degrade instead
/// of erroring: `Find` answers `Degraded` when the record may live on
/// the quarantined page, `GetSuccessors` returns the partial result it
/// could assemble, and healing the page restores exact answers.
///
/// Served views read the log's page versions, which see rot only when
/// they are first seeded: the page is corrupted before the first
/// snapshot, whose tolerant scan pins it as unreadable. The heal is
/// what production does: clear the fault, then rewrite a record on the
/// page, which republishes it.
#[test]
fn corrupted_pages_degrade_reads_and_heal() {
    let net = test_net();
    let (store, corruption) = FaultStore::with_seed(MemPageStore::new(1024).unwrap(), 77);
    let mut am = CcamBuilder::new(1024)
        .build_static_on(logged(store), &net)
        .unwrap();
    am.file_mut().set_auto_commit(true);
    let target = net.node_ids()[10];
    let page = am
        .file()
        .page_of(target)
        .unwrap()
        .expect("target node is stored");
    // A predecessor of the target on a *different* page, so its own
    // record stays readable while its successor's page is corrupt.
    let neighbor = net
        .nodes()
        .find(|n| {
            n.successors.iter().any(|e| e.to == target)
                && am.file().page_of(n.id).unwrap() != Some(page)
        })
        .map(|n| n.id);

    // Corrupt the committed page under the log (after a commit: a
    // dirty write-back would heal the injected corruption); the first
    // snapshot carries it as unreadable.
    am.file().commit().unwrap();
    corruption.mark_corrupt(page);
    let db = Arc::new(EpochCell::new(am).unwrap());
    let handle = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let resps = client.call(&[Request::Find(target)]).unwrap();
    assert_eq!(resps[0], Response::Error(Status::Degraded, OpCode::Find));
    assert!(handle.metrics().counter("serve.degraded_reads") >= 1);

    if let Some(neighbor) = neighbor {
        let resps = client.call(&[Request::GetSuccessors(neighbor)]).unwrap();
        match &resps[0] {
            Response::RecordsDegraded {
                nodes,
                skipped_pages,
            } => {
                assert!(*skipped_pages >= 1, "corrupt page must be reported");
                assert!(
                    nodes.iter().all(|n| n.id != target),
                    "the unreadable record cannot appear in the partial answer"
                );
            }
            other => panic!("expected a degraded partial answer, got {other:?}"),
        }
    }

    // Heal: clear the injected corruption and rewrite the target's
    // record — the commit republishes its page, so the new view drops
    // the quarantine and reads are exact again on the same running
    // server.
    corruption.clear_corrupt(page);
    let len = net.node(target).unwrap().payload.len();
    let upsert = Request::Upsert {
        id: target,
        payload: vec![0x5a; len],
    };
    assert!(matches!(
        client.call(&[upsert]).unwrap()[0],
        Response::Upserted { .. }
    ));
    let resps = client.call(&[Request::Find(target)]).unwrap();
    match &resps[0] {
        Response::Record(n) => assert_eq!(n.id, target),
        other => panic!("healed read must be exact, got {other:?}"),
    }
    handle.shutdown().unwrap();
}

/// A store fault in the middle of an `Upsert` — the record already
/// rewritten in the writer's pool, the device full when the commit
/// flushes it — answers `Internal` for that request and leaves no trace:
/// no epoch, the writer back on its committed state, the old payload
/// served; the same upsert succeeds once there is space.
#[test]
fn a_store_fault_mid_upsert_restores_the_committed_state() {
    let net = test_net();
    // The fault store over the log: `ENOSPC` bites before the batch is
    // logged, so the failed transaction rolls back.
    let (store, ctl) = FaultStore::new(wal_mem(1024));
    let mut am = CcamBuilder::new(1024).build_static_on(store, &net).unwrap();
    am.file_mut().set_auto_commit(true);
    let db = Arc::new(EpochCell::new(am).unwrap());
    let handle = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let id = net.node_ids()[4];
    let old = net.node(id).unwrap().clone();
    let upsert = Request::Upsert {
        id,
        payload: vec![9; old.payload.len()],
    };
    let epoch = db.epoch();
    ctl.fill_after(0, false);
    let resps = client.call(std::slice::from_ref(&upsert)).unwrap();
    assert_eq!(resps[0], Response::Error(Status::Internal, OpCode::Upsert));
    let resps = client.call(&[Request::Find(id)]).unwrap();
    assert_eq!(resps[0], Response::Record(old.clone()));
    assert!(handle.metrics().counter("serve.internal_errors.no_space") >= 1);
    assert_eq!(db.epoch(), epoch);
    let writers = db.with_writer(|am| am.find(id)).unwrap().unwrap();
    assert_eq!(writers, Some(old), "the rewritten frame was not discarded");

    ctl.drain();
    let resps = client.call(&[upsert]).unwrap();
    assert_eq!(resps[0], Response::Upserted { epoch: epoch + 1 });
    match &client.call(&[Request::Find(id)]).unwrap()[0] {
        Response::Record(node) => assert_eq!(node.payload, vec![9; node.payload.len()]),
        other => panic!("expected the new record, got {other:?}"),
    }
    handle.shutdown().unwrap();
}
