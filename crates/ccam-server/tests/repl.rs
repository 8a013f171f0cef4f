//! End-to-end replication tests over real loopback sockets: a primary
//! streams committed WAL segments to a follower, the follower serves
//! reads from replayed state and redirects writes, and the client
//! layer rides through restarts and fails reads over to the replica.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ccam_core::epoch::EpochCell;
use ccam_core::{AccessMethod, Ccam, CcamBuilder};
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::Network;
use ccam_server::client::{Backoff, Client, MultiClient};
use ccam_server::protocol::{OpCode, Request, Response, Status};
use ccam_server::{ReplRole, Server, ServerConfig, ServerHandle};
use ccam_storage::{PageStore, WalControl};

mod common;
use common::{wal_mem, WalMem};

fn test_network() -> Network {
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

/// Layout-independent digest of every record reachable in a view.
fn digest<S: PageStore>(am: &Ccam<S>) -> u64 {
    ccam_testing::digest(am.file()).expect("scan view")
}

/// A WAL-backed primary loaded with the test network, with replication
/// enabled on an ephemeral port.
fn start_primary(net: &Network) -> ServerHandle<WalMem> {
    let mut am = CcamBuilder::new(1024)
        .build_static_on(wal_mem(1024), net)
        .unwrap();
    am.file_mut().set_auto_commit(true);
    am.file()
        .pool()
        .with_store_mut(|s| s.set_max_wal_bytes(Some(64 << 20)));
    let db = Arc::new(EpochCell::new(am).unwrap());
    Server::start(
        db,
        ServerConfig {
            role: ReplRole::Primary {
                repl_addr: Some("127.0.0.1:0".to_string()),
            },
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// An *empty* WAL-backed follower subscribed to `primary_repl` — it
/// must catch up entirely over the wire.
fn start_follower(primary_repl: &str) -> ServerHandle<WalMem> {
    let mut am = CcamBuilder::new(1024)
        .build_static_on(wal_mem(1024), &Network::new())
        .unwrap();
    am.file_mut().set_auto_commit(true);
    let db = Arc::new(EpochCell::new(am).unwrap());
    Server::start(
        db,
        ServerConfig {
            role: ReplRole::Replica {
                primary: primary_repl.to_string(),
                seed: 7,
                lsn_path: None,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn primary_next_lsn(handle: &ServerHandle<WalMem>) -> u64 {
    handle
        .db()
        .with_writer(|am| am.file().pool().with_store(|s| s.info()))
        .unwrap()
        .next_lsn
}

/// Polls until the follower has applied everything the primary has
/// committed (bounded); panics on timeout.
fn await_catch_up(primary: &ServerHandle<WalMem>, follower: &ServerHandle<WalMem>, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let target = primary_next_lsn(primary).saturating_sub(1);
        if follower.applied_lsn() >= target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: follower stuck at {} of {}",
            follower.applied_lsn(),
            target
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn digests_match(primary: &ServerHandle<WalMem>, follower: &ServerHandle<WalMem>) -> bool {
    let p = primary.db().read().unwrap();
    let f = follower.db().read().unwrap();
    digest(&p) == digest(&f)
}

#[test]
fn follower_catches_up_serves_reads_and_redirects_writes() {
    let net = test_network();
    let primary = start_primary(&net);
    let repl_addr = primary.repl_addr().unwrap().to_string();
    let follower = start_follower(&repl_addr);

    // Cold catch-up: the follower starts empty and must replay the
    // whole build (or take an image handoff) before digests agree.
    await_catch_up(&primary, &follower, "cold catch-up");
    assert!(
        digests_match(&primary, &follower),
        "divergence after cold catch-up"
    );

    // Writes through the primary replicate; the follower read answers
    // the *new* payload from its own replayed state.
    let ids = net.node_ids();
    let mut to_primary = Client::connect(primary.local_addr()).unwrap();
    for (i, &id) in ids.iter().take(5).enumerate() {
        let resps = to_primary
            .call(&[Request::Upsert {
                id,
                payload: vec![0xB0 + i as u8; 9],
            }])
            .unwrap();
        assert!(
            matches!(resps[0], Response::Upserted { .. }),
            "upsert {i}: {:?}",
            resps[0]
        );
    }
    await_catch_up(&primary, &follower, "post-write catch-up");
    assert!(
        digests_match(&primary, &follower),
        "divergence after writes"
    );
    let mut to_follower = Client::connect(follower.local_addr()).unwrap();
    let resps = to_follower.call(&[Request::Find(ids[0])]).unwrap();
    match &resps[0] {
        Response::Record(node) => assert_eq!(node.payload, vec![0xB0; 9]),
        other => panic!("follower read: {other:?}"),
    }

    // Writes against the follower answer NotPrimary carrying the
    // primary's client address (learned in the handshake).
    let resps = to_follower
        .call(&[Request::Upsert {
            id: ids[0],
            payload: vec![1],
        }])
        .unwrap();
    match &resps[0] {
        Response::NotPrimary { primary: addr, op } => {
            assert_eq!(*op, OpCode::Upsert);
            assert_eq!(*addr, primary.local_addr().to_string());
        }
        other => panic!("follower write: {other:?}"),
    }

    // Lag metrics are published.
    let json = follower.metrics_json();
    assert!(
        json.contains("serve.repl_lag_lsn"),
        "missing lag gauge: {json}"
    );
    assert!(json.contains("serve.repl_connected"), "missing link gauge");

    follower.shutdown().unwrap();
    primary.shutdown().unwrap();
}

#[test]
fn follower_keeps_serving_stale_after_primary_death() {
    let net = test_network();
    let primary = start_primary(&net);
    let repl_addr = primary.repl_addr().unwrap().to_string();
    let follower = start_follower(&repl_addr);
    await_catch_up(&primary, &follower, "initial catch-up");

    let expected = {
        let p = primary.db().read().unwrap();
        digest(&p)
    };
    primary.shutdown().unwrap();

    // The link drops; the follower flags itself disconnected but keeps
    // answering reads from the last applied state.
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.repl_connected() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!follower.repl_connected(), "follower never noticed death");
    let mut client = Client::connect(follower.local_addr()).unwrap();
    let resps = client.call(&[Request::Find(net.node_ids()[0])]).unwrap();
    assert!(
        matches!(resps[0], Response::Record(_)),
        "stale read failed: {:?}",
        resps[0]
    );
    {
        let f = follower.db().read().unwrap();
        assert_eq!(digest(&f), expected, "follower state drifted after death");
    }
    assert!(
        follower.metrics().counter("serve.stale_reads") > 0,
        "stale reads were not counted"
    );
    follower.shutdown().unwrap();
}

/// Satellite: `call_with_retry` must ride through a server kill +
/// restart on the same address — connect-refused/reset are retryable
/// transport errors, not terminal failures.
#[test]
fn client_retries_reconnect_through_server_restart() {
    let net = test_network();
    let build = |addr: String| {
        // Deterministic: the same seed rebuilds the same network.
        let net = test_network();
        let am = CcamBuilder::new(1024)
            .build_static_on(wal_mem(1024), &net)
            .unwrap();
        let db = Arc::new(EpochCell::new(am).unwrap());
        Server::start(
            db,
            ServerConfig {
                addr,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    };
    let first = build("127.0.0.1:0".to_string());
    let addr = first.local_addr().to_string();
    let a = net.node_ids()[0];

    let mut client = Client::connect(&addr).unwrap();
    let resps = client.call(&[Request::Find(a)]).unwrap();
    assert!(matches!(resps[0], Response::Record(_)));

    // Kill the server; restart it on the same address shortly after,
    // while the client is already retrying.
    first.shutdown().unwrap();
    let addr2 = addr.clone();
    let restarter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        build(addr2)
    });
    let mut backoff = Backoff::new(30, Duration::from_millis(20), Duration::from_millis(100), 3);
    let resps = client
        .call_with_retry(&[Request::Find(a)], &mut backoff)
        .expect("retry through restart");
    assert!(
        matches!(resps[0], Response::Record(_)),
        "post-restart: {:?}",
        resps[0]
    );
    restarter.join().unwrap().shutdown().unwrap();
}

/// `MultiClient` fails reads over to the follower while the primary is
/// down, and follows `NotPrimary` redirects back for writes.
#[test]
fn multi_client_fails_over_reads_and_follows_redirects() {
    let net = test_network();
    let primary = start_primary(&net);
    let repl_addr = primary.repl_addr().unwrap().to_string();
    let follower = start_follower(&repl_addr);
    await_catch_up(&primary, &follower, "failover catch-up");
    let ids = net.node_ids();

    let mut mc = MultiClient::new(vec![
        primary.local_addr().to_string(),
        follower.local_addr().to_string(),
    ]);
    let mut backoff = Backoff::new(10, Duration::from_millis(10), Duration::from_millis(50), 11);

    // Writes sent while connected to the follower redirect to the
    // primary and succeed.
    mc.set_endpoints(vec![
        follower.local_addr().to_string(),
        primary.local_addr().to_string(),
    ]);
    let resps = mc
        .call_with_retry(
            &[Request::Upsert {
                id: ids[1],
                payload: vec![0xEE; 4],
            }],
            &mut backoff,
        )
        .unwrap();
    assert!(
        matches!(resps[0], Response::Upserted { .. }),
        "redirected write: {:?}",
        resps[0]
    );
    assert_eq!(
        mc.connected_to().unwrap(),
        primary.local_addr().to_string(),
        "client did not follow the redirect"
    );

    // Primary dies: reads fail over to the follower.
    primary.shutdown().unwrap();
    let resps = mc
        .call_with_retry(&[Request::Find(ids[0])], &mut backoff)
        .expect("failover read");
    assert!(
        matches!(
            resps[0],
            Response::Record(_) | Response::Error(Status::NotFound, _)
        ),
        "failover read: {:?}",
        resps[0]
    );
    assert_eq!(
        mc.connected_to().unwrap(),
        follower.local_addr().to_string(),
        "read did not land on the follower"
    );
    follower.shutdown().unwrap();
}
