//! Integration: injected storage failures surface as errors at every
//! layer — access-method operations, queries, creation — never as panics
//! or silent data corruption, and the stack recovers once I/O heals.

use ccam::core::am::{AccessMethod, CcamBuilder};
use ccam::core::query::route::evaluate_path;
use ccam::core::query::search::dijkstra;
use ccam::graph::generators::grid_network;
use ccam::storage::{FaultStore, MemPageStore};

#[test]
fn create_fails_cleanly_when_io_dies_immediately() {
    let net = grid_network(6, 6, 1.0);
    let (store, switch) = FaultStore::new(MemPageStore::new(512).unwrap());
    switch.arm_after(0);
    let r = CcamBuilder::new(512).build_static_on(store, &net);
    assert!(r.is_err(), "create over dead storage must fail, not panic");
}

#[test]
fn reads_fail_then_recover() {
    let net = grid_network(8, 8, 1.0);
    let (store, switch) = FaultStore::new(MemPageStore::new(512).unwrap());
    let am = CcamBuilder::new(512).build_static_on(store, &net).unwrap();
    let id = net.node_ids()[30];

    // Healthy read.
    assert!(am.find(id).unwrap().is_some());

    // Kill I/O; a cold read must error.
    am.file().pool().clear().unwrap();
    switch.arm_after(0);
    assert!(am.find(id).is_err());
    assert!(am.get_successors(id).is_err());

    // Heal; everything works again and the data is intact.
    switch.disarm();
    let rec = am.find(id).unwrap().unwrap();
    assert_eq!(&rec, net.node(id).unwrap());
}

#[test]
fn queries_propagate_errors() {
    let net = grid_network(7, 7, 1.0);
    let (store, switch) = FaultStore::new(MemPageStore::new(512).unwrap());
    let am = CcamBuilder::new(512).build_static_on(store, &net).unwrap();
    let ids = net.node_ids();

    am.file().pool().clear().unwrap();
    switch.arm_after(1); // the first page fetch succeeds, then death
    let r = dijkstra(&am, ids[0], ids[ids.len() - 1]);
    assert!(r.is_err(), "search across dead storage must error");

    switch.disarm();
    am.file().pool().clear().unwrap();
    switch.arm_after(0);
    assert!(evaluate_path(&am, &ids[..3]).is_err());

    switch.disarm();
    assert!(dijkstra(&am, ids[0], ids[ids.len() - 1]).unwrap().is_some());
}

#[test]
fn data_survives_a_mid_update_failure_window() {
    // Updates during an outage fail; after healing, every record that the
    // failed operation touched is still findable and decodable (the
    // buffer pool held the dirty pages, nothing was half-written to the
    // store at a torn boundary).
    let net = grid_network(8, 8, 1.0);
    let (store, switch) = FaultStore::new(MemPageStore::new(512).unwrap());
    let mut am = CcamBuilder::new(512).build_static_on(store, &net).unwrap();
    let ids = net.node_ids();

    let mut errored = 0;
    for (i, &id) in ids.iter().take(12).enumerate() {
        if i % 3 == 1 {
            // A tiny failure window around this delete.
            am.file().pool().clear().unwrap();
            switch.arm_after(1);
        }
        match am.delete_node(id) {
            Ok(Some(del)) => {
                switch.disarm();
                am.insert_node(&del.data, &del.incoming).unwrap();
            }
            Ok(None) => panic!("node {id:?} should exist"),
            Err(_) => {
                errored += 1;
                switch.disarm();
            }
        }
    }
    assert!(errored > 0, "the failure window must have fired");

    // After healing: every node findable, cross-references consistent.
    // (A delete that died mid-flight may have partially patched neighbor
    // lists — acceptable for a non-transactional 1995 design — but
    // records themselves must never be torn.)
    for id in net.node_ids() {
        if let Some(rec) = am.find(id).unwrap() {
            assert_eq!(rec.id, id);
            for e in &rec.successors {
                // Target records, when present, decode fine.
                let _ = am.find(e.to).unwrap();
            }
        }
    }
}
