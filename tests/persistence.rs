//! Integration: the whole stack runs on a genuinely persistent page
//! file — build CCAM on disk, reopen it cold, and keep querying and
//! updating it.

use std::collections::HashMap;

use ccam::core::am::{AccessMethod, CcamBuilder, TopoAm, TraversalOrder};
use ccam::core::query::route::evaluate_route;
use ccam::core::query::search::a_star;
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::walks::random_walk_routes;
use ccam::graph::{Network, RecordCodec};
use ccam::storage::{FilePageStore, WalStore};
use ccam_testing::{Driver, Step, TempDir};

fn net() -> Network {
    road_map(&RoadMapConfig {
        grid_w: 10,
        grid_h: 10,
        removed_nodes: 2,
        target_segments: 150,
        target_directed: 265,
        cell: 64,
        jitter: 24,
        seed: 11,
    })
}

fn temp_path(name: &str) -> (TempDir, std::path::PathBuf) {
    let dir = TempDir::new("ccam-it");
    let path = dir.path(name);
    (dir, path)
}

/// A database in either codec, built on a logged page file and updated,
/// reopens in that codec over a fresh `WalStore<FilePageStore>` — whatever
/// codec the opening builder was given — and checks clean.
#[test]
fn each_codec_reopens_over_its_log_and_checks_clean() {
    let net = net();
    let victim = net.node_ids()[17];
    let mut model = net.clone();
    model.remove_node(victim).unwrap();
    for (codec, opener) in [
        (RecordCodec::Paper, RecordCodec::Compact),
        (RecordCodec::Compact, RecordCodec::Paper),
    ] {
        let (_dir, path) = temp_path(&format!("codec-{}", codec.name()));
        let wal = path.with_extension("wal");
        {
            let store = FilePageStore::create(&path, 1024).unwrap();
            let store = WalStore::create(store, &wal).unwrap();
            let mut am = CcamBuilder::new(1024)
                .codec(codec)
                .build_static_on(store, &net)
                .unwrap();
            am.file_mut().set_auto_commit(true);
            am.delete_node(victim).unwrap().unwrap();
        }
        let store = FilePageStore::open(&path).unwrap();
        let (store, _) = WalStore::open(store, &wal).unwrap();
        let am = CcamBuilder::new(1024).codec(opener).open_on(store).unwrap();
        assert_eq!(am.file().codec(), codec);
        // Records, index agreement and a clean audit.
        let held = ccam_testing::check(am.file(), &model);
        assert_eq!(held, Ok(()), "{codec:?}");
        drop(am);
    }
}

/// A paper-codec file carries a clear format bit on every page, as every
/// file written before the compact codec existed does: it opens as
/// paper, including under the (compact) default builder.
#[test]
fn a_paper_file_opens_as_paper() {
    let net = net();
    let (_dir, path) = temp_path("paper");
    let built = CcamBuilder::new(512)
        .codec(RecordCodec::Paper)
        .build_static(&net)
        .unwrap();
    built.file().save_to(&path).unwrap();
    let am = CcamBuilder::new(512)
        .open_on(FilePageStore::open(&path).unwrap())
        .unwrap();
    assert_eq!(am.file().codec(), RecordCodec::Paper);
    assert_eq!(am.file().num_pages(), built.file().num_pages());
    ccam_testing::check(am.file(), &net).unwrap();
}

/// `save_to` copies page images, format bit included: a compact
/// comparator file reopens as compact.
#[test]
fn a_saved_compact_comparator_reopens_as_compact() {
    let net = net();
    let (_dir, path) = temp_path("compact-dfs");
    let dfs = TopoAm::create(
        &net,
        512,
        TraversalOrder::DepthFirst,
        None,
        &HashMap::new(),
        RecordCodec::Compact,
    )
    .unwrap();
    dfs.file().save_to(&path).unwrap();
    let am = CcamBuilder::new(512)
        .codec(RecordCodec::Paper)
        .open_on(FilePageStore::open(&path).unwrap())
        .unwrap();
    assert_eq!(am.file().codec(), RecordCodec::Compact);
    ccam_testing::check(am.file(), &net).unwrap();
}

#[test]
fn build_directly_on_a_page_file() {
    let net = net();
    let (_dir, path) = temp_path("direct");
    {
        let store = FilePageStore::create(&path, 1024).unwrap();
        let am = CcamBuilder::new(1024).build_static_on(store, &net).unwrap();
        ccam_testing::check(am.file(), &net).unwrap();
        am.file().pool().flush_all().unwrap();
    }
    // Reopen cold: the index rebuilds from the data pages alone.
    {
        let store = FilePageStore::open(&path).unwrap();
        let am = CcamBuilder::new(1024).open_on(store).unwrap();
        ccam_testing::check(am.file(), &net).unwrap();
        // CRR survives the round trip (placement is byte-identical).
        assert!(am.crr().unwrap() > 0.4);
    }
}

#[test]
fn save_mem_file_then_reopen_and_query() {
    let net = net();
    let (_dir, path) = temp_path("saved");
    let mem_am = CcamBuilder::new(512).build_static(&net).unwrap();
    let crr_before = mem_am.crr().unwrap();
    mem_am.file().save_to(&path).unwrap();

    let store = FilePageStore::open(&path).unwrap();
    let am = CcamBuilder::new(512).open_on(store).unwrap();
    assert_eq!(am.file().len(), net.len());
    assert!((am.crr().unwrap() - crr_before).abs() < 1e-12);

    // Queries over the disk file.
    let routes = random_walk_routes(&net, 10, 12, 3);
    for r in &routes {
        let eval = evaluate_route(&am, r).unwrap();
        assert!(eval.complete);
    }
    let ids = net.node_ids();
    let sp = a_star(&am, ids[0], ids[ids.len() - 1]).unwrap();
    assert!(sp.is_some());
}

#[test]
fn updates_on_disk_survive_reopen() {
    let net = net();
    let (_dir, path) = temp_path("updates");
    let model = {
        let store = FilePageStore::create(&path, 1024).unwrap();
        let am = CcamBuilder::new(1024).build_static_on(store, &net).unwrap();
        let mut driver = Driver::new(am, net.clone());
        // Delete node 17 and put it back, then one permanent deletion.
        driver.step(&Step::Grow(17, 0)).unwrap();
        driver.step(&Step::DeleteNode(3)).unwrap();
        driver.with_file(|f| f.pool().flush_all()).unwrap();
        driver.model().clone()
    };
    {
        let store = FilePageStore::open(&path).unwrap();
        let am = CcamBuilder::new(1024).open_on(store).unwrap();
        // The victim back, the gone node gone, every cross-reference
        // consistent on the reopened file.
        assert!(model.node(net.node_ids()[3]).is_none());
        ccam_testing::check(am.file(), &model).unwrap();
    }
}

#[test]
fn save_preserves_page_ids_across_gaps() {
    // Delete enough nodes to free whole pages, save, reopen: the index
    // rebuilt from the surviving pages must agree with the original
    // placement (page ids preserved, gaps skipped).
    let net = net();
    let (_dir, path) = temp_path("gaps");
    let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
    let ids = net.node_ids();
    // First-order deletes (with merging) free pages.
    for &id in ids.iter().take(ids.len() / 2) {
        am.delete_node(id).unwrap().unwrap();
    }
    let survivors: Vec<_> = ids.iter().skip(ids.len() / 2).copied().collect();
    let placement_before: Vec<_> = survivors
        .iter()
        .map(|&id| am.file().page_of(id).unwrap().unwrap())
        .collect();
    am.file().save_to(&path).unwrap();

    let store = FilePageStore::open(&path).unwrap();
    let reopened = CcamBuilder::new(512).open_on(store).unwrap();
    assert_eq!(reopened.file().len(), survivors.len());
    for (&id, &page) in survivors.iter().zip(&placement_before) {
        assert_eq!(
            reopened.file().page_of(id).unwrap(),
            Some(page),
            "{id:?} moved across save/reopen"
        );
        assert!(reopened.find(id).unwrap().is_some());
    }
}

#[test]
fn dirty_evictions_write_back_under_tiny_pool() {
    // With a single buffer frame every page the churn dirties is evicted
    // — and must be written back — before the next page faults in. If
    // eviction dropped dirty frames, the final flush (which only sees
    // the one resident frame) could not save the rest and the reopened
    // file would have lost most of the updates.
    let net = net();
    let (_dir, path) = temp_path("evict");
    let model = {
        let store = FilePageStore::create(&path, 512).unwrap();
        let am = CcamBuilder::new(512).build_static_on(store, &net).unwrap();
        am.file().pool().set_capacity(1).unwrap();
        let mut driver = Driver::new(am, net.clone());
        for i in (0..net.len()).step_by(6) {
            driver.step(&Step::Grow(i, 0)).unwrap();
        }
        driver.step(&Step::DeleteNode(1)).unwrap();
        driver.with_file(|f| f.pool().flush_all()).unwrap();
        driver.model().clone()
    };
    let store = FilePageStore::open(&path).unwrap();
    let am = CcamBuilder::new(512).open_on(store).unwrap();
    assert!(model.node(net.node_ids()[1]).is_none());
    ccam_testing::check(am.file(), &model).unwrap();
}

#[test]
fn dynamic_create_on_disk() {
    let net = net();
    let (_dir, path) = temp_path("dynamic");
    let store = FilePageStore::create(&path, 1024).unwrap();
    let am = CcamBuilder::new(1024)
        .build_dynamic_on(store, &net)
        .unwrap();
    assert_eq!(am.file().len(), net.len());
    assert!(am.crr().unwrap() > 0.3);
}
