//! Per-layer probes shared by every workload: calls into one layer's
//! public functions, each under a span, on the same database the
//! workload just ran against. Nothing here touches the crates' code —
//! layers are timed from outside and their counters differenced.

use ccam_core::epoch::{EpochCell, Snapshotable};
use ccam_core::query::spatial::SpatialIndex;
use ccam_core::{crr, file, NetworkFile};
use ccam_graph::walks::{edge_weights_from_routes, Route};
use ccam_graph::{Network, NodeData, NodeId};
use ccam_partition::{cluster_nodes_into_pages_with, ClusterOptions, PartGraph, Partitioner};
use ccam_storage::{PageId, PageStore};

use crate::ops::window_around;
use crate::report::Metrics;
use crate::setup::{Ctx, Res};
use crate::spec::Spec;
use crate::trace::Tracer;

/// Index lookups timed in one bulk span.
const LOOKUPS: usize = 4096;
/// Window queries, buffer misses and store reads timed one span each.
const SAMPLES: usize = 128;
/// Passes over the resident pages for the buffer-hit probe.
const HIT_PASSES: usize = 32;

/// `partition.cluster_s`: the clustering step of `Create()` alone, on the
/// graph `CcamBuilder::build_static_on` derives from `net` (record sizes
/// as node weights, unit edge weights) with the workload's options.
pub fn probe_partition<S: PageStore>(
    spec: &Spec,
    net: &Network,
    file: &NetworkFile<S>,
    tracer: &mut Tracer,
    m: &mut Metrics,
) {
    let nodes: Vec<&NodeData> = net.nodes().collect();
    let index_of: std::collections::HashMap<NodeId, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let sizes: Vec<usize> = nodes.iter().map(|n| file::clustering_weight(n)).collect();
    let edges: Vec<(usize, usize, u64)> = nodes
        .iter()
        .enumerate()
        .flat_map(|(i, n)| {
            let index_of = &index_of;
            n.successors
                .iter()
                .filter_map(move |e| index_of.get(&e.to).map(|&j| (i, j, 1)))
        })
        .collect();
    let graph = PartGraph::new(sizes, &edges);
    let opts = ClusterOptions::new(Partitioner::RatioCut)
        .threads(1)
        .strategy(spec.strategy);
    let span = tracer.start("partition.cluster_nodes_into_pages_with", None, 0);
    let groups = cluster_nodes_into_pages_with(&graph, file.clustering_budget(), opts);
    tracer.end(span);
    std::hint::black_box(groups);
    m.set(
        "partition.cluster_s",
        tracer.mean_ns("partition.cluster_nodes_into_pages_with") / 1e9,
    );
}

/// `partition.crr`, `partition.wcrr`, `core.pages`,
/// `core.page_fill_mean`: placement quality and page fill, read with
/// uncounted scans. WCRR weighs each edge by how often `routes` use it.
pub fn probe_placement<'a, S: PageStore>(
    file: &NetworkFile<S>,
    routes: impl Iterator<Item = &'a Route>,
    m: &mut Metrics,
) -> Res<()> {
    m.set("partition.crr", crr::crr(file).ctx("crr")?);
    let routes: Vec<Route> = routes.cloned().collect();
    let weights = edge_weights_from_routes(&routes);
    m.set("partition.wcrr", crr::wcrr(file, &weights).ctx("wcrr")?);
    let scan = file.scan_uncounted().ctx("scan pages")?;
    let used: usize = scan
        .iter()
        .flat_map(|(_, records)| records.iter().map(file::record_len))
        .sum();
    m.set("core.pages", scan.len() as f64);
    m.set(
        "core.page_fill_mean",
        used as f64 / (scan.len().max(1) * file.page_size()) as f64,
    );
    Ok(())
}

/// `index.*`, `buffer.hit_ns`, `buffer.miss_us`, `store.read_page_us`:
/// direct calls into the index, the buffer pool and the page store
/// behind `file`. Clears the pool — run it after everything that
/// depends on the pool's contents.
pub fn probe_file<S: PageStore>(
    file: &NetworkFile<S>,
    ids: &[NodeId],
    windows: &[[u32; 4]],
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Res<()> {
    // ccam-index: id -> page lookups, in bulk.
    let lookups: Vec<NodeId> = ids.iter().copied().cycle().take(LOOKUPS).collect();
    let index_before = file.index_stats().snapshot();
    let span = tracer.start("index.page_of", None, 0);
    for &id in &lookups {
        std::hint::black_box(file.page_of(id).ctx("page_of")?);
    }
    tracer.end_calls(span, lookups.len() as u64);
    let touched = file.index_stats().snapshot().since(&index_before);
    m.set("index.lookup_ns", tracer.mean_ns("index.page_of"));
    m.set(
        "index.pages_per_lookup",
        (touched.physical_reads + touched.buffer_hits) as f64 / lookups.len() as f64,
    );

    // ccam-index: Z-order window scans over the id index.
    let spatial = SpatialIndex::zorder();
    for (i, w) in windows.iter().take(SAMPLES).enumerate() {
        let span = tracer.start("index.window_ids", None, i as u64);
        let found = spatial.window_ids(file, w[0], w[1], w[2], w[3]);
        tracer.end(span);
        std::hint::black_box(found.ctx("window_ids")?);
    }
    m.set("index.window_us", tracer.mean_ns("index.window_ids") / 1e3);

    // ccam-storage::buffer, hit path: pages that are resident right now.
    let pool = file.pool();
    let live: Vec<PageId> = pool.with_store(|s| s.live_pages());
    let sample: Vec<PageId> = live
        .iter()
        .copied()
        .take(SAMPLES.min(pool.capacity()))
        .collect();
    for &p in &sample {
        pool.with_page(p, |_| ()).ctx("fault page in")?;
    }
    let span = tracer.start("buffer.with_page.hit", None, 0);
    for _ in 0..HIT_PASSES {
        for &p in &sample {
            pool.with_page(p, |buf| std::hint::black_box(buf[0]))
                .ctx("with_page (hit)")?;
        }
    }
    tracer.end_calls(span, (HIT_PASSES * sample.len()) as u64);
    m.set("buffer.hit_ns", tracer.mean_ns("buffer.with_page.hit"));

    // Miss path: every page is absent after a clear.
    pool.clear().ctx("clear pool")?;
    for (i, &p) in sample.iter().enumerate() {
        let span = tracer.start("buffer.with_page.miss", None, i as u64);
        let r = pool.with_page(p, |buf| std::hint::black_box(buf[0]));
        tracer.end(span);
        r.ctx("with_page (miss)")?;
    }
    m.set(
        "buffer.miss_us",
        tracer.mean_ns("buffer.with_page.miss") / 1e3,
    );

    // ccam-storage::store: the read a miss pays for, without the pool.
    let mut buf = vec![0u8; file.page_size()];
    pool.with_store(|s| {
        for (i, &p) in sample.iter().enumerate() {
            let span = tracer.start("store.read_page", None, i as u64);
            let r = s.read(p, &mut buf);
            tracer.end(span);
            r.ctx("store read")?;
        }
        Ok::<(), String>(())
    })?;
    m.set(
        "store.read_page_us",
        tracer.mean_ns("store.read_page") / 1e3,
    );
    Ok(())
}

/// `epoch.read_pin_ns`, `epoch.commit_us`: a snapshot pin, and an
/// otherwise empty write-guard commit — what publishing a snapshot costs
/// on a database of this size.
pub fn probe_epoch<T: Snapshotable>(
    cell: &EpochCell<T>,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Res<()> {
    const PINS: u64 = 4096;
    const EMPTY_COMMITS: u64 = 8;
    let pin = tracer.start("epoch.read", None, 0);
    for _ in 0..PINS {
        std::hint::black_box(cell.read().ctx("pin snapshot")?);
    }
    tracer.end_calls(pin, PINS);
    m.set("epoch.read_pin_ns", tracer.mean_ns("epoch.read"));
    for i in 0..EMPTY_COMMITS {
        let guard = cell.write().ctx("write guard")?;
        tracer
            .time("epoch.commit_empty", None, i, || guard.commit())
            .ctx("empty commit")?;
    }
    m.set(
        "epoch.commit_us",
        tracer.mean_ns("epoch.commit_empty") / 1e3,
    );
    Ok(())
}

/// Windows around the nodes `ids[..]`, for the index probe: the same
/// square `embedded_ops` queries.
pub fn windows_around(net: &Network, ids: &[NodeId]) -> Vec<[u32; 4]> {
    ids.iter()
        .take(SAMPLES)
        .filter_map(|&id| net.node(id))
        .map(|n| window_around(n.x, n.y))
        .collect()
}
