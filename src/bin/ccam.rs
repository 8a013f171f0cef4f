//! `ccam` — command-line front end for the CCAM network database.
//!
//! ```text
//! ccam generate <out.net> [--seed N] [--grid W] [--minneapolis]
//! ccam build    <in.net> <out.db> [--block N] [--method ccam-s|ccam-d|dfs|bfs|wdfs|grid] [--threads N] [--strategy flat|multilevel]
//! ccam stats    <db>
//! ccam find     <db> <node-id>
//! ccam succ     <db> <node-id>
//! ccam route    <db> <node-id>...
//! ccam astar    <db> <from> <to>
//! ccam window   <db> <x0> <y0> <x1> <y1>
//! ccam bench    <db> [--routes N] [--len L]
//! ccam check    <db>
//! ccam scrub    <db>
//! ccam checkpoint <db>
//! ccam replay   <db> <trace.txt>
//! ccam profile  <db> [--ops N] [--routes N] [--len L] [--seed N] [--updates] [--json]
//! ```
//!
//! Databases are real page files ([`ccam::storage::FilePageStore`]); the
//! secondary index rebuilds on open. Node ids print/parse as the raw
//! `u64`, which must be the Z-order code of the node's coordinates:
//! `window` scans that index as a spatial one, and `build` refuses a
//! network with any other id.
//!
//! Every database carries a write-ahead log sidecar (`<db>.wal`):
//! `build` writes it, and every command opens the database through it —
//! a database whose sidecar is missing gets an empty one. Opening
//! recovers automatically — committed updates are replayed, torn tails
//! truncated — and mutating commands (`replay`, `profile --updates`)
//! commit after each logical operation.
//! Every page rewrite, allocation, free and index update belonging to
//! one logical operation (including the reorganizations it triggers)
//! commits as a single WAL transaction: recovery replays or discards
//! the whole group, never a partial reorganization.
//!
//! The log is bounded: a commit costs one `fdatasync`, of the log, and
//! leaves its batch there; the commit that pushes the sidecar past the
//! cap checkpoints (syncs the page file, then truncates the log), and
//! so does every clean exit. `--max-wal-bytes <n>` sets the cap
//! (default 1 MiB; 0 checkpoints at every commit). `ccam checkpoint
//! <db>` forces the same compaction on demand — after recovery, or
//! before archiving the sidecar.
//!
//! Fault tolerance: page files carry per-page CRC32 checksums (v2
//! format), so silent corruption is detected on read. Every
//! database-opening command accepts `--retry` (wrap the store in a
//! [`ccam::storage::RetryStore`] absorbing up to two transient faults
//! per operation) and `--verify-checksums` (refuse to open a database
//! with checksum-failed pages instead of quarantining them and serving
//! degraded answers). `ccam scrub <db>` audits every page, repairs
//! checksum failures from the committed WAL images where possible, and
//! reports what remains quarantined.
//!
//! Observability: every database command accepts `--metrics-json <path>`
//! — on success the I/O counters, recovery/scrub statistics and
//! per-operation profiles (count + page-access / latency histograms)
//! are dumped there as JSON. `find` and `succ` accept `--explain`,
//! printing the ordered page-access trace (`12:miss 12:hit 47:write`)
//! of the operation. `ccam profile <db>` replays a deterministic
//! workload and diffs the paper's §3.2 cost-model predictions against
//! the observed page accesses per operation class.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use ccam::core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam::core::costmodel::CostParams;
use ccam::core::query::route::evaluate_path;
use ccam::core::query::search::a_star;
use ccam::core::query::spatial::SpatialIndex;
use ccam::core::validate::{validate, ValidationConfig};
use ccam::graph::generators::zorder_id;
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::walks::random_walk_routes;
use ccam::graph::{load_network, save_network, Network, NodeId, RecordCodec};
use ccam::partition::PartitionStrategy;
use ccam::storage::stats::IoStats;
use ccam::storage::{
    wal_sidecar, FilePageStore, MetricsRegistry, PageStore, RetryPolicy, RetryStore, Wal, WalStore,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let (rest, open_opts) = extract_open_flags(&args[1..])?;
    let rest = rest.as_slice();
    match cmd.as_str() {
        "generate" => generate(rest),
        "build" => build(rest, &open_opts),
        "stats" => stats(rest, &open_opts),
        "find" => find(rest, &open_opts),
        "succ" => succ(rest, &open_opts),
        "route" => route(rest, &open_opts),
        "astar" => astar(rest, &open_opts),
        "window" => window(rest, &open_opts),
        "bench" => bench(rest, &open_opts),
        "check" => check(rest, &open_opts),
        "scrub" => scrub(rest, &open_opts),
        "checkpoint" => checkpoint_cmd(rest, &open_opts),
        "replay" => replay_cmd(rest, &open_opts),
        "profile" => profile(rest, &open_opts),
        "serve" => serve(rest, &open_opts),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// How database-opening commands treat faults (see [`open_db`]), plus
/// the optional metrics sink shared by every command.
#[derive(Default)]
struct OpenOptions {
    /// `--retry`: absorb transient store faults with the default
    /// [`RetryPolicy`].
    retry: bool,
    /// `--verify-checksums`: corrupt pages abort the open instead of
    /// being quarantined for degraded service.
    verify_checksums: bool,
    /// `--metrics-json <path>`: collect counters, recovery/scrub
    /// statistics and per-operation profiles, dumped as JSON on success.
    metrics: Option<MetricsSink>,
    /// `--max-wal-bytes <n>`: auto-checkpoint the WAL whenever a commit
    /// pushes the live log past `n` bytes (0 = at every commit). `None`
    /// keeps the store's default cap.
    max_wal_bytes: Option<u64>,
}

/// Destination and accumulator for `--metrics-json`. The registry uses
/// interior mutability, so commands record through a shared reference.
struct MetricsSink {
    path: PathBuf,
    registry: MetricsRegistry,
}

/// Folds the I/O counters and any collected operation profiles into the
/// sink (when one was requested) and writes the JSON dump.
fn dump_metrics(opts: &OpenOptions, stats: Option<&Arc<IoStats>>) -> Result<(), String> {
    let Some(sink) = &opts.metrics else {
        return Ok(());
    };
    if let Some(stats) = stats {
        sink.registry.merge_io("io", &stats.snapshot());
        sink.registry.record_profiles(&stats.take_profiles());
    }
    std::fs::write(&sink.path, sink.registry.to_json())
        .map_err(|e| format!("--metrics-json {}: {e}", sink.path.display()))
}

/// [`dump_metrics`] for commands holding an open access method: first
/// folds in the transaction counters (`reorg_txn_commits` /
/// `reorg_txn_aborts`) and the log's checkpoint counter and
/// live-log-bytes gauge.
fn dump_db_metrics(
    opts: &OpenOptions,
    am: &ccam::core::am::Ccam<Box<dyn PageStore>>,
) -> Result<(), String> {
    if let Some(sink) = &opts.metrics {
        let r = &sink.registry;
        r.inc_by("reorg_txn_commits", am.file().txn_commits());
        r.inc_by("reorg_txn_aborts", am.file().txn_aborts());
        if let Some(info) = am.file().pool().with_wal(|log| log.info()) {
            r.inc_by("wal_checkpoints", info.checkpoints);
            r.inc_by("wal_commits", info.commits);
            r.inc_by("wal_bytes_appended", info.bytes_appended);
            r.set_gauge("wal_live_bytes", info.live_bytes as f64);
            // Replication visibility: the oldest LSN a checkpoint must
            // keep (for subscribed followers) and the log's current
            // bounds.
            r.set_gauge("wal.retained_lsn", info.retained_lsn as f64);
            r.set_gauge("wal.next_lsn", info.next_lsn as f64);
            r.set_gauge("wal.tail_start_lsn", info.tail_start_lsn as f64);
        }
    }
    dump_metrics(opts, Some(&am.stats()))
}

/// Strips the fault-handling flags shared by every database command out
/// of `args`, leaving the command-specific arguments untouched.
fn extract_open_flags(args: &[String]) -> Result<(Vec<String>, OpenOptions), String> {
    let mut rest = Vec::new();
    let mut opts = OpenOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--retry" => {
                opts.retry = true;
                i += 1;
            }
            "--verify-checksums" => {
                opts.verify_checksums = true;
                i += 1;
            }
            "--metrics-json" => {
                let Some(path) = args.get(i + 1) else {
                    return Err("--metrics-json needs a file path".into());
                };
                opts.metrics = Some(MetricsSink {
                    path: PathBuf::from(path),
                    registry: MetricsRegistry::new(),
                });
                i += 2;
            }
            "--max-wal-bytes" => {
                let Some(n) = args.get(i + 1) else {
                    return Err("--max-wal-bytes needs a byte count".into());
                };
                opts.max_wal_bytes = Some(parse_u64(n, "--max-wal-bytes")?);
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    Ok((rest, opts))
}

fn usage() -> String {
    "usage:\n  ccam generate <out.net> [--seed N] [--grid W] [--minneapolis]\n  \
     ccam build <in.net> <out.db> [--block N] [--method ccam-s|ccam-d|dfs|bfs|wdfs|grid]\n  \
     \x20           [--threads N] (ccam-s clustering threads; 0 or omitted = all cores)\n  \
     \x20           [--strategy flat|multilevel] (ccam-s clustering; multilevel scales to millions of nodes)\n  \
     ccam stats <db>\n  \
     ccam find <db> <node-id>\n  \
     ccam succ <db> <node-id>\n  \
     ccam route <db> <node-id>...\n  \
     ccam astar <db> <from> <to>\n  \
     ccam window <db> <x0> <y0> <x1> <y1>\n  \
     ccam bench <db> [--routes N] [--len L]\n  \
     ccam check <db>\n  \
     ccam scrub <db>\n  \
     ccam checkpoint <db>\n  \
     ccam replay <db> <trace.txt>\n  \
     ccam profile <db> [--ops N] [--routes N] [--len L] [--seed N] [--updates] [--json]\n  \
     ccam serve <db> [--addr HOST:PORT] [--workers N] [--queue-depth N] [--max-seconds S]\n  \
     (--workers: N slots, at most N batches execute at once, each on its connection's reader;\n  \
     \x20--queue-depth: at most N batches wait for a slot server-wide, more are answered Overloaded)\n  \
     [--deadline-ms MS] [--idle-timeout-ms MS] [--write-timeout-ms MS]\n  \
     [--repl-addr HOST:PORT] (primary: accept follower subscriptions)\n  \
     [--replica-of HOST:PORT] [--repl-seed N] (read-only follower of a primary's repl port)\n\
     database commands also accept: [--retry] [--verify-checksums] [--metrics-json <path>]\n  \
     [--max-wal-bytes N] (checkpoint past N live log bytes; default 1 MiB, 0 = every commit)\n\
     find/succ also accept: [--explain] (print the page-access trace)"
        .to_string()
}

/// Pulls `--flag value` out of `args`, returning remaining positionals.
fn parse_flags(args: &[String], flags: &[&str]) -> (Vec<String>, HashMap<String, String>) {
    let mut pos = Vec::new();
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if flags.contains(&name) && i + 1 < args.len() {
                map.insert(name.to_string(), args[i + 1].clone());
                i += 2;
                continue;
            }
            // Bare switch.
            map.insert(name.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        pos.push(a.clone());
        i += 1;
    }
    (pos, map)
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("{what}: not a number: {s}"))
}

fn generate(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &["seed", "grid"]);
    let [out] = pos.as_slice() else {
        return Err("generate needs <out.net>".into());
    };
    let seed = flags
        .get("seed")
        .map(|s| parse_u64(s, "--seed"))
        .transpose()?
        .unwrap_or(1995);
    let net = if flags.contains_key("minneapolis") || !flags.contains_key("grid") {
        road_map(&RoadMapConfig::minneapolis(seed))
    } else {
        let grid = parse_u64(flags.get("grid").expect("checked"), "--grid")? as u32;
        road_map(&RoadMapConfig::scaled(grid, seed))
    };
    save_network(&net, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} nodes, {} directed edges",
        out,
        net.len(),
        net.num_edges()
    );
    Ok(())
}

fn build(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &["block", "method", "threads", "strategy"]);
    let [input, out] = pos.as_slice() else {
        return Err("build needs <in.net> <out.db>".into());
    };
    let block = flags
        .get("block")
        .map(|s| parse_u64(s, "--block"))
        .transpose()?
        .unwrap_or(1024) as usize;
    // Bulk-create clustering threads; 0 = all cores. The clustering
    // result is byte-identical at any thread count.
    let threads = flags
        .get("threads")
        .map(|s| parse_u64(s, "--threads"))
        .transpose()?
        .unwrap_or(0) as usize;
    let method = flags.map_or("ccam-s", "method");
    // Clustering strategy for ccam-s: flat recursion (the paper's
    // default) or the multilevel V-cycle for very large networks. The
    // result is deterministic either way.
    let strategy = match flags.map_or("flat", "strategy") {
        "flat" => PartitionStrategy::Flat,
        "multilevel" => PartitionStrategy::Multilevel,
        other => return Err(format!("unknown --strategy {other} (flat|multilevel)")),
    };
    let net = load_network(Path::new(input)).map_err(|e| e.to_string())?;
    // `window` reads coordinates back out of node ids (§2.2: ids are the
    // Z-order of the location), so any other id would make it wrong.
    if let Some(n) = net.nodes().find(|n| n.id != zorder_id(n.x, n.y)) {
        return Err(format!(
            "{input}: node {} at ({}, {}) does not have the Z-order id {} of its \
             coordinates; node ids must be Z-order codes",
            n.id.0,
            n.x,
            n.y,
            zorder_id(n.x, n.y).0
        ));
    }

    let out_path = PathBuf::from(out);
    let w = HashMap::new();
    // CCAM builds straight onto the write-ahead-logged page file; the
    // comparators build in memory, save, and get an empty log (their
    // create paths are memory-resident anyway).
    let make_store = |path: &Path| -> Result<WalStore<FilePageStore>, String> {
        let store = FilePageStore::create(path, block).map_err(|e| e.to_string())?;
        let mut ws = WalStore::create(store, &wal_sidecar(path)).map_err(|e| e.to_string())?;
        ws.set_max_wal_bytes(opts.max_wal_bytes);
        Ok(ws)
    };
    let empty_log = || Wal::create(&wal_sidecar(&out_path), block).map_err(|e| e.to_string());
    let (name, crr, pages) = match method {
        "ccam-s" => {
            let am = CcamBuilder::new(block)
                .threads(threads)
                .strategy(strategy)
                .build_static_on(make_store(&out_path)?, &net)
                .map_err(|e| e.to_string())?;
            am.file().commit().map_err(|e| e.to_string())?;
            (
                "CCAM-S",
                am.crr().map_err(|e| e.to_string())?,
                am.file().num_pages(),
            )
        }
        "ccam-d" => {
            let am = CcamBuilder::new(block)
                .build_dynamic_on(make_store(&out_path)?, &net)
                .map_err(|e| e.to_string())?;
            am.file().commit().map_err(|e| e.to_string())?;
            (
                "CCAM-D",
                am.crr().map_err(|e| e.to_string())?,
                am.file().num_pages(),
            )
        }
        m @ ("dfs" | "bfs" | "wdfs") => {
            let order = match m {
                "dfs" => TraversalOrder::DepthFirst,
                "bfs" => TraversalOrder::BreadthFirst,
                _ => TraversalOrder::WeightedDepthFirst,
            };
            let am = TopoAm::create(&net, block, order, None, &w, RecordCodec::Compact)
                .map_err(|e| e.to_string())?;
            am.file().save_to(&out_path).map_err(|e| e.to_string())?;
            empty_log()?;
            (
                order.name(),
                am.crr().map_err(|e| e.to_string())?,
                am.file().num_pages(),
            )
        }
        "grid" => {
            let am =
                GridAm::create(&net, block, RecordCodec::Compact).map_err(|e| e.to_string())?;
            am.file().save_to(&out_path).map_err(|e| e.to_string())?;
            empty_log()?;
            (
                "Grid File",
                am.crr().map_err(|e| e.to_string())?,
                am.file().num_pages(),
            )
        }
        other => return Err(format!("unknown --method {other}")),
    };
    println!(
        "built {out} with {name}: {} nodes on {pages} pages ({block} B), CRR = {crr:.4}",
        net.len()
    );
    Ok(())
}

trait FlagMap {
    fn map_or<'a>(&'a self, default: &'a str, key: &str) -> &'a str;
}

impl FlagMap for HashMap<String, String> {
    fn map_or<'a>(&'a self, default: &'a str, key: &str) -> &'a str {
        self.get(key).map(|s| s.as_str()).unwrap_or(default)
    }
}

/// Opens a database as a CCAM access method (placement already baked into
/// the pages; any method's file reopens this way).
///
/// The store always sits under the `<db>.wal` log: crash recovery
/// replays it before the index is rebuilt, and every mutating operation
/// auto-commits. A database with no sidecar gets an empty one — nothing
/// is pending, so there is nothing to replay.
///
/// `--retry` wraps the page file in a [`RetryStore`] (innermost, below
/// the log, so retries shield both recovery and normal I/O).
/// Checksum-failed pages are quarantined with a warning — queries then
/// skip them and answer degraded — unless `--verify-checksums` made
/// corruption fatal.
fn open_db(
    path: &str,
    opts: &OpenOptions,
) -> Result<ccam::core::am::Ccam<Box<dyn PageStore>>, String> {
    let db = Path::new(path);
    let store = FilePageStore::open(db).map_err(|e| e.to_string())?;
    let block = store.page_size();
    let mut base: Box<dyn PageStore> = Box::new(store);
    if opts.retry {
        base = Box::new(RetryStore::new(base, RetryPolicy::default()));
    }
    let (mut ws, report) = WalStore::open(base, &wal_sidecar(db)).map_err(|e| e.to_string())?;
    ws.set_max_wal_bytes(opts.max_wal_bytes);
    if !report.was_clean() {
        eprintln!(
            "recovered {path}: {} batch(es) redone ({} page images), \
             {} uncommitted record(s) discarded, {} torn byte(s) truncated",
            report.replayed_batches,
            report.replayed_pages,
            report.discarded_records,
            report.torn_bytes
        );
    }
    if let Some(sink) = &opts.metrics {
        let r = &sink.registry;
        r.inc_by("recovery.replayed_batches", report.replayed_batches);
        r.inc_by("recovery.replayed_pages", report.replayed_pages);
        r.inc_by("recovery.discarded_records", report.discarded_records);
        r.inc_by("recovery.torn_bytes", report.torn_bytes);
    }
    let mut am = CcamBuilder::new(block)
        .open_on(Box::new(ws) as Box<dyn PageStore>)
        .map_err(|e| e.to_string())?;
    am.file_mut().set_auto_commit(true);
    if opts.metrics.is_some() {
        // Collect per-operation profiles for the final JSON dump.
        am.stats().set_profiling(true);
    }
    let quarantined = am.file().quarantined_pages();
    if !quarantined.is_empty() {
        let list: Vec<String> = quarantined.iter().map(|p| p.0.to_string()).collect();
        let list = list.join(", ");
        if opts.verify_checksums {
            return Err(format!(
                "{path}: {} page(s) failed checksum verification: {list} \
                 (run `ccam scrub {path}` to repair from the WAL)",
                quarantined.len()
            ));
        }
        eprintln!(
            "warning: {path}: {} page(s) failed checksum verification and are \
             quarantined: {list}; answers may be incomplete \
             (run `ccam scrub {path}`)",
            quarantined.len()
        );
    }
    Ok(am)
}

/// `ccam scrub <db>`: audit every page, repair checksum failures from the
/// committed WAL images, report what stayed quarantined.
fn scrub(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let [db] = args else {
        return Err("scrub needs <db>".into());
    };
    let started = std::time::Instant::now();
    let report = ccam::storage::scrub_file(Path::new(db)).map_err(|e| e.to_string())?;
    if let Some(sink) = &opts.metrics {
        let r = &sink.registry;
        r.inc_by("scrub.pages", report.pages.len() as u64);
        r.inc_by("scrub.clean", report.clean);
        r.inc_by("scrub.repaired", report.repaired);
        r.inc_by("scrub.quarantined", report.quarantined);
        r.observe("scrub.elapsed_us", started.elapsed().as_micros() as u64);
        dump_metrics(opts, None)?;
    }
    for (page, status) in &report.pages {
        match status {
            ccam::storage::PageStatus::Clean => {}
            ccam::storage::PageStatus::Repaired => {
                println!("page {}: repaired from WAL image", page.0);
            }
            ccam::storage::PageStatus::Quarantined => {
                println!("page {}: QUARANTINED (no committed WAL image)", page.0);
            }
        }
    }
    println!(
        "scrubbed {db}: {} page(s) — {} clean, {} repaired, {} quarantined",
        report.pages.len(),
        report.clean,
        report.repaired,
        report.quarantined
    );
    if report.quarantined == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} page(s) unrecoverable; queries will skip them and answer degraded",
            report.quarantined
        ))
    }
}

/// `ccam checkpoint <db>`: recover the database if needed, apply every
/// retained WAL batch to the page file, and truncate the log. The
/// on-demand counterpart of the `--max-wal-bytes` auto-checkpoint —
/// compacts a capped sidecar before archiving or copying it.
fn checkpoint_cmd(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let [db] = args else {
        return Err("checkpoint needs <db>".into());
    };
    let am = open_db(db, opts)?;
    let (before, info) = am
        .file()
        .pool()
        .with_wal(|log| {
            let before = log.info().live_bytes;
            log.checkpoint().map(|()| (before, log.info()))
        })
        .expect("open_db opens every database through its log")
        .map_err(|e| e.to_string())?;
    println!(
        "checkpointed {db}: log {before} -> {} bytes",
        info.live_bytes
    );
    // A retained floor below next_lsn means a subscribed follower
    // still needs those log bytes — the checkpoint kept them instead of
    // truncating.
    if info.retained_lsn + 1 < info.next_lsn {
        println!(
            "retained from lsn {} (next {}): a follower holds the log",
            info.retained_lsn, info.next_lsn
        );
    }
    dump_db_metrics(opts, &am)
}

fn stats(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let [db] = args else {
        return Err("stats needs <db>".into());
    };
    let am = open_db(db, opts)?;
    let p = CostParams::measure(am.file()).map_err(|e| e.to_string())?;
    println!("database          {db}");
    println!("page size         {} B", am.file().page_size());
    println!("records           {}", am.file().len());
    println!("data pages        {}", am.file().num_pages());
    println!(
        "blocking factor   {:.2} ({} records)",
        p.blocking_factor,
        am.file().codec().name()
    );
    println!("CRR (alpha)       {:.4}", p.alpha);
    println!("avg successors    {:.3}", p.avg_successors);
    println!("avg neighbors     {:.3}", p.avg_neighbors);
    println!(
        "predicted get-successors cost   {:.3}",
        p.get_successors_cost()
    );
    println!(
        "predicted get-a-successor cost  {:.3}",
        p.get_a_successor_cost()
    );
    println!(
        "predicted route cost (L=20)     {:.3}",
        p.route_evaluation_cost(20)
    );
    dump_db_metrics(opts, &am)?;
    Ok(())
}

/// Prints the page-access trace of every profile collected so far
/// (`--explain`), then forwards them to the metrics sink so a combined
/// `--explain --metrics-json` run loses nothing.
fn print_explain(stats: &Arc<IoStats>, opts: &OpenOptions) {
    for p in &stats.take_profiles() {
        println!(
            "explain {}: {} page touch(es), {} physical reads, {} writes, {} us",
            p.op,
            p.events.len(),
            p.io.physical_reads,
            p.io.physical_writes,
            p.elapsed_us
        );
        println!("  trace: {}", p.trace_string());
        if let Some(sink) = &opts.metrics {
            sink.registry.record_profiles(std::slice::from_ref(p));
        }
    }
}

fn find(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &[]);
    let [db, id] = pos.as_slice() else {
        return Err("find needs <db> <node-id> [--explain]".into());
    };
    let am = open_db(db, opts)?;
    let explain = flags.contains_key("explain");
    if explain {
        am.stats().set_profiling(true);
    }
    let id = NodeId(parse_u64(id, "node-id")?);
    let found = am.find(id).map_err(|e| e.to_string())?;
    if explain {
        print_explain(&am.stats(), opts);
    }
    match found {
        Some(rec) => {
            println!("node {} at ({}, {})", rec.id.0, rec.x, rec.y);
            println!("payload: {} bytes", rec.payload.len());
            for e in &rec.successors {
                println!("  -> {} (cost {})", e.to.0, e.cost);
            }
            for p in &rec.predecessors {
                println!("  <- {}", p.0);
            }
            dump_db_metrics(opts, &am)?;
            Ok(())
        }
        None => Err(format!("node {} not found", id.0)),
    }
}

fn succ(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &[]);
    let [db, id] = pos.as_slice() else {
        return Err("succ needs <db> <node-id> [--explain]".into());
    };
    let am = open_db(db, opts)?;
    let explain = flags.contains_key("explain");
    if explain {
        am.stats().set_profiling(true);
    }
    let id = NodeId(parse_u64(id, "node-id")?);
    let before = am.stats().snapshot();
    // The degraded variant answers past quarantined pages instead of
    // aborting; on a healthy file it is exactly Get-successors().
    let result = am.get_successors_degraded(id).map_err(|e| e.to_string())?;
    let io = am.stats().snapshot().since(&before).physical_reads;
    if explain {
        print_explain(&am.stats(), opts);
    }
    for s in &result.value {
        println!("{} at ({}, {})", s.id.0, s.x, s.y);
    }
    println!("({} successors, {} page accesses)", result.value.len(), io);
    if !result.is_complete() {
        let list: Vec<String> = result.skipped.iter().map(|p| p.0.to_string()).collect();
        eprintln!(
            "warning: answer is incomplete — skipped quarantined page(s) {}",
            list.join(", ")
        );
    }
    dump_db_metrics(opts, &am)?;
    Ok(())
}

fn route(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    if args.len() < 3 {
        return Err("route needs <db> and at least two node ids".into());
    }
    let am = open_db(&args[0], opts)?;
    let nodes: Vec<NodeId> = args[1..]
        .iter()
        .map(|s| parse_u64(s, "node-id").map(NodeId))
        .collect::<Result<_, _>>()?;
    am.file()
        .pool()
        .set_capacity(1)
        .map_err(|e| e.to_string())?;
    let before = am.stats().snapshot();
    let eval = evaluate_path(&am, &nodes).map_err(|e| e.to_string())?;
    let io = am.stats().snapshot().since(&before).physical_reads;
    println!(
        "route of {} nodes: total cost {}, complete = {}, {} page accesses",
        eval.nodes_visited, eval.total_cost, eval.complete, io
    );
    dump_db_metrics(opts, &am)?;
    Ok(())
}

fn astar(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let [db, from, to] = args else {
        return Err("astar needs <db> <from> <to>".into());
    };
    let am = open_db(db, opts)?;
    let from = NodeId(parse_u64(from, "from")?);
    let to = NodeId(parse_u64(to, "to")?);
    let before = am.stats().snapshot();
    match a_star(&am, from, to).map_err(|e| e.to_string())? {
        Some(r) => {
            let io = am.stats().snapshot().since(&before).physical_reads;
            println!(
                "cost {} over {} nodes ({} expanded, {} page accesses)",
                r.cost,
                r.path.len(),
                r.expanded,
                io
            );
            let ids: Vec<String> = r.path.iter().map(|n| n.0.to_string()).collect();
            println!("path: {}", ids.join(" "));
            dump_db_metrics(opts, &am)?;
            Ok(())
        }
        None => Err(format!("no path from {} to {}", from.0, to.0)),
    }
}

fn window(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let [db, x0, y0, x1, y1] = args else {
        return Err("window needs <db> <x0> <y0> <x1> <y1>".into());
    };
    let am = open_db(db, opts)?;
    let c = |s: &String, w| parse_u64(s, w).map(|v| v as u32);
    let (x0, y0, x1, y1) = (c(x0, "x0")?, c(y0, "y0")?, c(x1, "x1")?, c(y1, "y1")?);
    let recs = SpatialIndex::zorder()
        .window_records(am.file(), x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1))
        .map_err(|e| e.to_string())?;
    for r in &recs {
        println!("{} at ({}, {})", r.id.0, r.x, r.y);
    }
    println!("({} nodes in window)", recs.len());
    dump_db_metrics(opts, &am)?;
    Ok(())
}

fn bench(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &["routes", "len"]);
    let [db] = pos.as_slice() else {
        return Err("bench needs <db>".into());
    };
    let am = open_db(db, opts)?;
    let routes_n = flags
        .get("routes")
        .map(|s| parse_u64(s, "--routes"))
        .transpose()?
        .unwrap_or(100) as usize;
    let len = flags
        .get("len")
        .map(|s| parse_u64(s, "--len"))
        .transpose()?
        .unwrap_or(20) as usize;
    // Rebuild a Network view from the stored records to generate walks.
    let mut net = Network::new();
    let scan = am.file().scan_uncounted().map_err(|e| e.to_string())?;
    for (_, records) in &scan {
        for r in records {
            net.add_node(r.id, r.x, r.y, r.payload.clone());
        }
    }
    for (_, records) in &scan {
        for r in records {
            for e in &r.successors {
                if net.node(e.to).is_some() {
                    net.add_edge(r.id, e.to, e.cost);
                }
            }
        }
    }
    let routes = random_walk_routes(&net, routes_n, len, 1995);
    am.file()
        .pool()
        .set_capacity(1)
        .map_err(|e| e.to_string())?;
    let mut total = 0u64;
    for r in &routes {
        am.file().pool().clear().map_err(|e| e.to_string())?;
        let before = am.stats().snapshot();
        let nodes: Vec<NodeId> = r.nodes.clone();
        evaluate_path(&am, &nodes).map_err(|e| e.to_string())?;
        total += am.stats().snapshot().since(&before).physical_reads;
    }
    println!(
        "route evaluation: {} routes of {} nodes, avg {:.2} page accesses/route (CRR = {:.4})",
        routes_n,
        len,
        total as f64 / routes_n as f64,
        am.crr().map_err(|e| e.to_string())?
    );
    dump_db_metrics(opts, &am)?;
    Ok(())
}

fn check(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let [db] = args else {
        return Err("check needs <db>".into());
    };
    let am = open_db(db, opts)?;
    let report = ccam::core::check::verify(am.file()).map_err(|e| e.to_string())?;
    println!(
        "checked {} records on {} pages (CRR {:.4}, {} under-full pages)",
        report.records, report.pages, report.crr, report.underfull_pages
    );
    if report.is_clean() {
        println!("ok: no integrity issues");
        dump_db_metrics(opts, &am)?;
        Ok(())
    } else {
        for issue in &report.issues {
            eprintln!("ISSUE: {issue}");
        }
        Err(format!("{} integrity issue(s) found", report.issues.len()))
    }
}

fn replay_cmd(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let [db, trace] = args else {
        return Err("replay needs <db> <trace.txt>".into());
    };
    let text = std::fs::read_to_string(trace).map_err(|e| e.to_string())?;
    let ops = ccam::core::workload::parse_trace(&text).map_err(|e| e.to_string())?;
    let mut am = open_db(db, opts)?;
    let stats =
        ccam::core::workload::replay(&mut am as &mut dyn AccessMethod<Box<dyn PageStore>>, &ops)
            .map_err(|e| e.to_string())?;
    println!(
        "replayed {} ops ({} misses): {} page reads, {} page writes",
        stats.executed, stats.misses, stats.page_reads, stats.page_writes
    );
    for (op, count) in &stats.per_op {
        println!("  {op:14} x{count}");
    }
    dump_db_metrics(opts, &am)?;
    Ok(())
}

/// `ccam profile <db>`: replay a deterministic workload per operation
/// class and diff the paper's cost-model predictions (§3.2, Tables 3–4)
/// against the observed page accesses. `--updates` adds the
/// delete/insert classes (every deleted node is re-inserted, and each
/// operation commits on its own, so the file ends as it began).
fn profile(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &["ops", "routes", "len", "seed"]);
    let [db] = pos.as_slice() else {
        return Err("profile needs <db>".into());
    };
    let mut cfg = ValidationConfig {
        updates: flags.contains_key("updates"),
        ..ValidationConfig::default()
    };
    if let Some(s) = flags.get("ops") {
        cfg.sample = parse_u64(s, "--ops")? as usize;
    }
    if let Some(s) = flags.get("routes") {
        cfg.routes = parse_u64(s, "--routes")? as usize;
    }
    if let Some(s) = flags.get("len") {
        cfg.route_len = parse_u64(s, "--len")? as usize;
    }
    if let Some(s) = flags.get("seed") {
        cfg.seed = parse_u64(s, "--seed")?;
    }
    let mut am = open_db(db, opts)?;
    am.stats().set_profiling(true);
    let report = validate(&mut am, &cfg).map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if let Some(sink) = &opts.metrics {
        let r = &sink.registry;
        for c in &report.classes {
            r.set_gauge(&format!("costmodel.{}.predicted", c.class), c.predicted);
            r.set_gauge(&format!("costmodel.{}.observed", c.class), c.observed);
            r.set_gauge(&format!("costmodel.{}.rel_error", c.class), c.rel_error());
        }
        r.set_gauge("costmodel.mean_rel_error", report.mean_rel_error());
        r.set_gauge("costmodel.max_rel_error", report.max_rel_error());
    }
    dump_db_metrics(opts, &am)?;
    Ok(())
}

/// `ccam serve <db>`: run the TCP query server over an opened database.
///
/// Prints `listening on <addr>` once ready (port 0 resolves to the
/// kernel-assigned port). With `--max-seconds S` the server drains and
/// exits cleanly after S seconds — the CI smoke test and benchmarking
/// hook, since a std-only binary has no portable signal handling;
/// without it the server runs until killed. `--metrics-json` writes the
/// server's metric registry (request counters, latency and batch-size
/// histograms, I/O gauges) after the drain — the same document the
/// `Stats` protocol op returns live.
fn serve(args: &[String], opts: &OpenOptions) -> Result<(), String> {
    let (pos, flags) = parse_flags(
        args,
        &[
            "addr",
            "workers",
            "queue-depth",
            "max-seconds",
            "deadline-ms",
            "idle-timeout-ms",
            "write-timeout-ms",
            "repl-addr",
            "replica-of",
            "repl-seed",
        ],
    );
    let [db_path] = pos.as_slice() else {
        return Err("serve needs <db>".into());
    };
    // Replication role: `--replica-of <primary-repl-addr>` subscribes
    // this server to a primary's replication port and serves read-only;
    // `--repl-addr <host:port>` opens a replication port for followers.
    // The two are mutually exclusive — a follower never re-ships.
    let role = match (flags.get("replica-of"), flags.get("repl-addr")) {
        (Some(_), Some(_)) => {
            return Err("--replica-of and --repl-addr are mutually exclusive".into());
        }
        (Some(primary), None) => ccam::server::ReplRole::Replica {
            primary: primary.clone(),
            seed: flags
                .get("repl-seed")
                .map(|s| parse_u64(s, "--repl-seed"))
                .transpose()?
                .unwrap_or(1),
            // Sidecar position hint: losing it only costs a full
            // catch-up, never correctness.
            lsn_path: Some(PathBuf::from(format!("{db_path}.repllsn"))),
        },
        (None, repl_addr) => ccam::server::ReplRole::Primary {
            repl_addr: repl_addr.cloned(),
        },
    };
    let config = ccam::server::ServerConfig {
        role,
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:4791".to_string()),
        workers: flags
            .get("workers")
            .map(|s| parse_u64(s, "--workers"))
            .transpose()?
            .unwrap_or(2) as usize,
        queue_depth: flags
            .get("queue-depth")
            .map(|s| parse_u64(s, "--queue-depth"))
            .transpose()?
            .unwrap_or(16) as usize,
        // A serving default, unlike the library's unbounded one: a
        // pathological route must not pin a worker forever.
        deadline_ms: flags
            .get("deadline-ms")
            .map(|s| parse_u64(s, "--deadline-ms"))
            .transpose()?
            .unwrap_or(2_000),
        idle_timeout_ms: flags
            .get("idle-timeout-ms")
            .map(|s| parse_u64(s, "--idle-timeout-ms"))
            .transpose()?
            .unwrap_or(30_000),
        write_timeout_ms: flags
            .get("write-timeout-ms")
            .map(|s| parse_u64(s, "--write-timeout-ms"))
            .transpose()?
            .unwrap_or(10_000),
    };
    let max_seconds = flags
        .get("max-seconds")
        .map(|s| parse_u64(s, "--max-seconds"))
        .transpose()?;

    let am = open_db(db_path, opts)?;
    let db = Arc::new(
        ccam::core::epoch::EpochCell::new(am).map_err(|e| format!("publish snapshot: {e}"))?,
    );
    let handle =
        ccam::server::Server::start(Arc::clone(&db), config.clone()).map_err(|e| e.to_string())?;
    println!("listening on {}", handle.local_addr());
    if let Some(repl) = handle.repl_addr() {
        println!("replication on {repl}");
    }
    if let ccam::server::ReplRole::Replica { primary, .. } = &config.role {
        println!("replica of {primary}");
    }
    println!(
        "workers {} queue-depth {} db {}",
        config.workers, config.queue_depth, db_path
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    match max_seconds {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }

    let metrics = Arc::clone(handle.metrics());
    // Fold the replication gauges (lag, link state) into the shared
    // registry while the link state is still meaningful — the handle
    // and its repl state are consumed by shutdown.
    let _ = handle.metrics_json();
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    // All workers are joined: fold the final I/O counters in and
    // report. io_stats() is lock-free — no need to pin a snapshot.
    if let Some(io) = db.io_stats() {
        ccam::server::fold_io_gauges(&metrics, &io.snapshot(), db.epoch());
    }
    // WAL position gauges: what a checkpoint could reclaim and what
    // replication retention still pins.
    if let Ok(Some(info)) = db.with_writer(|am| am.file().pool().with_wal(|log| log.info())) {
        metrics.set_gauge("wal.retained_lsn", info.retained_lsn as f64);
        metrics.set_gauge("wal.next_lsn", info.next_lsn as f64);
        metrics.set_gauge("wal.tail_start_lsn", info.tail_start_lsn as f64);
    }
    eprintln!(
        "served {} requests in {} batches ({} overloaded)",
        metrics.counter("serve.requests"),
        metrics.counter("serve.batches"),
        metrics.counter("serve.overloaded"),
    );
    if let Some(sink) = &opts.metrics {
        std::fs::write(&sink.path, metrics.to_json())
            .map_err(|e| format!("--metrics-json {}: {e}", sink.path.display()))?;
    }
    Ok(())
}
