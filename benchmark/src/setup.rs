//! Set-up: generate the network, `Create()` the database on a file
//! store behind a write-ahead log, reopen it the way `ccam serve` does,
//! and start the server. Timed as a whole (`setup_s`) and per layer.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ccam_core::epoch::EpochCell;
use ccam_core::{AccessMethod, Ccam, CcamBuilder};
use ccam_graph::generators::grid_network;
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::Network;
use ccam_server::{Server, ServerConfig, ServerHandle};
use ccam_storage::{wal_sidecar, FilePageStore, PageStore, RecoveryReport, WalInfo, WalStore};

use crate::rounds::FixedWrites;
use crate::spec::{NetSpec, Spec, NETWORK_SEED, PAGE_SIZE};
use crate::stats::median;
use crate::trace::Tracer;

/// The store stack under every benchmark database: a page file behind a
/// write-ahead log, both with their defaults (sync at every commit,
/// checkpoint after every commit).
pub type Store = WalStore<FilePageStore>;
/// The access method over that stack.
pub type Db = Ccam<Store>;
/// The cell the server shares.
pub type Cell = EpochCell<Db>;

/// Errors are reported as text with the failing step named.
pub type Res<T> = Result<T, String>;

/// Adds the failing step to an error.
pub trait Ctx<T> {
    /// Maps the error to `"<what>: <error>"`.
    fn ctx(self, what: &str) -> Res<T>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// A fresh directory for one run's database files, removed on drop.
pub struct DbDir {
    path: PathBuf,
}

impl DbDir {
    /// Creates `<out_dir>/db-<name>-<pid>`, replacing any leftover.
    pub fn create(out_dir: &Path, name: &str) -> Res<DbDir> {
        let path = out_dir.join(format!("db-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).ctx("create database directory")?;
        Ok(DbDir { path })
    }

    /// Path of the page file; the log is its `.wal` sidecar.
    pub fn db_path(&self) -> PathBuf {
        self.path.join("bench.db")
    }
}

impl Drop for DbDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Generates the network of `net`.
pub fn generate(net: NetSpec) -> Network {
    match net {
        NetSpec::Minneapolis => road_map(&RoadMapConfig::minneapolis(NETWORK_SEED)),
        NetSpec::RoadMap(side) => road_map(&RoadMapConfig::scaled(side, NETWORK_SEED)),
        NetSpec::Grid(side) => grid_network(side, side, 1.0),
    }
}

/// The builder every workload uses: one clustering thread, so set-up
/// time does not depend on a second core being free.
pub fn builder(spec: &Spec) -> CcamBuilder {
    CcamBuilder::new(PAGE_SIZE)
        .threads(1)
        .strategy(spec.strategy)
}

/// `Static-Create()` onto a fresh page file + log at `db_path`, commit,
/// close.
pub fn create(spec: &Spec, net: &Network, db_path: &Path) -> Res<()> {
    let file = FilePageStore::create(db_path, PAGE_SIZE).ctx("create page file")?;
    let store = WalStore::create(file, &wal_sidecar(db_path)).ctx("create log")?;
    let am = builder(spec).build_static_on(store, net).ctx("Create()")?;
    am.file().commit().ctx("commit after Create()")
}

/// Opens the database at `db_path` with log recovery, as `ccam serve`
/// does: every logical operation commits on its own.
pub fn open(spec: &Spec, db_path: &Path) -> Res<(Db, RecoveryReport)> {
    let file = FilePageStore::open(db_path).ctx("open page file")?;
    let (store, report) = WalStore::open(file, &wal_sidecar(db_path)).ctx("open log")?;
    let mut am = builder(spec).open_on(store).ctx("open database")?;
    am.file_mut().set_auto_commit(true);
    Ok((am, report))
}

/// A running server and the cell it shares with the benchmark.
pub struct Served {
    /// The shared database cell.
    pub cell: Arc<Cell>,
    /// The server's threads.
    pub handle: ServerHandle<Store>,
}

/// Turns on page versioning, publishes the first snapshot and starts the
/// server on a free loopback port.
///
/// The server's idle reaper is off. This sandbox's timers stall now and
/// then: threads that run keep running, threads that sleep are not woken
/// for up to 30 s (a loop of 10 ms sleeps beside the benchmark logged
/// it). The open-loop writer of `serve_mixed_rw` sleeps until each write
/// is due; after such a stall it found its connection reaped as idle,
/// and the run failed. With the reaper off the stall costs one round its
/// timings, and the median over rounds drops that round.
pub fn serve(mut db: Db, workers: usize) -> Res<Served> {
    db.enable_snapshots().ctx("enable snapshots")?;
    let cell = Arc::new(EpochCell::new(db).ctx("publish first snapshot")?);
    let config = ServerConfig {
        workers,
        idle_timeout_ms: 0,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&cell), config).ctx("start server")?;
    Ok(Served { cell, handle })
}

impl Served {
    /// Drains and joins the server, then hands back the database.
    pub fn stop(self) -> Res<Db> {
        self.handle.shutdown().ctx("server shutdown")?;
        Arc::try_unwrap(self.cell)
            .map(EpochCell::into_inner)
            .map_err(|_| "database cell still shared after shutdown".to_string())
    }
}

/// What one set-up produced.
pub enum Instance {
    /// A database behind a running server.
    Served(Served),
    /// A database used directly.
    Embedded(Box<Db>),
}

/// Seconds each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Network generation (`ccam-graph`).
    pub generate_s: f64,
    /// `Create()` + commit + close (`ccam-partition`, `ccam-core`).
    pub create_s: f64,
    /// Reopen with recovery and index rebuild.
    pub open_s: f64,
    /// Snapshot seeding + server start (0 without a server).
    pub start_s: f64,
    /// All of the above.
    pub total_s: f64,
}

/// Median over set-ups of one of their parts.
pub fn median_of(times: &[SetupTimes], part: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(part).collect::<Vec<_>>())
}

/// Runs one whole set-up, recording a span per part.
pub fn set_up(
    spec: &Spec,
    db_path: &Path,
    tracer: &mut Tracer,
) -> Res<(Network, Instance, SetupTimes)> {
    let _ = std::fs::remove_file(db_path);
    let _ = std::fs::remove_file(wal_sidecar(db_path));
    let t0 = Instant::now();
    let root = tracer.start("setup", None, 0);
    let net = tracer.time("graph.generate", Some(root), 0, || generate(spec.net));
    let t1 = Instant::now();
    tracer.time("core.build_static_on", Some(root), 0, || {
        create(spec, &net, db_path)
    })?;
    let t2 = Instant::now();
    let (db, report) = tracer.time("core.open", Some(root), 0, || open(spec, db_path))?;
    if !report.was_clean() {
        return Err("freshly created database needed recovery".into());
    }
    let t3 = Instant::now();
    let instance = if spec.served() {
        Instance::Served(tracer.time("server.start", Some(root), 0, || serve(db, spec.workers))?)
    } else {
        Instance::Embedded(Box::new(db))
    };
    let t4 = Instant::now();
    tracer.end(root);
    let times = SetupTimes {
        generate_s: (t1 - t0).as_secs_f64(),
        create_s: (t2 - t1).as_secs_f64(),
        open_s: (t3 - t2).as_secs_f64(),
        start_s: (t4 - t3).as_secs_f64(),
        total_s: (t4 - t0).as_secs_f64(),
    };
    Ok((net, instance, times))
}

/// Runs the whole set-up `spec.setups` times (once when traced) and
/// keeps the last instance; the others are shut down and dropped.
/// `setup_s` is the median over them.
pub fn repeated_set_up(
    spec: &Spec,
    traced: bool,
    db_path: &Path,
    tracer: &mut Tracer,
) -> Res<(Network, Instance, Vec<SetupTimes>)> {
    let repeats = if traced { 1 } else { spec.setups };
    let mut times = Vec::with_capacity(repeats);
    for i in 0..repeats {
        let (net, instance, t) = set_up(spec, db_path, tracer)?;
        times.push(t);
        if i + 1 == repeats {
            return Ok((net, instance, times));
        }
        if let Instance::Served(served) = instance {
            drop(served.stop()?);
        }
    }
    Err("workload asks for zero set-ups".into())
}

/// The log's counters.
pub fn wal_info(db: &Db) -> Res<WalInfo> {
    db.file()
        .pool()
        .with_store(|s| s.wal_info())
        .ok_or_else(|| "store has no write-ahead log".to_string())
}

/// The write counts right now: log bytes since `wal_before` and the
/// process's peak memory. Only reads counters.
pub fn fixed_writes(db: &Db, wal_before: &WalInfo, writes: u64) -> Res<FixedWrites> {
    Ok(FixedWrites {
        wal_bytes: wal_info(db)?.bytes_appended - wal_before.bytes_appended,
        writes,
        rss_peak_mb: vm_hwm_mb()?,
    })
}

/// Bytes the database takes: page file + secondary index + log after a
/// checkpoint forced through the store's public hook, as `ccam
/// checkpoint` does. Taken on the freshly set-up database, before any
/// request: the networks do not depend on the seed, so neither does
/// this. (While a server publishes snapshots the log is not truncated
/// at commit; `wal.live_bytes_end` shows what it grows to.)
pub fn space_bytes(db: &Db, db_path: &Path) -> Res<u64> {
    db.file()
        .pool()
        .with_store_mut(|s| s.checkpoint())
        .ctx("checkpoint")?;
    let data = std::fs::metadata(db_path).ctx("stat page file")?.len();
    let log = std::fs::metadata(wal_sidecar(db_path))
        .ctx("stat log")?
        .len();
    Ok(data + log + (db.file().index_pages() * PAGE_SIZE) as u64)
}

/// File-system type of the mount holding `path` (from `/proc/mounts`),
/// or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fs)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), fs));
        }
    }
    best.map_or("unknown".into(), |(_, fs)| fs.to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn vm_hwm_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ctx("read /proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
