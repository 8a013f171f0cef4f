//! Test support: one deterministic history driver that checks an access
//! method against the in-memory [`Network`] model (DESIGN.md §8).
//!
//! A [`History`] is a seed plus [`Step`]s. A [`Driver`] applies each step
//! to an access method and to the model, then [`check`]s that the file
//! holds exactly the model. It also keeps the committed states, so that
//! after a crash or a refused write the file must hold the last committed
//! state or that state with the in-flight step applied, and every
//! published or pinned view the state of its epoch. [`assert_history`]
//! minimises a failing history and prints it as a pasteable `#[test]`.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ccam_graph::{Network, NodeData, NodeId};
use ccam_storage::{
    FaultController, FaultStore, FilePageStore, PageId, PageStore, RecoveryReport, SnapshotStore,
    StorageError, StorageResult, SweepRng, TornWrite, WalStore,
};

use ccam_core::am::common::write_back;
use ccam_core::am::{AccessMethod, Ccam, CcamBuilder, GridAm, TopoAm};
use ccam_core::check::Issue;
use ccam_core::epoch::{EpochCell, Snapshot, Snapshotable};
use ccam_core::file::NetworkFile;

/// One step of a history. A step with nothing to act on does nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Delete the i-th live node.
    DeleteNode(usize),
    /// Reinsert the i-th deleted node, without its links to nodes that
    /// died since.
    ReinsertNode(usize),
    /// Insert an edge of the given cost from the i-th to the j-th live
    /// node; a duplicate must be refused.
    InsertEdge(usize, usize, u32),
    /// Delete the i-th edge.
    DeleteEdge(usize),
    /// Give the i-th node a payload of n bytes where its record lies
    /// (`am::common::write_back`, the server's `Upsert`).
    Upsert(usize, usize),
    /// Delete the i-th node and reinsert it with n more payload bytes,
    /// in one transaction.
    Grow(usize, usize),
    /// Commit what the writer holds.
    Commit,
    /// Delete the i-th node without committing, then roll back.
    Abort(usize),
    /// Recluster the whole file (`Ccam::reorganize_full`).
    ReorganizeFull,
    /// Cut the power at the store's k-th mutation from now, tearing the
    /// write it dies on or not; the files are then reopened.
    Crash(u64, TornWrite),
    /// Fill the device from the store's k-th mutation from now, with or
    /// without a short write; it is drained once a step fails.
    NoSpace(u64, bool),
    /// Pin the published view and hold it across later steps.
    Pin,
}

impl fmt::Display for Step {
    /// The step as Rust source.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Crash(k, torn) => write!(f, "Step::Crash({k}, TornWrite::{torn:?})"),
            step => write!(f, "Step::{step:?}"),
        }
    }
}

/// The seed a configuration is built with and the steps applied to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    /// Seeds the steps drawn and what the configuration draws (a fault
    /// store's lost writes, say), so a history replays exactly.
    pub seed: u64,
    /// The steps, in order.
    pub steps: Vec<Step>,
}

impl History {
    /// A history of explicit steps.
    pub fn new(seed: u64, steps: Vec<Step>) -> History {
        History { seed, steps }
    }

    /// `len` steps drawn by a [`SweepRng`] seeded with `seed` from `mix`:
    /// weighted steps, each standing for its kind (its arguments are
    /// drawn afresh).
    pub fn generate(seed: u64, len: usize, mix: &[(u64, Step)]) -> History {
        let torn = [TornWrite::None, TornWrite::Partial, TornWrite::Zeroed];
        let mut rng = SweepRng::new(seed);
        let mut draw = || {
            // The kind whose band of the weights holds `pick`.
            let mut pick = rng.gen_range(mix.iter().map(|(w, _)| w).sum());
            let band =
                |(w, _): &&(u64, Step)| pick.checked_sub(*w).map(|rest| pick = rest).is_none();
            let (_, kind) = mix.iter().find(band).expect("pick < total");
            let (i, j) = (rng.next_u64() as usize, rng.next_u64() as usize);
            let k = rng.next_u64();
            match kind {
                Step::DeleteNode(_) => Step::DeleteNode(i),
                Step::ReinsertNode(_) => Step::ReinsertNode(i),
                Step::InsertEdge(..) => Step::InsertEdge(i, j, 1 + (k % 49) as u32),
                Step::DeleteEdge(_) => Step::DeleteEdge(i),
                Step::Upsert(..) => Step::Upsert(i, j % 100),
                Step::Grow(..) => Step::Grow(i, 16 + j % 48),
                Step::Commit => Step::Commit,
                Step::Abort(_) => Step::Abort(i),
                Step::ReorganizeFull => Step::ReorganizeFull,
                Step::Crash(..) => Step::Crash(k % 400, torn[j % 3]),
                Step::NoSpace(..) => Step::NoSpace(k % 400, j % 2 == 0),
                Step::Pin => Step::Pin,
            }
        };
        let steps = (0..len).map(|_| draw()).collect();
        History { seed, steps }
    }

    /// The history as a `#[test]` that runs `call`, a Rust expression
    /// over a `history` variable.
    pub fn to_test(&self, call: &str) -> String {
        let steps: String = self
            .steps
            .iter()
            .map(|s| format!("        {s},\n"))
            .collect();
        format!(
            "#[test]\nfn minimised_history() {{\n    let history = History::new({}, vec![\n{steps}    ]);\n    {call};\n}}\n",
            self.seed
        )
    }
}

/// What a check found wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Records the file and the model disagree on: `(id, the model's,
    /// the file's)`, `None` where a side has no such node.
    Records(Vec<(NodeId, Option<NodeData>, Option<NodeData>)>),
    /// `file().len()` (second) is not the model's node count (first).
    Len(usize, usize),
    /// [`ccam_core::check::verify`] found issues.
    Audit(Vec<Issue>),
    /// CRR or WCRR outside `[0, 1]`.
    Ratio(&'static str, f64),
    /// After a crash or a failed step the file holds neither the last
    /// committed state (first difference) nor that state with the
    /// in-flight step applied (second).
    InBetween(Box<Violation>, Box<Violation>),
    /// A published or pinned view differs from the state committed at
    /// its epoch.
    Snapshot(u64, Box<Violation>),
    /// After a crash or a failed step whose batch never reached the log,
    /// the file holds live pages (second) other than the last commit's
    /// (first): a page the step allocated outlived its rollback, or a
    /// committed one went.
    LivePages(Vec<PageId>, Vec<PageId>),
    /// An operation answered unlike the model, or failed unprovoked.
    Op(String),
}

fn op_error(e: StorageError) -> Violation {
    Violation::Op(format!("unexpected error: {e}"))
}

/// What a run went through.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Power cuts that fired and were recovered from.
    pub crashes: u64,
    /// Steps the full device failed, aborted gracefully.
    pub no_space: u64,
}

/// A record with its edge lists in id order.
fn logical(rec: &NodeData) -> NodeData {
    let mut rec = rec.clone();
    rec.successors.sort_by_key(|e| e.to);
    rec.predecessors.sort_unstable();
    rec
}

/// Checks that `file` holds exactly `model`: every record equal, edge
/// lists in the same order, the index as long as the model, a clean
/// audit, CRR and WCRR in `[0, 1]`.
pub fn check<S: PageStore>(file: &NetworkFile<S>, model: &Network) -> Result<(), Violation> {
    check_lists(file, model, false)
}

/// [`check`], comparing edge lists as sets when `sorted`.
fn check_lists<S: PageStore>(
    file: &NetworkFile<S>,
    model: &Network,
    sorted: bool,
) -> Result<(), Violation> {
    let scan = file.scan_uncounted().map_err(op_error)?;
    let mut stored: Vec<&NodeData> = scan.iter().flat_map(|(_, records)| records).collect();
    stored.sort_unstable_by_key(|rec| rec.id);
    // Both sides in id order: a merge.
    let (mut want, mut got) = (model.nodes().peekable(), stored.into_iter().peekable());
    let mut diffs = Vec::new();
    loop {
        let (w, g) = match (want.peek(), got.peek()) {
            (None, None) => break,
            (Some(w), Some(g)) if w.id == g.id => (want.next(), got.next()),
            (Some(w), g) if g.is_none_or(|g| w.id < g.id) => (want.next(), None),
            _ => (None, got.next()),
        };
        let same = |w: &NodeData, g: &NodeData| w == g || sorted && logical(w) == logical(g);
        if !matches!((w, g), (Some(w), Some(g)) if same(w, g)) {
            let id = w.or(g).expect("one side").id;
            diffs.push((id, w.cloned(), g.cloned()));
        }
    }
    if !diffs.is_empty() {
        return Err(Violation::Records(diffs));
    }
    if file.len() != model.len() {
        return Err(Violation::Len(model.len(), file.len()));
    }
    let audit = ccam_core::check::verify(file).map_err(op_error)?;
    if !audit.is_clean() {
        return Err(Violation::Audit(audit.issues));
    }
    let pages = scan.iter().map(|(page, records)| (*page, &records[..]));
    let page_map = file.page_map().map_err(op_error)?;
    let wcrr = ccam_core::crr::wcrr_of(&page_map, pages, |u, v| (u.0 ^ v.0) % 4);
    for (what, ratio) in [("CRR", audit.crr), ("WCRR", wcrr)] {
        if !(0.0..=1.0).contains(&ratio) {
            return Err(Violation::Ratio(what, ratio));
        }
    }
    Ok(())
}

/// Layout-independent digest of every record `file` holds: ids,
/// coordinates, payloads and edge lists, in id order. Two files digest
/// equal iff they hold the same logical records — what one committed
/// generation pins, and what a follower holds once it has applied its
/// primary's log.
pub fn digest<S: PageStore>(file: &NetworkFile<S>) -> StorageResult<u64> {
    let mut nodes = BTreeMap::new();
    for (_page, records) in file.scan_uncounted()? {
        for node in records {
            nodes.insert(node.id.0, node);
        }
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (id, node) in &nodes {
        id.hash(&mut h);
        node.x.hash(&mut h);
        node.y.hash(&mut h);
        node.payload.hash(&mut h);
        for e in &node.successors {
            e.to.0.hash(&mut h);
            e.cost.hash(&mut h);
        }
        for p in &node.predecessors {
            p.0.hash(&mut h);
        }
    }
    Ok(h.finish())
}

/// A fresh directory `{tag}-{pid}-{n}` under the system temp dir,
/// removed with all it holds when the guard drops — also while a failing
/// test unwinds.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create a temp dir");
        TempDir(dir)
    }

    /// A path in the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The store of the durable configurations: a logged page file over a
/// fault store.
pub type Durable = WalStore<FaultStore<FilePageStore>>;

/// Creates `dir`'s page file (`block`-byte pages) and log, builds `net`
/// in through `builder` and commits.
pub fn create_durable(dir: &TempDir, builder: &CcamBuilder, block: usize, net: &Network) {
    let store = FilePageStore::create(&dir.path("db"), block).expect("create the page file");
    let store = WalStore::create(store, &dir.path("wal")).expect("create the log");
    let am = builder.build_static_on(store, net).expect("build");
    am.file().commit().expect("commit the build");
}

/// Opens the page file and log in `dir` through `builder` over a fault
/// store, every operation committing. With a `seed` a power cut loses a
/// seeded half of the page writes no sync covered, and the log is
/// capped at 8 pages, so a history crosses checkpoints.
pub fn open_durable(
    dir: &Path,
    builder: &CcamBuilder,
    seed: Option<u64>,
) -> (Ccam<Durable>, Arc<FaultController>, RecoveryReport) {
    let store = FilePageStore::open(&dir.join("db")).expect("open the page file");
    let (store, faults) = match seed {
        Some(seed) => FaultStore::with_seed(store, seed),
        None => FaultStore::new(store),
    };
    let (mut store, report) = WalStore::open(store, &dir.join("wal")).expect("recover");
    if seed.is_some() {
        faults.set_volatile_writes(512);
        store.set_max_wal_bytes(Some(8 * store.page_size() as u64));
    }
    let mut am = builder.open_on(store).expect("open");
    am.file_mut().set_auto_commit(true);
    (am, faults, report)
}

impl Driver<Durable> {
    /// Drives the durable files in `dir`, which hold `net`, opened by
    /// [`open_durable`] with `Crash` and `NoSpace` steps armed. After a
    /// crash, or at the end of a run without one, `before_reopen` runs
    /// and the files are reopened the same way.
    pub fn durable(
        dir: TempDir,
        builder: CcamBuilder,
        net: Network,
        seed: Option<u64>,
        mut before_reopen: impl FnMut() + 'static,
    ) -> Self {
        let (am, faults, _) = open_durable(&dir.0, &builder, seed);
        let path = dir.0.clone();
        let mut driver = Driver::new(am, net).with_files(dir);
        driver.faults = Some(faults);
        driver.reopen = Some(Box::new(move || {
            before_reopen();
            let (am, faults, _) = open_durable(&path, &builder, seed);
            (am, faults)
        }));
        driver
    }
}

/// An access method a [`Driver`] can drive.
pub trait Subject<S: PageStore>: AccessMethod<S> {
    /// `reorganize_full`, where the method has it.
    fn reorganize_full(&mut self) -> Option<StorageResult<f64>> {
        None
    }

    /// Rolls every uncommitted change back (a no-op without a log).
    fn roll_back(&mut self) -> StorageResult<()> {
        self.file_mut().abort().map(drop)
    }
}

impl<S: PageStore> Subject<S> for Ccam<S> {
    fn reorganize_full(&mut self) -> Option<StorageResult<f64>> {
        Some(Ccam::reorganize_full(self))
    }

    fn roll_back(&mut self) -> StorageResult<()> {
        self.restore_committed()
    }
}

impl<S: PageStore> Subject<S> for TopoAm<S> {}
impl<S: PageStore> Subject<S> for GridAm<S> {}

/// A deleted node's record and the edges that led into it.
type Dead = (NodeData, Vec<(NodeId, u32)>);

/// The model: the network and the deleted nodes a reinsert draws from.
#[derive(Clone, Default)]
struct State {
    net: Network,
    dead: Vec<Dead>,
}

enum Db<S: PageStore> {
    Plain(Box<dyn Subject<S>>),
    Served(Box<EpochCell<Ccam<S>>>),
}

/// A failed operation: a storage error (a fault may explain it) or an
/// answer the model contradicts.
enum Failure {
    Io(StorageError),
    Wrong(Violation),
}

impl From<StorageError> for Failure {
    fn from(e: StorageError) -> Self {
        Failure::Io(e)
    }
}

fn wrong<T>(what: String) -> Result<T, Failure> {
    Err(Failure::Wrong(Violation::Op(what)))
}

type Reopen<S> = Box<dyn FnMut() -> (Ccam<S>, Arc<FaultController>)>;
type View = Ccam<SnapshotStore>;
type ViewHook<S> = Box<dyn Fn(&View, &NetworkFile<S>, &[NodeId])>;

/// Applies histories to one access method and its model, checking after
/// every step.
pub struct Driver<S: PageStore> {
    db: Option<Db<S>>,
    model: State,
    committed: State,
    /// The store's live pages at the last commit.
    committed_pages: Vec<PageId>,
    /// Served: the network committed at every epoch published.
    epochs: BTreeMap<u64, Network>,
    pins: Vec<Snapshot<View>>,
    faults: Option<Arc<FaultController>>,
    reopen: Option<Reopen<S>>,
    on_view: Option<ViewHook<S>>,
    upsert_by_reinsert: bool,
    outcome: Outcome,
    /// A fault fired: the rest of the history does not run.
    ended: bool,
    files: Option<TempDir>,
}

impl<S: PageStore + 'static> Driver<S> {
    fn with_db(db: Db<S>, net: Network) -> Self {
        let epochs = BTreeMap::from([(0, net.clone())]);
        let model = State {
            net,
            ..State::default()
        };
        let mut driver = Driver {
            db: Some(db),
            committed: model.clone(),
            committed_pages: Vec::new(),
            model,
            epochs,
            pins: Vec::new(),
            faults: None,
            reopen: None,
            on_view: None,
            upsert_by_reinsert: false,
            outcome: Outcome::default(),
            ended: false,
            files: None,
        };
        driver.committed_pages = driver.live_pages();
        driver
    }

    /// Drives `am`, which holds `net`. Under auto-commit every step is a
    /// commit; otherwise `Commit` is.
    pub fn new(am: impl Subject<S> + 'static, net: Network) -> Self {
        Driver::with_db(Db::Plain(Box::new(am)), net)
    }

    /// Drives `am`, which holds `net`, through an [`EpochCell`]: each
    /// step is one write transaction, published as the next epoch when
    /// it succeeds and dropped (a benign abort) when it fails.
    pub fn served(am: Ccam<S>, net: Network) -> StorageResult<Self> {
        let cell = Box::new(EpochCell::new(am)?);
        Ok(Driver::with_db(Db::Served(cell), net))
    }

    /// Owns `dir`, which goes when the driver drops.
    pub fn with_files(mut self, dir: TempDir) -> Self {
        self.files = Some(dir);
        self
    }

    /// Runs `hook` on every view published, with the writer's data file
    /// and [`Driver::ids`].
    pub fn on_view(mut self, hook: impl Fn(&View, &NetworkFile<S>, &[NodeId]) + 'static) -> Self {
        self.on_view = Some(Box::new(hook));
        self
    }

    /// Applies `Upsert` by `Delete()` then `Insert()`. The model's list
    /// order stays the in-place one, so both ways of a history act on
    /// the same nodes and edges; records are then compared with their
    /// edge lists sorted, since a reinsert reorders them.
    pub fn upsert_by_reinsert(mut self) -> Self {
        self.upsert_by_reinsert = true;
        self
    }

    /// The model as of the last step.
    pub fn model(&self) -> &Network {
        &self.model.net
    }

    /// The model as of the last commit.
    pub fn committed(&self) -> &Network {
        &self.committed.net
    }

    /// Every id the committed state has seen, live or deleted.
    pub fn ids(&self) -> Vec<NodeId> {
        let dead = self.committed.dead.iter().map(|(node, _)| node.id);
        self.committed
            .net
            .node_ids()
            .into_iter()
            .chain(dead)
            .collect()
    }

    /// Runs `f` on the writer's data file.
    pub fn with_file<R>(&self, f: impl FnOnce(&NetworkFile<S>) -> R) -> R {
        match self.db.as_ref().expect("open") {
            Db::Plain(am) => f(am.file()),
            Db::Served(cell) => cell.with_writer(|am| f(am.file())).expect("not poisoned"),
        }
    }

    /// Applies the steps of `history` up to the first fault, then
    /// releases the pins (checking each) and, where the files can be
    /// reopened and no crash did, reopens them: they must hold the last
    /// committed state.
    /// A violation comes with the index of the step after which it was
    /// found (the length: after the last).
    pub fn run(&mut self, history: &History) -> Result<Outcome, (usize, Violation)> {
        for (i, step) in history.steps.iter().enumerate() {
            self.step(step).map_err(|v| (i, v))?;
            if self.ended {
                break;
            }
        }
        let end = history.steps.len();
        if end == 0 {
            self.check_now().map_err(|v| (end, v))?;
        }
        self.finish().map_err(|v| (end, v))?;
        Ok(self.outcome)
    }

    /// Applies one step to the access method and the model, then checks.
    pub fn step(&mut self, step: &Step) -> Result<(), Violation> {
        let faults = self.faults.clone();
        match (*step, &faults) {
            (Step::Pin, _) => return self.pin(),
            (Step::Crash(k, torn), Some(faults)) => faults.crash_after(k, torn),
            (Step::NoSpace(k, short), Some(faults)) => faults.fill_after(k, short),
            _ => {}
        }
        if matches!(step, Step::Crash(..) | Step::NoSpace(..)) {
            return Ok(());
        }
        let refused = || faults.as_ref().map_or(0, |f| f.injected_no_space());
        let before = refused();
        let batches = self.batches_logged();
        let served = matches!(self.db, Some(Db::Served(_)));
        let auto = self.with_file(|file| file.auto_commit());
        // Whether the step ends in a commit when it succeeds.
        let commits = served || auto || matches!(step, Step::Commit | Step::Abort(_));
        let mut next = self.model.clone();
        let (committed, by_reinsert) = (&self.committed, self.upsert_by_reinsert);
        let (result, epoch) = match self.db.as_mut().expect("open") {
            Db::Plain(am) => (
                apply(&mut **am, &mut next, committed, step, by_reinsert),
                None,
            ),
            Db::Served(cell) => {
                let mut w = cell.write().map_err(op_error)?;
                // Dropping the guard without a commit aborts.
                match apply(&mut *w, &mut next, committed, step, by_reinsert) {
                    Ok(()) => match w.commit() {
                        Ok(epoch) => (Ok(()), Some(epoch)),
                        Err(e) => (Err(Failure::Io(e)), None),
                    },
                    Err(e) => (Err(e), None),
                }
            }
        };
        let full = refused() > before;
        let dead = faults.as_ref().is_some_and(|f| f.is_dead());
        // Whether the step's batch reached the log, so may have committed.
        let logged = self.batches_logged() != batches;
        match result {
            Err(Failure::Wrong(v)) => Err(v),
            // The step returned before the power went: what it committed
            // must survive the cut.
            Ok(()) if dead => {
                self.model = next;
                if commits {
                    self.commit_point(epoch);
                }
                self.recover(None, false)
            }
            // The power went in flight: the step committed or it did not.
            Err(Failure::Io(_)) if dead => self.recover(commits.then_some(next), logged),
            Err(Failure::Io(_)) if full => {
                self.outcome.no_space += 1;
                self.ended = true;
                // Space freed, the same handle goes on: it retries the
                // step if it was rolled back, or else rewrites a record.
                match self.settle(commits.then_some(next), logged)? {
                    true => self.step(step),
                    false => self.step(&Step::Grow(0, 1)),
                }
            }
            Err(Failure::Io(e)) => Err(Violation::Op(format!("{step} failed unprovoked: {e}"))),
            Ok(()) if full => Err(Violation::Op(format!("{step} hid a refused write"))),
            Ok(()) => {
                self.model = next;
                if commits {
                    self.commit_point(epoch);
                }
                self.check_now()
            }
        }
    }

    /// Batches the writer's log has taken (`None` without a log).
    fn batches_logged(&self) -> Option<u64> {
        self.with_file(|file| file.pool().with_wal(|log| log.info().commits))
    }

    /// The writer's live data pages.
    fn live_pages(&self) -> Vec<PageId> {
        self.with_file(|file| file.pool().with_store(|s| s.live_pages()))
    }

    /// The model is what the file now commits.
    fn commit_point(&mut self, epoch: Option<u64>) {
        self.committed = self.model.clone();
        self.committed_pages = self.live_pages();
        if let Some(epoch) = epoch {
            self.epochs.insert(epoch, self.model.net.clone());
        }
    }

    /// [`check`]: edge lists compared sorted under `upsert_by_reinsert`.
    fn check<T: PageStore>(&self, file: &NetworkFile<T>, net: &Network) -> Result<(), Violation> {
        check_lists(file, net, self.upsert_by_reinsert)
    }

    /// Checks the writer against the model and, when served, the
    /// published view against the last committed state.
    fn check_now(&self) -> Result<(), Violation> {
        self.with_file(|file| self.check(file, &self.model.net))?;
        if let Some(Db::Served(cell)) = &self.db {
            let view = cell.read().map_err(op_error)?;
            let last = self.epochs.keys().next_back();
            if last != Some(&view.epoch()) {
                return Err(Violation::Op(format!(
                    "published {}, not {last:?}",
                    view.epoch()
                )));
            }
            self.check_view(&view)?;
            if let Some(hook) = &self.on_view {
                self.with_file(|file| hook(&view, file, &self.ids()));
            }
        }
        Ok(())
    }

    fn check_view(&self, view: &Snapshot<View>) -> Result<(), Violation> {
        let Some(net) = self.epochs.get(&view.epoch()) else {
            return Err(Violation::Op(format!("unknown epoch {}", view.epoch())));
        };
        self.check(view.file(), net)
            .map_err(|v| Violation::Snapshot(view.epoch(), Box::new(v)))
    }

    /// After a failed step or a power cut: adopts the last committed
    /// state or, where the step may have committed, `next` (that state
    /// with the step applied), whichever the file holds; then drains the
    /// device and commits. Unless the step's batch was `logged`, the file
    /// must also hold the last commit's live pages: a page the step
    /// allocated goes with its rollback. True when it rolled back.
    fn settle(&mut self, next: Option<State>, logged: bool) -> Result<bool, Violation> {
        let rolled_back = self.with_file(|file| self.check(file, &self.committed.net));
        let rolled_back = match (rolled_back, next) {
            (Ok(()), _) => true,
            (Err(a), Some(next)) => {
                if let Err(b) = self.with_file(|file| self.check(file, &next.net)) {
                    return Err(Violation::InBetween(Box::new(a), Box::new(b)));
                }
                self.model = next;
                self.commit_point(None);
                false
            }
            (Err(a), None) => return Err(a),
        };
        if rolled_back {
            self.model = self.committed.clone();
        }
        let live = self.live_pages();
        if !logged && live != self.committed_pages {
            return Err(Violation::LivePages(self.committed_pages.clone(), live));
        }
        if let Some(faults) = &self.faults {
            faults.drain();
        }
        self.with_file(|file| file.commit()).map_err(op_error)?;
        self.committed_pages = self.live_pages();
        Ok(rolled_back)
    }

    /// After a power cut: reopens the files and settles on what they
    /// hold, which must be the last committed state or `next`.
    fn recover(&mut self, next: Option<State>, logged: bool) -> Result<(), Violation> {
        self.outcome.crashes += 1;
        self.ended = true;
        let Some(reopen) = self.reopen.as_mut() else {
            return Err(Violation::Op(
                "the store died and cannot be reopened".into(),
            ));
        };
        let (am, faults) = reopen();
        // Power is gone: nothing flushes, drops or rolls back.
        std::mem::forget(self.db.replace(Db::Plain(Box::new(am))));
        self.faults = Some(faults);
        self.settle(next, logged).map(drop)
    }

    /// Pins the published view and checks it; while more than two are
    /// held, releases the oldest, checking it again.
    fn pin(&mut self) -> Result<(), Violation> {
        let Some(Db::Served(cell)) = &self.db else {
            return Ok(());
        };
        let view = cell.read().map_err(op_error)?;
        self.check_view(&view)?;
        self.pins.push(view);
        while self.pins.len() > 2 {
            let held = self.pins.remove(0);
            self.check_view(&held)?;
        }
        Ok(())
    }

    /// Releases every pin (checking each), and, where the files can be
    /// reopened and no crash has just done so, closes and reopens them:
    /// they must hold the last committed state.
    fn finish(&mut self) -> Result<(), Violation> {
        for held in std::mem::take(&mut self.pins) {
            self.check_view(&held)?;
        }
        if let Some(reopen) = self.reopen.as_mut().filter(|_| self.outcome.crashes == 0) {
            drop(self.db.take());
            let (am, faults) = reopen();
            (self.db, self.faults) = (Some(Db::Plain(Box::new(am))), Some(faults));
            self.with_file(|file| self.check(file, &self.committed.net))?;
        }
        Ok(())
    }
}

fn pick<T: Copy>(items: &[T], i: usize) -> Option<T> {
    (!items.is_empty()).then(|| items[i % items.len()])
}

/// Removes `id` from the model, with the edges that led into it.
fn remove(net: &mut Network, id: NodeId) -> Dead {
    let into = net.edges().filter(|&(_, to, _)| to == id);
    let into = into.map(|(from, _, cost)| (from, cost)).collect();
    (net.remove_node(id).expect("live"), into)
}

/// Adds a record and its edges to the model.
fn add(net: &mut Network, (data, into): &Dead) {
    net.add_node(data.id, data.x, data.y, data.payload.clone());
    for e in &data.successors {
        net.add_edge(data.id, e.to, e.cost);
    }
    for &(p, cost) in into {
        net.add_edge(p, data.id, cost);
    }
    // The record keeps its own predecessor order, as a stored one does.
    net.node_mut(data.id).expect("added").predecessors = data.predecessors.clone();
}

/// Models `Delete()` of `node.id` then `Insert()` of `node` with the
/// same incoming edges: the record as given, and its id last in each
/// neighbour's list, as a reinsert leaves them.
pub fn reinsert(net: &mut Network, node: &NodeData) {
    let (_, into) = remove(net, node.id);
    add(net, &(node.clone(), into));
}

/// `Delete()` of `id`, which must return what the model removed (its
/// edge lists compared sorted when `sorted`; incoming edges as a set).
fn delete<S: PageStore>(
    am: &mut dyn Subject<S>,
    id: NodeId,
    want: &Dead,
    sorted: bool,
) -> Result<(), Failure> {
    let Some(del) = am.delete_node(id)? else {
        return wrong(format!("Delete() of live node {id} found nothing"));
    };
    let (mut got, mut into) = (del.incoming.clone(), want.1.clone());
    got.sort_unstable();
    into.sort_unstable();
    let same = del.data == want.0 || sorted && logical(&del.data) == logical(&want.0);
    if !same || got != into {
        return wrong(format!("Delete() of {id} returned {del:?}, not {want:?}"));
    }
    Ok(())
}

/// Runs `f` as one transaction: under auto-commit, committed after it
/// or rolled back when it fails, as one access-method operation is.
fn txn<S: PageStore>(
    am: &mut dyn Subject<S>,
    f: impl FnOnce(&mut dyn Subject<S>) -> Result<(), Failure>,
) -> Result<(), Failure> {
    let auto = am.file().auto_commit();
    am.file_mut().set_auto_commit(false);
    let r = f(am);
    am.file_mut().set_auto_commit(auto);
    let r = r.and_then(|()| Ok(am.file().maybe_commit()?));
    if r.is_err() && auto {
        let _ = am.roll_back();
    }
    r
}

/// Applies `step` to `next` (the model), then to the access method.
/// `committed` is what an abort returns to.
fn apply<S: PageStore>(
    am: &mut dyn Subject<S>,
    next: &mut State,
    committed: &State,
    step: &Step,
    upsert_by_reinsert: bool,
) -> Result<(), Failure> {
    let ids = next.net.node_ids();
    let edges: Vec<_> = next.net.edges().collect();
    let node = match *step {
        Step::DeleteNode(i) | Step::Upsert(i, _) | Step::Grow(i, _) | Step::Abort(i) => {
            pick(&ids, i)
        }
        _ => None,
    };
    match (*step, node) {
        (Step::DeleteNode(_) | Step::Upsert(..) | Step::Grow(..), None) => Ok(()),
        (Step::DeleteNode(_), Some(id)) => {
            let removed = remove(&mut next.net, id);
            next.dead.push(removed.clone());
            delete(am, id, &removed, upsert_by_reinsert)
        }
        (Step::ReinsertNode(i), _) => {
            if next.dead.is_empty() {
                return Ok(());
            }
            let (mut data, mut into) = next.dead.remove(i % next.dead.len());
            let live = |id: &NodeId| next.net.node(*id).is_some();
            data.successors.retain(|e| live(&e.to));
            data.predecessors.retain(live);
            into.retain(|(p, _)| live(p));
            let dead = (data, into);
            add(&mut next.net, &dead);
            Ok(am.insert_node(&dead.0, &dead.1)?)
        }
        (Step::InsertEdge(a, b, cost), _) => {
            let (Some(from), Some(to)) = (pick(&ids, a), pick(&ids, b)) else {
                return Ok(());
            };
            let duplicate = edges.iter().any(|&(f, t, _)| (f, t) == (from, to));
            if from == to {
                return Ok(()); // road networks have no self-loops
            } else if !duplicate {
                next.net.add_edge(from, to, cost);
            }
            match am.insert_edge(from, to, cost)? == duplicate {
                true => wrong(format!(
                    "Insert() of {from}->{to}: duplicate is {duplicate}"
                )),
                false => Ok(()),
            }
        }
        (Step::DeleteEdge(i), _) => {
            let Some((from, to, cost)) = pick(&edges, i) else {
                return Ok(());
            };
            next.net.remove_edge(from, to);
            match am.delete_edge(from, to)? {
                Some(c) if c == cost => Ok(()),
                got => wrong(format!("Delete() of {from}->{to} gave {got:?}, not {cost}")),
            }
        }
        (Step::Upsert(_, n), Some(id)) => {
            let payload = vec![n as u8; n];
            next.net.node_mut(id).expect("live").payload = payload.clone();
            txn(am, |am| {
                if upsert_by_reinsert {
                    let Some(del) = am.delete_node(id)? else {
                        return wrong(format!("Delete() of live node {id} found nothing"));
                    };
                    let data = NodeData {
                        payload,
                        ..del.data
                    };
                    return Ok(am.insert_node(&data, &del.incoming)?);
                }
                let Some((page, mut rec)) = am.file().find(id)? else {
                    return wrong(format!("Find() of live node {id} found nothing"));
                };
                rec.payload = payload;
                Ok(write_back(am.file_mut(), page, &rec)?)
            })
        }
        (Step::Grow(_, n), Some(id)) => {
            let removed = remove(&mut next.net, id);
            let mut grown = removed.clone();
            if grown.0.payload.len() + n > 200 {
                grown.0.payload.truncate(4);
            }
            grown.0.payload.extend(std::iter::repeat_n(n as u8, n));
            add(&mut next.net, &grown);
            txn(am, |am| {
                delete(am, id, &removed, upsert_by_reinsert)?;
                Ok(am.insert_node(&grown.0, &grown.1)?)
            })
        }
        (Step::Commit, _) => Ok(am.file().commit()?),
        (Step::Abort(_), id) => {
            *next = committed.clone();
            let auto = am.file().auto_commit();
            am.file_mut().set_auto_commit(false);
            let r = id.map_or(Ok(()), |id| am.delete_node(id).map(drop));
            let r = r.and_then(|()| am.roll_back());
            am.file_mut().set_auto_commit(auto);
            Ok(r?)
        }
        (Step::ReorganizeFull, _) => {
            am.reorganize_full().transpose()?;
            Ok(())
        }
        (Step::Crash(..) | Step::NoSpace(..) | Step::Pin, _) => Ok(()),
    }
}

/// Removes steps from `history` while `fails` still holds — one at a
/// time, re-running each candidate, until no step can go.
fn minimise(history: &History, fails: impl Fn(&History) -> bool) -> History {
    let mut smallest = history.clone();
    loop {
        let before = smallest.steps.len();
        let mut i = 0;
        while i < smallest.steps.len() {
            let mut fewer = smallest.clone();
            fewer.steps.remove(i);
            match fails(&fewer) {
                true => smallest = fewer,
                false => i += 1,
            }
        }
        if smallest.steps.len() == before {
            return smallest;
        }
    }
}

/// Runs `history` on a fresh driver from `setup` (given the history's
/// seed). On a violation or a panic, minimises the history and panics
/// with the smallest that still fails, printed as a `#[test]` running
/// `call` — a Rust expression over `history` that reproduces `setup`.
pub fn assert_history<S: PageStore + 'static>(
    call: &str,
    history: &History,
    setup: impl Fn(u64) -> Driver<S>,
) -> Outcome {
    let attempt = |h: &History| match panic::catch_unwind(AssertUnwindSafe(|| setup(h.seed).run(h)))
    {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err((step, violation))) => Err(format!("after step {step}: {violation:?}")),
        Err(p) => Err(p.downcast_ref::<String>().cloned().unwrap_or_else(|| {
            p.downcast_ref::<&str>()
                .map_or("a panic".into(), |s| s.to_string())
        })),
    };
    if let Ok(outcome) = attempt(history) {
        return outcome;
    }
    let smallest = minimise(history, |h| attempt(h).is_err());
    let failure = attempt(&smallest).expect_err("the minimised history fails");
    let (from, to) = (history.steps.len(), smallest.steps.len());
    panic!(
        "{failure}\n\nminimised from {from} steps to {to}:\n\n{}",
        smallest.to_test(call)
    );
}
