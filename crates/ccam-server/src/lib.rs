#![warn(missing_docs)]
#![deny(clippy::cast_possible_truncation)]

//! The TCP serving layer over the CCAM access method.
//!
//! The paper evaluates CCAM as an access method; this crate turns the
//! library into a system: a server speaking the batched binary
//! [`protocol`] over `std::net`, where at most N batches execute at once
//! on one shared [`Ccam`] read path, and a blocking [`client`] used by
//! the load generator, the CLI and the tests.
//!
//! # Architecture
//!
//! ```text
//!  acceptor ──► reader (1/conn) ── conn idle and a slot free? ──► run the batch here ─┐
//!                  │ no                                                              │
//!                  ▼                                                                 ▼
//!        per-conn bounded queue ──► run queue ──► worker pool (N threads) ──► conn writer
//!        (full? Overloaded now)                   (each waits for a slot)
//!
//!   N slots: at most N batches execute at once, on readers and workers
//!   together; each batch runs on one pinned Snapshot.
//! ```
//!
//! * One **reader thread per connection** decodes frames. When its
//!   connection has no batch queued or running and one of the N
//!   execution slots ([`ServerConfig::workers`]) is free — with no other
//!   connection waiting for one — the reader **runs the batch itself**:
//!   execute, encode, write the response, then read the next frame. An
//!   uncontended batch costs no thread hand-off.
//! * Otherwise the batch goes to that connection's bounded queue
//!   ([`ServerConfig::queue_depth`] batches); the **worker pool** is the
//!   overflow path. A full queue is answered *immediately* with
//!   per-request `Overloaded` — the server never buffers without bound,
//!   and a slow consumer only ever penalizes itself. A connection with
//!   pending batches is scheduled at most once on the global run queue;
//!   a worker waits until a connection is queued *and* a slot is free,
//!   takes **one** batch, runs it, and re-schedules the connection if
//!   more batches are pending. One batch at a time per connection keeps
//!   accepted batches FIFO per connection — a reader never runs a frame
//!   while an earlier one of its connection is queued — and the run
//!   queue shares slots fairly across connections.
//! * Either way a batch runs through one function: pin a [`Snapshot`]
//!   via [`EpochCell::read`] and execute the whole batch against it — so
//!   every response in a frame reflects one committed snapshot, and a
//!   maintenance commit (or a full reorganization) mid-batch neither
//!   stalls the batch nor changes what it observes. `serve.batches_inline`
//!   and `serve.batches_queued` count the path taken (they sum to
//!   `serve.batches`); the `serve.executing_peak` gauge is the most
//!   batches ever seen executing at once, never above N.
//! * **Graceful shutdown** ([`ServerHandle::shutdown`]) stops accepting,
//!   half-closes every connection's read side, joins the readers — each
//!   finishes the batch it is running before it sees EOF, and no new
//!   work can arrive — then lets the workers drain every queued batch
//!   before joining them. In-flight requests complete; their responses
//!   are delivered.
//!
//! # Fault tolerance
//!
//! The serving layer assumes both peers and storage misbehave:
//!
//! * **Slow clients** — the per-connection socket carries a read
//!   timeout ([`ServerConfig::idle_timeout_ms`]), so a client that
//!   stalls mid-frame (slowloris) is reaped instead of pinning its
//!   reader thread and connection slot forever; response writes carry
//!   [`ServerConfig::write_timeout_ms`] and a failed write severs the
//!   connection rather than holding an execution slot.
//! * **Deadlines** — every accepted frame gets a deadline (the client's
//!   requested budget, else [`ServerConfig::deadline_ms`]), counted
//!   from frame acceptance so queueing spends budget too. Expired
//!   requests answer `DeadlineExceeded` without executing; `Route` and
//!   `RangeAggregate` poll the deadline *while* walking so a
//!   pathological request cannot hold a slot unboundedly.
//! * **Panics** — each request executes under `catch_unwind`; a panic
//!   answers `Internal`, increments `serve.worker_panics`, and the
//!   batch continues. A panic elsewhere in running a batch (encoding,
//!   say) is caught around the whole batch, which then answers
//!   `Internal`; the slot is released by a drop guard, and the reader or
//!   worker goes on serving.
//! * **Storage faults** — checksum failures degrade instead of
//!   erroring: reads route around quarantined pages
//!   (`Status::Degraded`, partial bodies for `GetSuccessors`); every
//!   other storage error is answered `Internal` and counted per error
//!   kind under `serve.internal_errors.<kind>`. A *poisoned* cell — a
//!   maintenance writer panicked mid-transaction — fails the whole
//!   batch `Internal` (counted under `serve.internal_errors.poisoned`)
//!   until an operator runs recovery; already-pinned snapshots keep
//!   answering.
//! * **Counter truncation** — wire counters are `u32`; server-side
//!   tallies are saturated through `sat_u32` instead of silently
//!   wrapped, with `serve.counter_saturated` counting each clamp.
//!
//! Snapshot consistency across a writer commit is delegated to
//! [`EpochCell`] — see `ccam_core::epoch` for the MVCC-lite design:
//! readers pin the last committed view (`serve.snapshot_pins` counts
//! pins, `serve.reader_stall_ms` histograms the time to take one) and
//! never block on — nor observe — an in-flight writer.

pub mod client;
pub mod protocol;
pub mod repl;

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccam_core::am::common::write_back;
use ccam_core::epoch::{EpochCell, Snapshot, Snapshotable};
use ccam_core::query::route::evaluate_path_bounded;
use ccam_core::query::route_unit_aggregate_bounded;
use ccam_core::{AccessMethod, Ccam};
use ccam_graph::NodeId;
use ccam_storage::{MetricsRegistry, PageStore, SnapshotStore, StorageError};
use parking_lot::{Condvar, Mutex};

use protocol::{
    decode_request_batch, encode_response_batch, read_frame, write_frame, OpCode, Request,
    Response, Status,
};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// At most this many batches execute at once. A reader runs its own
    /// connection's batch when a slot is free; this many worker threads
    /// run the batches that had to queue, each taking a slot too.
    /// Clamped to at least 1.
    pub workers: usize,
    /// Max *batches* queued per connection before new frames are
    /// rejected with `Overloaded`. Clamped to at least 1.
    pub queue_depth: usize,
    /// Read timeout on each connection's socket, in milliseconds. A
    /// connection that sends nothing — including one stalled *mid-frame*
    /// — for this long is reaped: its reader exits and the socket is
    /// closed, so a slowloris peer cannot pin a thread or a connection
    /// slot. 0 disables reaping.
    pub idle_timeout_ms: u64,
    /// Write timeout on each connection's socket, in milliseconds. A
    /// response write that cannot make progress for this long fails the
    /// write and severs the connection rather than holding an execution
    /// slot on a full peer window. 0 disables.
    pub write_timeout_ms: u64,
    /// Default per-request deadline in milliseconds, applied when a
    /// request frame carries a 0 deadline field. The clock starts at
    /// frame acceptance (queueing spends budget). 0 = no default; such
    /// requests run unbounded.
    pub deadline_ms: u64,
    /// Replication role — see [`ReplRole`]. Defaults to a standalone
    /// primary with no replication listener.
    pub role: ReplRole,
}

/// What this server is in a replication topology.
#[derive(Debug, Clone)]
pub enum ReplRole {
    /// Read-write primary. With `repl_addr` set, a replication listener
    /// is bound there and followers may subscribe (see [`repl`]).
    Primary {
        /// Address for the replication listener (`127.0.0.1:0` picks a
        /// free port); `None` disables replication.
        repl_addr: Option<String>,
    },
    /// Read-only follower replicating from a primary's replication
    /// listener. All v2 read ops answer from locally replayed state;
    /// writes answer `NotPrimary` with the primary's client address
    /// (learned during the replication handshake).
    Replica {
        /// The primary's *replication* address to subscribe to.
        primary: String,
        /// Seed for the reconnect backoff jitter.
        seed: u64,
        /// Where to persist the last-applied primary LSN between
        /// restarts. Optional hint: losing it forces a full catch-up or
        /// image handoff; a stale value only re-applies batches the
        /// apply path skips idempotently.
        lsn_path: Option<PathBuf>,
    },
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            deadline_ms: 0,
            role: ReplRole::Primary { repl_addr: None },
        }
    }
}

fn ms_opt(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// One client connection's server-side state.
struct Conn {
    /// Key into `Shared::readers`, so closing a connection can reap its
    /// reader handle.
    id: u64,
    /// Control clone: `shutdown(Read)` unblocks the reader on drain.
    sock: TcpStream,
    /// Serialized response writes (batch answers and overload
    /// rejections).
    writer: Mutex<BufWriter<TcpStream>>,
    /// First storage error on this connection has been logged; later
    /// ones only count in metrics (a corrupted hot page would otherwise
    /// log once per request).
    storage_error_logged: AtomicBool,
    state: Mutex<ConnState>,
}

/// One accepted request frame awaiting (or undergoing) execution.
struct Batch {
    tag: u32,
    /// Absolute deadline, stamped at frame acceptance. `None` runs
    /// unbounded.
    deadline: Option<Instant>,
    reqs: Vec<Request>,
}

struct ConnState {
    /// Accepted batches awaiting a worker, FIFO. Bounded by
    /// `queue_depth`.
    queue: VecDeque<Batch>,
    /// True while the connection sits on the run queue or a worker is
    /// processing one of its batches — at most one of either, ever.
    scheduled: bool,
    /// The reader thread has exited (client EOF, bad frame, or drain):
    /// whoever finds the queue empty last fully closes the socket.
    reader_gone: bool,
}

/// The scheduler's state, under one lock: who waits for a slot, and how
/// many slots are taken.
struct RunQueue {
    /// Connections with queued batches, each at most once, FIFO.
    conns: VecDeque<Arc<Conn>>,
    /// Batches executing now, on readers and workers together; never
    /// above `Shared::slots`. Workers exit only when it is 0 after the
    /// readers are gone: a batch a worker has popped is invisible to
    /// `conns` until it finishes.
    executing: usize,
    /// High-water mark of `executing` (`serve.executing_peak`).
    peak: usize,
}

impl RunQueue {
    /// Takes one execution slot if fewer than `slots` are taken.
    fn take_slot(&mut self, slots: usize) -> bool {
        if self.executing >= slots {
            return false;
        }
        self.executing += 1;
        self.peak = self.peak.max(self.executing);
        true
    }
}

struct Shared<S: PageStore + 'static> {
    db: Arc<EpochCell<Ccam<S>>>,
    metrics: Arc<MetricsRegistry>,
    /// How many batches may execute at once ([`ServerConfig::workers`]).
    slots: usize,
    queue_depth: usize,
    idle_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    /// Default request budget when a frame's deadline field is 0.
    default_deadline: Option<Duration>,
    shutting_down: AtomicBool,
    /// Set after every reader has been joined: no batch can arrive
    /// anymore, so workers may exit once the run queue is drained.
    readers_done: AtomicBool,
    run_queue: Mutex<RunQueue>,
    /// Workers wait here for a queued connection and a free slot.
    work_cv: Condvar,
    /// Live connections only: whoever fully closes a connection (the
    /// reader when idle, else the worker draining its last batch) also
    /// removes it here and reaps its reader handle — a long-running
    /// server must not accumulate dead sockets.
    conns: Mutex<Vec<Arc<Conn>>>,
    readers: Mutex<Vec<(u64, JoinHandle<()>)>>,
    /// `Some` iff this server is a replica: follower-side replication
    /// state (link health, applied LSN, the primary's client address).
    repl: Option<Arc<repl::ReplState>>,
}

/// Forgets a closed connection: drops its `Conn` (and the two socket
/// clones inside) from `conns` and detaches its reader handle. The
/// reader is at (or past) its exit when this runs, so dropping the
/// handle leaks nothing; a *panicking* reader never reaches this path
/// and stays in `readers` for `shutdown` to join and report.
fn remove_conn<S: PageStore + 'static>(shared: &Shared<S>, conn: &Conn) {
    shared.conns.lock().retain(|c| c.id != conn.id);
    let mut readers = shared.readers.lock();
    if let Some(i) = readers.iter().position(|(id, _)| *id == conn.id) {
        readers.swap_remove(i);
    }
}

/// The server. Construct with [`Server::start`]; the returned
/// [`ServerHandle`] owns the threads.
pub struct Server;

impl Server {
    /// Binds `config.addr` and spawns the acceptor and worker threads
    /// over the shared database. The caller keeps its `Arc` clone of
    /// the [`EpochCell`] — a maintenance writer mutates and commits
    /// through [`EpochCell::write`] while the server keeps answering
    /// from pinned pre-commit snapshots.
    pub fn start<S: PageStore + 'static>(
        db: Arc<EpochCell<Ccam<S>>>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle<S>> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let repl_state = match &config.role {
            ReplRole::Replica { .. } => {
                // The primary's client address is unknown until the
                // first handshake; NotPrimary answers an empty address
                // (and clients keep their configured endpoints) until
                // then.
                Some(Arc::new(repl::ReplState::new(String::new())))
            }
            ReplRole::Primary { .. } => None,
        };
        let shared = Arc::new(Shared {
            db,
            metrics: Arc::new(MetricsRegistry::new()),
            slots: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            idle_timeout: ms_opt(config.idle_timeout_ms),
            write_timeout: ms_opt(config.write_timeout_ms),
            default_deadline: ms_opt(config.deadline_ms),
            shutting_down: AtomicBool::new(false),
            readers_done: AtomicBool::new(false),
            run_queue: Mutex::new(RunQueue {
                conns: VecDeque::new(),
                executing: 0,
                peak: 0,
            }),
            work_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            repl: repl_state,
        });
        let mut repl_listener = None;
        let mut follower = None;
        match &config.role {
            ReplRole::Primary {
                repl_addr: Some(addr),
            } => {
                repl_listener = Some(repl::start_listener(&shared, addr, local_addr.to_string())?);
            }
            ReplRole::Primary { repl_addr: None } => {}
            ReplRole::Replica {
                primary,
                seed,
                lsn_path,
            } => {
                let shared2 = Arc::clone(&shared);
                let repl2 = Arc::clone(shared.repl.as_ref().expect("replica state set above"));
                let primary = primary.clone();
                let seed = *seed;
                let lsn_path = lsn_path.clone();
                follower = Some(
                    std::thread::Builder::new()
                        .name("ccam-repl-follower".to_string())
                        .spawn(move || {
                            repl::follower_loop(
                                &shared2,
                                &repl2,
                                &primary,
                                seed,
                                lsn_path.as_ref(),
                            );
                        })?,
                );
            }
        }
        let workers = (0..shared.slots)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ccam-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ccam-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, &listener))?
        };
        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            workers,
            local_addr,
            repl_listener,
            follower,
        })
    }
}

/// Owns a running server's threads; dropping without
/// [`ServerHandle::shutdown`] aborts connections without draining.
pub struct ServerHandle<S: PageStore + 'static> {
    shared: Arc<Shared<S>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
    repl_listener: Option<repl::ReplListener>,
    follower: Option<JoinHandle<()>>,
}

impl<S: PageStore + 'static> ServerHandle<S> {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The replication listener's bound address, when this server is a
    /// primary with replication enabled.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_listener.as_ref().map(|l| l.local_addr)
    }

    /// The last primary LSN this replica has applied (0 when this
    /// server is not a replica or nothing has been applied yet).
    pub fn applied_lsn(&self) -> u64 {
        self.shared
            .repl
            .as_ref()
            .map_or(0, |r| r.applied_lsn.load(Ordering::Acquire))
    }

    /// True when this server is a replica with a live primary link.
    pub fn repl_connected(&self) -> bool {
        self.shared
            .repl
            .as_ref()
            .is_some_and(|r| r.connected.load(Ordering::Acquire))
    }

    /// The server's metric registry (request counters, latency and
    /// batch-size histograms, overload rejections).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The shared database cell (tests use it to commit writes while
    /// the server is live).
    pub fn db(&self) -> &Arc<EpochCell<Ccam<S>>> {
        &self.shared.db
    }

    /// Number of connections the server currently tracks. Closed
    /// connections are forgotten as they drain, so on a quiesced server
    /// this is the number of clients still connected.
    pub fn active_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Metrics as JSON, with current I/O-counter gauges folded in —
    /// the same document the `Stats` protocol op returns.
    pub fn metrics_json(&self) -> String {
        fold_live_gauges(&self.shared);
        self.shared.metrics.to_json()
    }

    /// Graceful shutdown: stop accepting, drain every accepted batch,
    /// deliver every pending response, join all threads. Errors if any
    /// worker or reader thread panicked.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        let shared = &self.shared;
        shared.shutting_down.store(true, Ordering::SeqCst);
        // Half-close every connection's read side: readers wake with
        // EOF once their current frame (if any) is run or enqueued.
        for conn in shared.conns.lock().iter() {
            let _ = conn.sock.shutdown(Shutdown::Read);
        }
        // The acceptor blocks in accept(); a throwaway connection to
        // ourselves wakes it to observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        let mut panicked = false;
        if let Some(acceptor) = self.acceptor.take() {
            panicked |= acceptor.join().is_err();
        }
        // The acceptor may have passed its shutting_down check and
        // registered one more connection after the half-close pass
        // above. With the acceptor joined the conn set is final — close
        // any straggler so its reader sees EOF instead of blocking
        // forever (which would hang the joins below).
        for conn in shared.conns.lock().iter() {
            let _ = conn.sock.shutdown(Shutdown::Read);
        }
        // Readers joined => every batch that will ever exist has run
        // inline or is queued.
        let readers = std::mem::take(&mut *shared.readers.lock());
        for (_, r) in readers {
            panicked |= r.join().is_err();
        }
        shared.readers_done.store(true, Ordering::SeqCst);
        shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            panicked |= w.join().is_err();
        }
        // Replication threads observe `shutting_down` on their next poll
        // (streamers), read timeout (follower), or accept (poked awake).
        if let Some(mut l) = self.repl_listener.take() {
            repl::poke(l.local_addr);
            if let Some(a) = l.acceptor.take() {
                panicked |= a.join().is_err();
            }
            let streamers = std::mem::take(&mut *l.streamers.lock());
            for s in streamers {
                panicked |= s.join().is_err();
            }
        }
        if let Some(f) = self.follower.take() {
            panicked |= f.join().is_err();
        }
        if panicked {
            return Err(std::io::Error::other("server thread panicked"));
        }
        Ok(())
    }
}

fn acceptor_loop<S: PageStore + 'static>(shared: &Arc<Shared<S>>, listener: &TcpListener) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        // The reader clone gets the idle timeout (slowloris reaping);
        // the writer clone gets the write timeout (slow-consumer
        // backpressure fails the write instead of holding a slot).
        let _ = stream.set_read_timeout(shared.idle_timeout);
        let (Ok(sock), Ok(wsock)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let _ = wsock.set_write_timeout(shared.write_timeout);
        next_id += 1;
        let id = next_id;
        let conn = Arc::new(Conn {
            id,
            sock,
            writer: Mutex::new(BufWriter::new(wsock)),
            storage_error_logged: AtomicBool::new(false),
            state: Mutex::new(ConnState {
                queue: VecDeque::new(),
                scheduled: false,
                reader_gone: false,
            }),
        });
        shared.metrics.inc_by("serve.connections", 1);
        shared.conns.lock().push(Arc::clone(&conn));
        let reader_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("ccam-reader".to_string())
            .spawn(move || reader_loop(&reader_shared, &conn, stream));
        match handle {
            Ok(h) => {
                shared.readers.lock().push((id, h));
                // An instantly-exiting reader may have run its cleanup
                // before the handle was registered above; if the conn is
                // already gone from `conns`, sweep the handle now.
                if !shared.conns.lock().iter().any(|c| c.id == id) {
                    let mut readers = shared.readers.lock();
                    if let Some(i) = readers.iter().position(|(rid, _)| *rid == id) {
                        readers.swap_remove(i);
                    }
                }
            }
            Err(_) => {
                // Could not spawn a reader: nobody will ever service or
                // clean up this connection — forget it (its sockets
                // close with the last Arc here).
                shared.conns.lock().retain(|c| c.id != id);
            }
        }
    }
}

fn reader_loop<S: PageStore + 'static>(
    shared: &Arc<Shared<S>>,
    conn: &Arc<Conn>,
    stream: TcpStream,
) {
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Clean EOF or our own shutdown(Read).
            Ok(None) => return reader_exit(shared, conn),
            // Read timeout: the peer stalled — possibly mid-frame
            // (slowloris). Sever the socket so the peer observes the
            // reap and the connection slot is reclaimed.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                shared.metrics.inc_by("serve.idle_reaped", 1);
                let _ = conn.sock.shutdown(Shutdown::Both);
                return reader_exit(shared, conn);
            }
            // Client reset or other transport failure.
            Err(_) => return reader_exit(shared, conn),
        };
        let accepted_at = Instant::now();
        let (tag, deadline_ms, reqs) = match decode_request_batch(&payload) {
            Ok(b) => b,
            Err(_) => {
                shared.metrics.inc_by("serve.bad_frames", 1);
                respond_flat(shared, conn, 0, Status::BadRequest, 1);
                return reader_exit(shared, conn);
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            respond_flat(shared, conn, tag, Status::ShuttingDown, reqs.len());
            return reader_exit(shared, conn);
        }
        // Client budget wins; 0 falls back to the server default. The
        // clock starts now, so time spent queued counts against it.
        let budget = match deadline_ms {
            0 => shared.default_deadline,
            ms => Some(Duration::from_millis(ms as u64)),
        };
        let batch = Batch {
            tag,
            deadline: budget.map(|b| accepted_at + b),
            reqs,
        };
        if let Some(_slot) = inline_slot(shared, conn) {
            shared.metrics.inc_by("serve.frames_accepted", 1);
            run_batch(shared, conn, &batch, "serve.batches_inline");
            continue;
        }
        let batch_len = batch.reqs.len();
        let enqueued = {
            let mut st = conn.state.lock();
            if st.queue.len() >= shared.queue_depth {
                false
            } else {
                st.queue.push_back(batch);
                shared.metrics.inc_by("serve.frames_accepted", 1);
                if !st.scheduled {
                    st.scheduled = true;
                    // Lock order everywhere: conn.state before run_queue.
                    shared.run_queue.lock().conns.push_back(Arc::clone(conn));
                    shared.work_cv.notify_one();
                }
                true
            }
        };
        if !enqueued {
            // Reject immediately — by design this can overtake pending
            // answers, which is why frames carry tags.
            shared.metrics.inc_by("serve.overloaded", batch_len as u64);
            respond_flat(shared, conn, tag, Status::Overloaded, batch_len);
        }
    }
}

/// Marks the reader as gone; if no batch is queued or in flight, fully
/// closes the socket and forgets the connection here (otherwise the
/// worker that drains the last batch does). Without this the client
/// would never see EOF and the server would accumulate a `Conn` — two
/// socket fds — plus a reader handle per connection until shutdown.
fn reader_exit<S: PageStore + 'static>(shared: &Shared<S>, conn: &Conn) {
    let idle = {
        let mut st = conn.state.lock();
        st.reader_gone = true;
        // Clean up here only when idle; otherwise the worker parking
        // the connection sees `reader_gone` (same lock) and does it.
        st.queue.is_empty() && !st.scheduled
    };
    if idle {
        let _ = conn.sock.shutdown(Shutdown::Both);
        remove_conn(shared, conn);
    }
}

/// Writes a frame of `count` identical error responses (op echo is
/// per-request where known; `Stats` stands in when the frame itself was
/// undecodable and `count` is 1).
fn respond_flat<S: PageStore + 'static>(
    shared: &Shared<S>,
    conn: &Conn,
    tag: u32,
    status: Status,
    count: usize,
) {
    let resps = vec![Response::Error(status, OpCode::Stats); count];
    write_response(shared, conn, &encode_response_batch(tag, &resps));
}

/// Writes one response frame under the connection's writer lock. A
/// failed or timed-out write severs the connection: the peer is gone or
/// too slow to keep, and retrying a partially written frame would
/// desynchronize the stream anyway.
fn write_response<S: PageStore + 'static>(shared: &Shared<S>, conn: &Conn, payload: &[u8]) {
    let mut w = conn.writer.lock();
    if write_frame(&mut *w, payload).is_err() {
        shared.metrics.inc_by("serve.write_errors", 1);
        let _ = conn.sock.shutdown(Shutdown::Both);
    }
}

/// An execution slot taken by a reader for its own connection's batch;
/// dropping it — also on unwind — frees the slot and wakes a worker if a
/// queued connection was waiting for one.
struct Slot<'a, S: PageStore + 'static> {
    shared: &'a Shared<S>,
}

impl<S: PageStore + 'static> Drop for Slot<'_, S> {
    fn drop(&mut self) {
        let mut q = self.shared.run_queue.lock();
        q.executing -= 1;
        let waiting = !q.conns.is_empty();
        drop(q);
        if waiting {
            self.shared.work_cv.notify_one();
        }
    }
}

/// A slot for `conn`'s reader to run its next batch itself, or `None`
/// when the batch must queue: the connection has a batch queued or
/// running (running this one now would overtake it), another connection
/// is already waiting on the run queue (a backlog drains first), or all
/// slots are taken. Only the reader adds to its connection's queue, so
/// the connection cannot gain a batch between the two checks.
fn inline_slot<'a, S: PageStore + 'static>(
    shared: &'a Shared<S>,
    conn: &Conn,
) -> Option<Slot<'a, S>> {
    {
        let st = conn.state.lock();
        if st.scheduled || !st.queue.is_empty() {
            return None;
        }
    }
    let mut q = shared.run_queue.lock();
    (q.conns.is_empty() && q.take_slot(shared.slots)).then(|| Slot { shared })
}

/// Runs one accepted batch to completion — execute, encode, write the
/// response — on whichever thread holds its slot: the connection's
/// reader (`path` = `serve.batches_inline`) or a worker
/// (`serve.batches_queued`). Per-request panics are contained inside
/// [`execute_batch`]; a panic anywhere else in here (encoding, say) is
/// caught so the calling thread keeps serving, counted under
/// `serve.worker_panics`, and the batch answers `Internal`.
fn run_batch<S: PageStore + 'static>(
    shared: &Shared<S>,
    conn: &Conn,
    batch: &Batch,
    path: &'static str,
) {
    shared.metrics.inc_by(path, 1);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let resps = execute_batch(shared, conn, batch);
        #[cfg(test)]
        tests::panic_if_tagged(batch.tag);
        write_response(shared, conn, &encode_response_batch(batch.tag, &resps));
    }));
    if ran.is_err() {
        shared.metrics.inc_by("serve.worker_panics", 1);
        let resps = all_internal(batch);
        write_response(shared, conn, &encode_response_batch(batch.tag, &resps));
    }
}

/// `Internal` for every request of `batch`, each echoing its op.
fn all_internal(batch: &Batch) -> Vec<Response> {
    batch
        .reqs
        .iter()
        .map(|req| Response::Error(Status::Internal, req.op()))
        .collect()
}

/// Drop guard for one popped connection: parks or reschedules it, reaps
/// it when its reader is gone, and frees the worker's slot — *also* on
/// unwind, so nothing can strand the connection in the `scheduled`
/// state, leak a slot, or wedge the workers' exit check.
struct FinishConn<'a, S: PageStore + 'static> {
    shared: &'a Shared<S>,
    conn: Option<Arc<Conn>>,
}

impl<S: PageStore + 'static> Drop for FinishConn<'_, S> {
    fn drop(&mut self) {
        let shared = self.shared;
        let conn = self.conn.take().expect("FinishConn dropped twice");
        // Reschedule or park. The park decision happens under the state
        // lock so a reader enqueueing concurrently either sees
        // `scheduled` still true (we will reschedule) or false (it
        // schedules itself) — a batch can never be stranded.
        let (more, reap) = {
            let mut st = conn.state.lock();
            if st.queue.is_empty() {
                st.scheduled = false;
                (false, st.reader_gone)
            } else {
                (true, false)
            }
        };
        if reap {
            // The reader is gone and we just drained its last batch:
            // this connection is dead — close it and forget it.
            let _ = conn.sock.shutdown(Shutdown::Both);
            remove_conn(shared, &conn);
        }
        // Freeing the slot shares the run-queue lock with the workers'
        // exit check, so a batch being rescheduled is never invisible to
        // that check.
        let mut q = shared.run_queue.lock();
        if more {
            q.conns.push_back(conn);
        }
        q.executing -= 1;
        drop(q);
        if more {
            shared.work_cv.notify_one();
        } else if shared.readers_done.load(Ordering::SeqCst) {
            shared.work_cv.notify_all();
        }
    }
}

fn worker_loop<S: PageStore + 'static>(shared: &Shared<S>) {
    loop {
        let conn = {
            let mut q = shared.run_queue.lock();
            loop {
                if !q.conns.is_empty() && q.take_slot(shared.slots) {
                    break q.conns.pop_front().expect("checked non-empty");
                }
                // Readers are joined, so no slot is a reader's: 0 means
                // no worker holds a batch that could still reschedule.
                if shared.readers_done.load(Ordering::SeqCst)
                    && q.executing == 0
                    && q.conns.is_empty()
                {
                    // Cascade: wake the other idle workers to exit too.
                    shared.work_cv.notify_all();
                    return;
                }
                shared.work_cv.wait(&mut q);
            }
        };
        let finish = FinishConn {
            shared,
            conn: Some(conn),
        };
        let conn = finish.conn.as_deref().expect("conn set above");
        let batch = conn.state.lock().queue.pop_front();
        if let Some(batch) = batch {
            run_batch(shared, conn, &batch, "serve.batches_queued");
        }
        drop(finish); // park/reschedule/reap + free the slot
    }
}

/// Executes one batch on a single pinned snapshot: every response in
/// the frame reflects the same committed generation, and a writer
/// committing (or reorganizing) concurrently neither stalls the batch
/// nor changes what it observes.
///
/// Pinning fails only when the cell is poisoned (a maintenance writer
/// panicked mid-transaction); the whole batch then answers `Internal`,
/// counted per request under `serve.internal_errors.poisoned`.
///
/// Each request is deadline-checked before it runs (a frame that sat
/// queued past its budget answers `DeadlineExceeded` without touching
/// storage) and executes under `catch_unwind` — a panic answers
/// `Internal` for that request and the rest of the batch proceeds.
fn execute_batch<S: PageStore>(shared: &Shared<S>, conn: &Conn, batch: &Batch) -> Vec<Response> {
    let m = &shared.metrics;
    m.inc_by("serve.batches", 1);
    m.inc_by("serve.requests", batch.reqs.len() as u64);
    m.observe("serve.batch_size", batch.reqs.len() as u64);
    let pin_start = Instant::now();
    let am: Snapshot<Ccam<SnapshotStore>> = match shared.db.read() {
        Ok(snap) => snap,
        Err(e) => {
            m.inc_by(internal_metric(e.kind()), batch.reqs.len() as u64);
            if !conn.storage_error_logged.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "ccam-serve: cannot pin snapshot on connection {} ({}): {e}",
                    conn.id,
                    e.kind()
                );
            }
            return all_internal(batch);
        }
    };
    m.inc_by("serve.snapshot_pins", 1);
    // A replica with a dead primary link keeps answering (availability
    // over freshness), but every such read is visibly stale-flagged.
    if let Some(repl) = &shared.repl {
        if !repl.connected.load(Ordering::Acquire) {
            m.inc_by("serve.stale_reads", batch.reqs.len() as u64);
        }
    }
    // Time-to-pin is the only point a reader could ever wait on the
    // write path (the publish lock); the histogram proves it stays ~0
    // even while `reorganize_full` runs.
    m.observe(
        "serve.reader_stall_ms",
        u64::try_from(pin_start.elapsed().as_millis()).unwrap_or(u64::MAX),
    );
    batch
        .reqs
        .iter()
        .map(|req| {
            let op = req.op();
            if let Some(dl) = batch.deadline {
                if Instant::now() >= dl {
                    m.inc_by("serve.deadline_exceeded", 1);
                    return Response::Error(Status::DeadlineExceeded, op);
                }
            }
            let start = Instant::now();
            let resp = catch_unwind(AssertUnwindSafe(|| {
                execute_one(shared, conn, &am, req, batch.deadline)
            }))
            .unwrap_or_else(|_| {
                m.inc_by("serve.worker_panics", 1);
                Response::Error(Status::Internal, op)
            });
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            m.observe(latency_metric(op), us);
            resp
        })
        .collect()
}

fn latency_metric(op: OpCode) -> &'static str {
    match op {
        OpCode::Find => "serve.find.elapsed_us",
        OpCode::GetSuccessors => "serve.get_successors.elapsed_us",
        OpCode::Route => "serve.route.elapsed_us",
        OpCode::RangeAggregate => "serve.range_aggregate.elapsed_us",
        OpCode::Stats => "serve.stats.elapsed_us",
        OpCode::Upsert => "serve.upsert.elapsed_us",
    }
}

/// True when the error should route the read through the degraded path
/// (the page failed verification; everything else still answers).
fn is_checksum(e: &StorageError) -> bool {
    e.kind() == "checksum_mismatch"
}

/// Answers `Internal` for a storage error, counting it per error kind
/// and logging the first occurrence on this connection (later ones
/// would repeat the same page's story once per request).
fn storage_internal<S: PageStore>(
    shared: &Shared<S>,
    conn: &Conn,
    e: &StorageError,
    op: OpCode,
) -> Response {
    shared.metrics.inc_by(internal_metric(e.kind()), 1);
    if !conn.storage_error_logged.swap(true, Ordering::Relaxed) {
        eprintln!(
            "ccam-serve: storage error on connection {} ({}): {e}",
            conn.id,
            e.kind()
        );
    }
    Response::Error(Status::Internal, op)
}

/// Per-kind `Internal` counter names, statically interned so the hot
/// path never allocates a metric label.
fn internal_metric(kind: &str) -> &'static str {
    match kind {
        "io" => "serve.internal_errors.io",
        "invalid_page" => "serve.internal_errors.invalid_page",
        "record_too_large" => "serve.internal_errors.record_too_large",
        "page_full" => "serve.internal_errors.page_full",
        "invalid_slot" => "serve.internal_errors.invalid_slot",
        "corrupt" => "serve.internal_errors.corrupt",
        "checksum_mismatch" => "serve.internal_errors.checksum_mismatch",
        "bad_page_size" => "serve.internal_errors.bad_page_size",
        "poisoned" => "serve.internal_errors.poisoned",
        "no_space" => "serve.internal_errors.no_space",
        _ => "serve.internal_errors.other",
    }
}

/// Clamps a server-side tally to the wire's `u32`, counting each clamp
/// under `serve.counter_saturated` — a saturated counter is visibly
/// pegged at `u32::MAX` instead of silently wrapping to a small lie.
fn sat_u32<T: TryInto<u32>>(m: &MetricsRegistry, v: T) -> u32 {
    v.try_into().unwrap_or_else(|_| {
        m.inc_by("serve.counter_saturated", 1);
        u32::MAX
    })
}

/// `Find` retried through the quarantine-skipping path after a checksum
/// failure: the freshly failed page is quarantined by the attempt, so a
/// record on any *other* page still answers exactly; a record that may
/// live on a skipped page answers `Degraded` rather than guessing
/// `NotFound`.
fn degraded_find<S: PageStore>(
    shared: &Shared<S>,
    am: &Ccam<SnapshotStore>,
    id: NodeId,
) -> Response {
    shared.metrics.inc_by("serve.degraded_reads", 1);
    match am.file().find_degraded(id) {
        Ok(d) => match d.value {
            Some(node) => Response::Record(node),
            None if d.skipped.is_empty() => Response::Error(Status::NotFound, OpCode::Find),
            None => Response::Error(Status::Degraded, OpCode::Find),
        },
        Err(_) => Response::Error(Status::Degraded, OpCode::Find),
    }
}

fn execute_one<S: PageStore>(
    shared: &Shared<S>,
    conn: &Conn,
    am: &Ccam<SnapshotStore>,
    req: &Request,
    deadline: Option<Instant>,
) -> Response {
    let m = &shared.metrics;
    let mut cancel = || deadline.is_some_and(|dl| Instant::now() >= dl);
    match req {
        Request::Find(id) => match am.find(*id) {
            Ok(Some(node)) => Response::Record(node),
            Ok(None) => Response::Error(Status::NotFound, OpCode::Find),
            Err(e) if is_checksum(&e) => degraded_find(shared, am, *id),
            Err(e) => storage_internal(shared, conn, &e, OpCode::Find),
        },
        Request::GetSuccessors(id) => match am.get_successors(*id) {
            Ok(nodes) => Response::Records(nodes),
            Err(e) if is_checksum(&e) => match am.get_successors_degraded(*id) {
                Ok(d) => {
                    shared.metrics.inc_by("serve.degraded_reads", 1);
                    Response::RecordsDegraded {
                        nodes: d.value,
                        skipped_pages: sat_u32(m, d.skipped.len()),
                    }
                }
                Err(e) => storage_internal(shared, conn, &e, OpCode::GetSuccessors),
            },
            Err(e) => storage_internal(shared, conn, &e, OpCode::GetSuccessors),
        },
        Request::Route(nodes) => match evaluate_path_bounded(am, nodes, &mut cancel) {
            Ok(Some(eval)) => Response::RouteEval {
                total_cost: eval.total_cost,
                nodes_visited: sat_u32(m, eval.nodes_visited),
                complete: eval.complete,
            },
            Ok(None) => {
                shared.metrics.inc_by("serve.deadline_exceeded", 1);
                Response::Error(Status::DeadlineExceeded, OpCode::Route)
            }
            Err(e) if is_checksum(&e) => {
                // A partial route cost would be silently wrong; say so.
                shared.metrics.inc_by("serve.degraded_reads", 1);
                Response::Error(Status::Degraded, OpCode::Route)
            }
            Err(e) => storage_internal(shared, conn, &e, OpCode::Route),
        },
        Request::RangeAggregate(arcs) => {
            match route_unit_aggregate_bounded(am, arcs, &mut cancel) {
                Ok(Some(agg)) => Response::Aggregate {
                    arcs_found: sat_u32(m, agg.arcs_found),
                    arcs_missing: sat_u32(m, agg.arcs_missing),
                    total_cost: agg.total_cost,
                    node_payload_sum: agg.node_payload_sum,
                    nodes_retrieved: sat_u32(m, agg.nodes_retrieved),
                },
                Ok(None) => {
                    shared.metrics.inc_by("serve.deadline_exceeded", 1);
                    Response::Error(Status::DeadlineExceeded, OpCode::RangeAggregate)
                }
                Err(e) if is_checksum(&e) => {
                    shared.metrics.inc_by("serve.degraded_reads", 1);
                    Response::Error(Status::Degraded, OpCode::RangeAggregate)
                }
                Err(e) => storage_internal(shared, conn, &e, OpCode::RangeAggregate),
            }
        }
        Request::Upsert { id, payload } => {
            if let Some(repl) = &shared.repl {
                // Replicas do not accept writes; redirect to the primary
                // address learned in the replication handshake (empty
                // until first contact — the client keeps its configured
                // endpoints then).
                m.inc_by("serve.not_primary", 1);
                return Response::NotPrimary {
                    primary: repl.primary.lock().clone(),
                    op: OpCode::Upsert,
                };
            }
            match upsert_node(shared, *id, payload) {
                Ok(Some(epoch)) => Response::Upserted { epoch },
                Ok(None) => Response::Error(Status::NotFound, OpCode::Upsert),
                Err(e) => storage_internal(shared, conn, &e, OpCode::Upsert),
            }
        }
        Request::Stats => {
            fold_live_gauges(shared);
            Response::StatsJson(shared.metrics.to_json())
        }
    }
}

/// Folds what is read live rather than counted — I/O counters, the
/// execution high-water mark, replication state — into the registry as
/// gauges, for `Stats` and [`ServerHandle::metrics_json`].
fn fold_live_gauges<S: PageStore>(shared: &Shared<S>) {
    // Lock-free stats handle, not the snapshot's own counters: views
    // are rebuilt per commit (their counters reset), and the handle
    // stays readable while a long reorganization holds the writer lock
    // or the cell is poisoned.
    if let Some(io) = shared.db.io_stats() {
        fold_io_gauges(&shared.metrics, &io.snapshot(), shared.db.epoch());
    }
    let peak = shared.run_queue.lock().peak;
    shared
        .metrics
        .set_gauge("serve.executing_peak", peak as f64);
    if let Some(repl) = &shared.repl {
        repl::fold_repl_gauges(&shared.metrics, repl);
    }
}

/// Replaces an existing node's payload as one committed transaction
/// that costs what it changes: the record is found, rewritten where it
/// lies ([`write_back`] — in place, or moved with its index entry when
/// the grown record no longer fits its page), committed, and the new
/// state published through the epoch. No edge changes, so no neighbour
/// record is touched and nothing is reorganized. Returns the new epoch,
/// or `None` when the node does not exist. A failure after the first
/// write restores the committed state before propagating — the writer
/// value never stays torn.
fn upsert_node<S: PageStore>(
    shared: &Shared<S>,
    id: NodeId,
    payload: &[u8],
) -> Result<Option<u64>, StorageError> {
    let mut w = shared.db.write()?;
    // Not found: the lookup mutated nothing, so there is nothing to
    // roll back and no epoch to publish.
    let Some((page, mut rec)) = w.file().find(id)? else {
        return Ok(None);
    };
    rec.payload = payload.to_vec();
    let written = write_back(w.file_mut(), page, &rec).and_then(|()| w.file().commit());
    if let Err(e) = written {
        let _ = w.restore_committed();
        return Err(e);
    }
    Ok(Some(w.commit()?))
}

/// Copies the database's cumulative I/O counters into gauges (gauges,
/// not counter increments: snapshots are cumulative, and adding them on
/// every `Stats` call would double-count). Public so the CLI can
/// produce the same document after the handle is consumed by shutdown.
pub fn fold_io_gauges(m: &MetricsRegistry, io: &ccam_storage::IoSnapshot, epoch: u64) {
    m.set_gauge("io.physical_reads", io.physical_reads as f64);
    m.set_gauge("io.physical_writes", io.physical_writes as f64);
    m.set_gauge("io.buffer_hits", io.buffer_hits as f64);
    m.set_gauge("io.evictions", io.evictions as f64);
    m.set_gauge("serve.epoch", epoch as f64);
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{decode_response_batch, encode_request_batch};
    use crate::test_common::wait_until;
    use ccam_core::CcamBuilder;
    use ccam_graph::roadmap::{road_map, RoadMapConfig};
    use ccam_storage::MemPageStore;

    /// A frame with this tag panics after it executes and before its
    /// response is encoded: outside the per-request `catch_unwind`.
    const PANIC_TAG: u32 = 0xDEAD_0001;

    pub(super) fn panic_if_tagged(tag: u32) {
        if tag == PANIC_TAG {
            panic!("injected panic while encoding");
        }
    }

    /// A panic outside the per-request net — on a reader running its own
    /// batch, then on a worker running a queued one — answers the batch
    /// `Internal`, frees the slot, and leaves both paths serving.
    #[test]
    fn a_panic_outside_the_request_net_frees_the_slot() {
        let net = road_map(&RoadMapConfig {
            grid_w: 6,
            grid_h: 6,
            removed_nodes: 1,
            target_segments: 50,
            target_directed: 90,
            cell: 64,
            jitter: 24,
            seed: 5,
        });
        let am = CcamBuilder::new(1024).build_static(&net).unwrap();
        let db = Arc::new(EpochCell::new(am).unwrap());
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handle: ServerHandle<MemPageStore> = Server::start(db, config).unwrap();
        let shared = &*handle.shared;
        let m = handle.metrics();
        let a = net.node_ids()[0];
        let reqs = [Request::Find(a), Request::Stats];
        let internal = vec![
            Response::Error(Status::Internal, OpCode::Find),
            Response::Error(Status::Internal, OpCode::Stats),
        ];
        let mut client = Client::connect(handle.local_addr()).unwrap();
        // An unanswered batch fails the test instead of hanging it.
        client
            .set_io_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let panicking_call = |client: &mut Client| {
            let frame = encode_request_batch(PANIC_TAG, 0, &reqs);
            client.send_raw(&frame).unwrap();
            let payload = client.recv_raw().unwrap().expect("an answer, not EOF");
            decode_response_batch(&payload).unwrap()
        };
        let served = |client: &mut Client| {
            let resps = client.call(&[Request::Find(a)]).unwrap();
            matches!(resps[0], Response::Record(_))
        };

        assert_eq!(panicking_call(&mut client), (PANIC_TAG, internal.clone()));
        assert_eq!(m.counter("serve.batches_inline"), 1);
        // The answer is written before the slot is dropped.
        wait_until(|| shared.run_queue.lock().executing == 0);
        assert!(served(&mut client));

        // Hold the only slot here (once the reader has freed it after
        // its answer), so the next frame must queue; free it once the
        // frame is accepted and a worker runs it.
        wait_until(|| shared.run_queue.lock().take_slot(shared.slots));
        let held = Slot { shared };
        let accepted = m.counter("serve.frames_accepted");
        let caller = std::thread::scope(|s| {
            let caller = s.spawn(|| panicking_call(&mut client));
            wait_until(|| m.counter("serve.frames_accepted") > accepted);
            drop(held);
            caller.join().unwrap()
        });
        assert_eq!(caller, (PANIC_TAG, internal));
        assert_eq!(m.counter("serve.batches_queued"), 1);
        assert_eq!(m.counter("serve.worker_panics"), 2);
        wait_until(|| shared.run_queue.lock().executing == 0);
        assert!(served(&mut client));
        assert_eq!(m.counter("serve.batches_inline"), 3);
        handle.shutdown().unwrap();
    }

    /// The wire's `u32` counters must clamp at the boundary, not wrap:
    /// `u32::MAX` passes through exactly, `u32::MAX + 1` (which `as
    /// u32` would silently turn into 0) pegs at `u32::MAX`, and every
    /// clamp is counted.
    #[test]
    fn sat_u32_boundary_values_clamp_and_count() {
        let m = MetricsRegistry::new();
        assert_eq!(sat_u32(&m, 0u64), 0);
        assert_eq!(sat_u32(&m, u64::from(u32::MAX)), u32::MAX);
        assert_eq!(m.counter("serve.counter_saturated"), 0);
        assert_eq!(sat_u32(&m, u64::from(u32::MAX) + 1), u32::MAX);
        assert_eq!(m.counter("serve.counter_saturated"), 1);
        assert_eq!(sat_u32(&m, u64::MAX), u32::MAX);
        assert_eq!(sat_u32(&m, usize::MAX), u32::MAX);
        assert_eq!(m.counter("serve.counter_saturated"), 3);
    }
}
