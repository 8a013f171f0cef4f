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
//!  acceptor ──► reader (1/conn) ──► slot (1 of N, FIFO tickets) ──► run, answer, free ─┐
//!                  ▲    │ queue_depth batches already waiting?                          │
//!                  │    └──► Overloaded now, frame not accepted                         │
//!                  └────────────────────────── read the next frame ◄─────────────────────┘
//! ```
//!
//! * One **reader thread per connection** is the only execution path. It
//!   decodes a frame, takes a ticket for one of the N execution slots
//!   ([`ServerConfig::workers`]), waits for its turn, runs the batch,
//!   writes the answer, frees the slot and reads the next frame. There
//!   is no worker pool and no server-side batch queue.
//! * **Per-connection FIFO** is structural: a reader is one thread and
//!   handles one frame at a time, so a connection's answers leave in the
//!   order its frames arrived.
//! * **Fairness across connections:** tickets are handed out in arrival
//!   order, and a waiting reader takes a slot only when its ticket is
//!   the next one served. Slots go to waiting batches first come, first
//!   served, and a newcomer never overtakes a batch already waiting.
//! * **Overload is `Overloaded`, never a hang:**
//!   [`ServerConfig::queue_depth`] bounds the batches waiting for a slot
//!   server-wide. A frame that arrives when that many already wait is
//!   answered *immediately* with per-request `Overloaded` and is not
//!   accepted. A connection's own pipelined frames are never shed: they
//!   stay in the kernel socket buffer until its reader gets to them
//!   (TCP backpressure), so a lone client never sees `Overloaded`.
//! * Every batch pins one [`Snapshot`] via [`EpochCell::read`] and runs
//!   whole against it — so every response in a frame reflects one
//!   committed snapshot, and a maintenance commit (or a full
//!   reorganization) mid-batch neither stalls the batch nor changes what
//!   it observes. `serve.batches` counts batches run, `serve.slot_waits`
//!   those that found every slot taken and waited, and the
//!   `serve.executing_peak` gauge is the most batches ever seen executing
//!   at once, never above N.
//! * **Graceful shutdown** ([`ServerHandle::shutdown`]) stops accepting,
//!   half-closes every connection's read side and joins the readers.
//!   Each answers the batch it is running or waiting a slot for — a
//!   waiting reader still gets its slot as the holders finish — and sees
//!   EOF only on its next read. Every accepted batch is answered.
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
//!   from frame acceptance so waiting for a slot spends budget too.
//!   Expired requests answer `DeadlineExceeded` without executing;
//!   `Route` and `RangeAggregate` poll the deadline *while* walking so a
//!   pathological request cannot hold a slot unboundedly.
//! * **Panics** — each request executes under `catch_unwind`; a panic
//!   answers `Internal`, increments `serve.worker_panics`, and the
//!   batch continues. A panic elsewhere in running a batch (encoding,
//!   say) is caught around the whole batch, which then answers
//!   `Internal`; the `Slot` drop guard frees the slot on unwind, and
//!   the reader goes on serving.
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

use std::cell::Cell;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccam_core::am::common::write_back;
use ccam_core::epoch::{EpochCell, Snapshot, Snapshotable};
use ccam_core::query::route::evaluate_path_bounded;
use ccam_core::query::route_unit_aggregate_bounded;
use ccam_core::{AccessMethod, Ccam};
use ccam_graph::NodeId;
use ccam_storage::sync::{lock, wait};
use ccam_storage::{MetricsRegistry, PageStore, SnapshotStore, StorageError};

use protocol::{
    decode_request_batch, encode_response_batch, read_frame, write_frame, OpCode, Request,
    Response, Status,
};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Execution slots: at most this many batches execute at once, each
    /// on its own connection's reader thread. No worker threads are
    /// spawned. Clamped to at least 1.
    pub workers: usize,
    /// Max *batches* waiting for a slot, server-wide. A frame that
    /// arrives when this many already wait is answered `Overloaded` and
    /// not accepted; a connection's later frames wait in its socket
    /// buffer, not here. Clamped to at least 1.
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
    /// frame acceptance (waiting for a slot spends budget). 0 = no
    /// default; such requests run unbounded.
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

/// What `shutdown` needs of a live connection.
struct Conn {
    /// Key into `Shared::readers`, so closing a connection can reap its
    /// reader handle.
    id: u64,
    /// Control clone: `shutdown(Read)` unblocks the reader on drain.
    sock: TcpStream,
}

/// A connection as its reader serves it. Only the reader writes to the
/// socket, so the writer and the log-once flag live on its stack.
struct Peer {
    id: u64,
    /// Response writes: batch answers and rejections.
    writer: BufWriter<TcpStream>,
    /// First storage error on this connection has been logged; later
    /// ones only count in metrics (a corrupted hot page would otherwise
    /// log once per request).
    storage_error_logged: Cell<bool>,
}

/// One accepted request frame.
struct Batch {
    tag: u32,
    /// Absolute deadline, stamped at frame acceptance. `None` runs
    /// unbounded.
    deadline: Option<Instant>,
    reqs: Vec<Request>,
}

/// The execution slots and the line for them, under one lock.
struct Slots {
    /// Batches executing now; never above `Shared::slots`.
    executing: usize,
    /// High-water mark of `executing` (`serve.executing_peak`).
    peak: usize,
    /// The ticket the next accepted batch takes.
    next_ticket: u64,
    /// The ticket of the next batch to get a slot. The tickets from here
    /// up to `next_ticket` are the batches waiting for one.
    now_serving: u64,
}

struct Shared<S: PageStore + 'static> {
    db: Arc<EpochCell<Ccam<S>>>,
    metrics: Arc<MetricsRegistry>,
    /// How many batches may execute at once ([`ServerConfig::workers`]).
    slots: usize,
    /// How many batches may wait for a slot ([`ServerConfig::queue_depth`]).
    queue_depth: usize,
    idle_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    /// Default request budget when a frame's deadline field is 0.
    default_deadline: Option<Duration>,
    shutting_down: AtomicBool,
    slot_state: Mutex<Slots>,
    /// Waiting readers sleep here until a slot frees or the line moves.
    slot_cv: Condvar,
    /// Live connections only: a reader that exits removes its connection
    /// here and reaps its own handle — a long-running server must not
    /// accumulate dead sockets.
    conns: Mutex<Vec<Conn>>,
    readers: Mutex<Vec<(u64, JoinHandle<()>)>>,
    /// `Some` iff this server is a replica: follower-side replication
    /// state (link health, applied LSN, the primary's client address).
    repl: Option<Arc<repl::ReplState>>,
}

/// Forgets a closed connection: drops its `Conn` from `conns` and
/// detaches its reader handle. The reader is at its exit when this
/// runs, so dropping the handle leaks nothing; a *panicking* reader
/// never reaches this path and stays in `readers` for `shutdown` to
/// join and report.
fn remove_conn<S: PageStore + 'static>(shared: &Shared<S>, id: u64) {
    lock(&shared.conns).retain(|c| c.id != id);
    let mut readers = lock(&shared.readers);
    if let Some(i) = readers.iter().position(|(rid, _)| *rid == id) {
        readers.swap_remove(i);
    }
}

/// The server. Construct with [`Server::start`]; the returned
/// [`ServerHandle`] owns the threads.
pub struct Server;

impl Server {
    /// Binds `config.addr` and spawns the acceptor thread over the
    /// shared database; it spawns one reader per connection. The caller
    /// keeps its `Arc` clone of the [`EpochCell`] — a maintenance writer
    /// mutates and commits
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
            slot_state: Mutex::new(Slots {
                executing: 0,
                peak: 0,
                next_ticket: 0,
                now_serving: 0,
            }),
            slot_cv: Condvar::new(),
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
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ccam-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, &listener))?
        };
        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
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
        lock(&self.shared.conns).len()
    }

    /// Metrics as JSON, with current I/O-counter gauges folded in —
    /// the same document the `Stats` protocol op returns.
    pub fn metrics_json(&self) -> String {
        fold_live_gauges(&self.shared);
        self.shared.metrics.to_json()
    }

    /// Graceful shutdown: stop accepting, answer every accepted batch,
    /// join all threads, and fold the live gauges into
    /// [`ServerHandle::metrics`] one last time. Errors if any server
    /// thread panicked.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        let shared = &self.shared;
        shared.shutting_down.store(true, Ordering::SeqCst);
        // Half-close every connection's read side: readers see EOF once
        // they have answered the batch they are running or waiting for.
        for conn in lock(&shared.conns).iter() {
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
        for conn in lock(&shared.conns).iter() {
            let _ = conn.sock.shutdown(Shutdown::Read);
        }
        // Readers joined => every accepted batch has been answered.
        let readers = std::mem::take(&mut *lock(&shared.readers));
        for (_, r) in readers {
            panicked |= r.join().is_err();
        }
        // Replication threads observe `shutting_down` on their next poll
        // (streamers), read timeout (follower), or accept (poked awake).
        if let Some(mut l) = self.repl_listener.take() {
            repl::poke(l.local_addr);
            if let Some(a) = l.acceptor.take() {
                panicked |= a.join().is_err();
            }
            let streamers = std::mem::take(&mut *lock(&l.streamers));
            for s in streamers {
                panicked |= s.join().is_err();
            }
        }
        if let Some(f) = self.follower.take() {
            panicked |= f.join().is_err();
        }
        fold_live_gauges(shared);
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
        // The idle timeout reaps slowloris peers; the write timeout
        // fails a write to a slow consumer instead of holding a slot.
        let _ = stream.set_read_timeout(shared.idle_timeout);
        let _ = stream.set_write_timeout(shared.write_timeout);
        let (Ok(sock), Ok(wsock)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        next_id += 1;
        let id = next_id;
        shared.metrics.inc_by("serve.connections", 1);
        lock(&shared.conns).push(Conn { id, sock });
        let reader_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("ccam-reader".to_string())
            .spawn(move || reader_loop(&reader_shared, id, stream, wsock));
        match handle {
            Ok(h) => {
                lock(&shared.readers).push((id, h));
                // An instantly-exiting reader may have run its cleanup
                // before the handle was registered above; if the conn is
                // already gone from `conns`, sweep the handle now.
                if !lock(&shared.conns).iter().any(|c| c.id == id) {
                    remove_conn(shared, id);
                }
            }
            // Could not spawn a reader: nobody will ever serve or clean
            // up this connection — forget it (its sockets close here).
            Err(_) => remove_conn(shared, id),
        }
    }
}

fn reader_loop<S: PageStore + 'static>(
    shared: &Shared<S>,
    id: u64,
    stream: TcpStream,
    wsock: TcpStream,
) {
    let mut peer = Peer {
        id,
        writer: BufWriter::new(wsock),
        storage_error_logged: Cell::new(false),
    };
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Clean EOF or our own shutdown(Read).
            Ok(None) => break,
            // Read timeout: the peer stalled — possibly mid-frame
            // (slowloris); closing the socket below reaps it.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                shared.metrics.inc_by("serve.idle_reaped", 1);
                break;
            }
            // Client reset or other transport failure.
            Err(_) => break,
        };
        let accepted_at = Instant::now();
        let (tag, deadline_ms, reqs) = match decode_request_batch(&payload) {
            Ok(b) => b,
            Err(_) => {
                shared.metrics.inc_by("serve.bad_frames", 1);
                respond_flat(shared, &mut peer, 0, Status::BadRequest, 1);
                break;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            respond_flat(shared, &mut peer, tag, Status::ShuttingDown, reqs.len());
            break;
        }
        let Some(_slot) = Slot::acquire(shared) else {
            shared.metrics.inc_by("serve.overloaded", reqs.len() as u64);
            respond_flat(shared, &mut peer, tag, Status::Overloaded, reqs.len());
            continue;
        };
        // Client budget wins; 0 falls back to the server default. The
        // clock started at acceptance, so waiting for the slot counted.
        let budget = match deadline_ms {
            0 => shared.default_deadline,
            ms => Some(Duration::from_millis(ms as u64)),
        };
        let batch = Batch {
            tag,
            deadline: budget.map(|b| accepted_at + b),
            reqs,
        };
        run_batch(shared, &mut peer, &batch);
    }
    // Close the socket so the peer sees EOF (or the reap), and forget
    // the connection.
    let _ = reader.get_ref().shutdown(Shutdown::Both);
    remove_conn(shared, id);
}

/// Writes a frame of `count` identical error responses (op echo is
/// per-request where known; `Stats` stands in when the frame itself was
/// undecodable and `count` is 1).
fn respond_flat<S: PageStore + 'static>(
    shared: &Shared<S>,
    peer: &mut Peer,
    tag: u32,
    status: Status,
    count: usize,
) {
    let resps = vec![Response::Error(status, OpCode::Stats); count];
    write_response(shared, peer, &encode_response_batch(tag, &resps));
}

/// Writes one response frame. A failed or timed-out write severs the
/// connection: the peer is gone or too slow to keep, and retrying a
/// partially written frame would desynchronize the stream anyway.
fn write_response<S: PageStore + 'static>(shared: &Shared<S>, peer: &mut Peer, payload: &[u8]) {
    if write_frame(&mut peer.writer, payload).is_err() {
        shared.metrics.inc_by("serve.write_errors", 1);
        let _ = peer.writer.get_ref().shutdown(Shutdown::Both);
    }
}

/// An execution slot held by a reader for one batch; dropping it — also
/// on unwind — frees the slot and wakes the waiting readers.
struct Slot<'a, S: PageStore + 'static> {
    shared: &'a Shared<S>,
}

impl<'a, S: PageStore + 'static> Slot<'a, S> {
    /// Accepts a batch and waits for its slot in arrival order, or
    /// returns `None` — not accepted — when `queue_depth` batches
    /// already wait. The ticket makes the line FIFO: a batch takes a
    /// slot only when every batch accepted before it has taken one.
    fn acquire(shared: &'a Shared<S>) -> Option<Self> {
        let mut s = lock(&shared.slot_state);
        if s.next_ticket - s.now_serving >= shared.queue_depth as u64 {
            return None;
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        shared.metrics.inc_by("serve.frames_accepted", 1);
        let turn = |s: &Slots| s.now_serving == ticket && s.executing < shared.slots;
        if !turn(&s) {
            shared.metrics.inc_by("serve.slot_waits", 1);
            while !turn(&s) {
                s = wait(&shared.slot_cv, s);
            }
        }
        s.now_serving += 1;
        s.executing += 1;
        s.peak = s.peak.max(s.executing);
        // Several slots may have freed at once: the next in line may
        // fit too.
        if s.now_serving != s.next_ticket && s.executing < shared.slots {
            shared.slot_cv.notify_all();
        }
        Some(Slot { shared })
    }
}

impl<S: PageStore + 'static> Drop for Slot<'_, S> {
    fn drop(&mut self) {
        let mut s = lock(&self.shared.slot_state);
        s.executing -= 1;
        let waiting = s.now_serving != s.next_ticket;
        drop(s);
        if waiting {
            self.shared.slot_cv.notify_all();
        }
    }
}

/// Runs one accepted batch to completion on its reader — execute,
/// encode, write the response. Per-request panics are contained inside
/// [`execute_batch`]; a panic anywhere else in here (encoding, say) is
/// caught so the reader keeps serving, counted under
/// `serve.worker_panics`, and the batch answers `Internal`.
fn run_batch<S: PageStore + 'static>(shared: &Shared<S>, peer: &mut Peer, batch: &Batch) {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let resps = execute_batch(shared, peer, batch);
        #[cfg(test)]
        tests::panic_if_tagged(batch.tag);
        write_response(shared, peer, &encode_response_batch(batch.tag, &resps));
    }));
    if ran.is_err() {
        shared.metrics.inc_by("serve.worker_panics", 1);
        let resps = all_internal(batch);
        write_response(shared, peer, &encode_response_batch(batch.tag, &resps));
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

/// Executes one batch on a single pinned snapshot: every response in
/// the frame reflects the same committed generation, and a writer
/// committing (or reorganizing) concurrently neither stalls the batch
/// nor changes what it observes.
///
/// Pinning fails only when the cell is poisoned (a maintenance writer
/// panicked mid-transaction); the whole batch then answers `Internal`,
/// counted per request under `serve.internal_errors.poisoned`.
///
/// Each request is deadline-checked before it runs (a frame that waited
/// for a slot past its budget answers `DeadlineExceeded` without touching
/// storage) and executes under `catch_unwind` — a panic answers
/// `Internal` for that request and the rest of the batch proceeds.
fn execute_batch<S: PageStore>(shared: &Shared<S>, peer: &Peer, batch: &Batch) -> Vec<Response> {
    let m = &shared.metrics;
    m.inc_by("serve.batches", 1);
    m.inc_by("serve.requests", batch.reqs.len() as u64);
    m.observe("serve.batch_size", batch.reqs.len() as u64);
    let pin_start = Instant::now();
    let am: Snapshot<Ccam<SnapshotStore>> = match shared.db.read() {
        Ok(snap) => snap,
        Err(e) => {
            m.inc_by(internal_metric(e.kind()), batch.reqs.len() as u64);
            if !peer.storage_error_logged.replace(true) {
                eprintln!(
                    "ccam-serve: cannot pin snapshot on connection {} ({}): {e}",
                    peer.id,
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
                execute_one(shared, peer, &am, req, batch.deadline)
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
    peer: &Peer,
    e: &StorageError,
    op: OpCode,
) -> Response {
    shared.metrics.inc_by(internal_metric(e.kind()), 1);
    if !peer.storage_error_logged.replace(true) {
        eprintln!(
            "ccam-serve: storage error on connection {} ({}): {e}",
            peer.id,
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
    peer: &Peer,
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
            Err(e) => storage_internal(shared, peer, &e, OpCode::Find),
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
                Err(e) => storage_internal(shared, peer, &e, OpCode::GetSuccessors),
            },
            Err(e) => storage_internal(shared, peer, &e, OpCode::GetSuccessors),
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
            Err(e) => storage_internal(shared, peer, &e, OpCode::Route),
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
                Err(e) => storage_internal(shared, peer, &e, OpCode::RangeAggregate),
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
                    primary: lock(&repl.primary).clone(),
                    op: OpCode::Upsert,
                };
            }
            match upsert_node(shared, *id, payload) {
                Ok(Some(epoch)) => Response::Upserted { epoch },
                Ok(None) => Response::Error(Status::NotFound, OpCode::Upsert),
                Err(e) => storage_internal(shared, peer, &e, OpCode::Upsert),
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
    let peak = lock(&shared.slot_state).peak;
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
    use crate::test_common::{wait_until, wal_mem, WalMem};
    use ccam_core::CcamBuilder;
    use ccam_graph::roadmap::{road_map, RoadMapConfig};

    /// A frame with this tag panics after it executes and before its
    /// response is encoded: outside the per-request `catch_unwind`.
    const PANIC_TAG: u32 = 0xDEAD_0001;

    pub(super) fn panic_if_tagged(tag: u32) {
        if tag == PANIC_TAG {
            panic!("injected panic while encoding");
        }
    }

    /// A panic outside the per-request net — on a batch that found its
    /// slot free, then on one that waited for it — answers the batch
    /// `Internal`, frees the slot, and leaves the reader serving.
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
        let am = CcamBuilder::new(1024)
            .build_static_on(wal_mem(1024), &net)
            .unwrap();
        let db = Arc::new(EpochCell::new(am).unwrap());
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handle: ServerHandle<WalMem> = Server::start(db, config).unwrap();
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
        assert_eq!(m.counter("serve.worker_panics"), 1);
        // The answer is written before the slot is dropped.
        wait_until(|| lock(&shared.slot_state).executing == 0);
        assert!(served(&mut client));
        assert_eq!(m.counter("serve.slot_waits"), 0);

        // Hold the only slot here (once the reader has freed it after
        // its answer), so the next frame must wait; free it once the
        // reader is waiting.
        wait_until(|| lock(&shared.slot_state).executing == 0);
        let held = Slot::acquire(shared).expect("nobody waits");
        let caller = std::thread::scope(|s| {
            let caller = s.spawn(|| panicking_call(&mut client));
            wait_until(|| m.counter("serve.slot_waits") == 1);
            drop(held);
            caller.join().unwrap()
        });
        assert_eq!(caller, (PANIC_TAG, internal));
        assert_eq!(m.counter("serve.worker_panics"), 2);
        wait_until(|| lock(&shared.slot_state).executing == 0);
        assert!(served(&mut client));
        assert_eq!(m.counter("serve.batches"), 4);
        assert_eq!(m.counter("serve.slot_waits"), 1);
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
