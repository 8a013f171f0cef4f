//! Log-shipping replication: one read-write primary streams committed
//! WAL segments to N read-only followers.
//!
//! # Wire protocol
//!
//! Frames ride the same length-prefixed framing as the client protocol
//! ([`crate::protocol::read_frame`] / [`write_frame`]), with a 1-byte
//! kind tag:
//!
//! | kind | name      | direction | body |
//! |------|-----------|-----------|------|
//! | 0    | Hello     | F → P     | `version u8, last_applied_lsn u64, page_size u32` |
//! | 7    | HelloAck  | P → F     | `version u8, page_size u32, client addr (u16 len + UTF-8)` |
//! | 1    | Segment   | P → F     | `next_lsn u64, count u32`, then per record `lsn u64, kind u8, len u32, body` |
//! | 2    | Heartbeat | P → F     | `next_lsn u64` |
//! | 3    | ImageStart| P → F     | `applied_lsn u64, page_size u32, page_count u32` |
//! | 4    | ImagePage | P → F     | `page u32, data (page_size bytes)` |
//! | 5    | ImageEnd  | P → F     | empty |
//! | 6    | Ack       | F → P     | `applied_lsn u64` |
//!
//! Record bodies reuse the WAL's own shapes: `PageImage` is
//! `page u32 + data`, `Alloc`/`Free` are `page u32`, `Commit` and
//! `Checkpoint` are empty.
//!
//! # LSN / segment lifecycle
//!
//! A follower subscribes with its last-applied (primary) LSN. While the
//! primary's retained log tail covers `lsn + 1`, the streamer ships
//! committed records straight from the log ([`ReplFeed::Records`]);
//! shipping is idempotent because the follower's
//! [`ccam_storage::apply_segment`] skips batches at or below its
//! position. When a checkpoint has truncated past the follower
//! ([`ReplFeed::NotRetained`]), the streamer falls back to a full
//! checkpoint-image handoff — every live page at a commit boundary —
//! and resumes log shipping from the image's LSN. Each subscriber holds
//! a [`ccam_storage::RetentionSlot`] while connected, so checkpoint
//! truncation does not outrun a live follower (a stalled one is
//! eventually sacrificed to the retention hard cap and re-seeded by
//! image handoff on reconnect).
//!
//! # Failover state machine (follower side)
//!
//! ```text
//!   Connecting ──handshake ok──► Streaming ──any I/O error──► Disconnected
//!       ▲  └──refused/reset (seeded backoff sleep)──┐              │
//!       └───────────────────────────────────────────┴──────────────┘
//! ```
//!
//! The follower treats *every* read failure — EOF, reset, or a read
//! timeout (no frame and no heartbeat for
//! `FOLLOWER_READ_TIMEOUT`) — as primary death: it keeps serving
//! reads from its last applied state (stale, surfaced via
//! `serve.repl_connected` = 0 and `serve.stale_reads`), and reconnects
//! with the seeded [`Backoff`]. Reconnecting re-sends the last applied
//! LSN, so a segment the primary re-ships after a torn connection is
//! re-applied idempotently.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccam_core::epoch::Snapshotable;
use ccam_storage::sync::lock;
use ccam_storage::{
    LogRecord, MetricsRegistry, PageId, PageStore, ReplFeed, ReplImage, ReplImageState,
    StampedRecord, StorageError,
};

use ccam_core::AccessMethod;

use crate::client::Backoff;
use crate::protocol::{read_frame, write_frame};
use crate::Shared;

/// Replication wire version; bumped on incompatible frame changes.
pub const REPL_VERSION: u8 = 1;

const FRAME_HELLO: u8 = 0;
const FRAME_SEGMENT: u8 = 1;
const FRAME_HEARTBEAT: u8 = 2;
const FRAME_IMAGE_START: u8 = 3;
const FRAME_IMAGE_PAGE: u8 = 4;
const FRAME_IMAGE_END: u8 = 5;
const FRAME_ACK: u8 = 6;
const FRAME_HELLO_ACK: u8 = 7;

/// Max record-payload bytes per Segment frame — stays far under the
/// framing layer's `MAX_FRAME_BYTES` while amortizing syscalls.
const SEGMENT_BYTE_BUDGET: usize = 1 << 20;
/// Primary streamer poll interval for new committed LSNs.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Idle gap after which the primary emits a heartbeat.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(150);
/// Follower read timeout. Heartbeats arrive every ~150 ms on an idle
/// link, so a silent half-second means the primary (or the link) is
/// gone — reconnect rather than risk resuming mid-frame.
const FOLLOWER_READ_TIMEOUT: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated replication frame",
            ));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn encode_hello(last_applied: u64, page_size: u32) -> Vec<u8> {
    let mut out = vec![FRAME_HELLO, REPL_VERSION];
    put_u64(&mut out, last_applied);
    put_u32(&mut out, page_size);
    out
}

fn decode_hello(body: &mut Cur) -> io::Result<(u8, u64, u32)> {
    Ok((body.u8()?, body.u64()?, body.u32()?))
}

fn encode_hello_ack(page_size: u32, client_addr: &str) -> Vec<u8> {
    let mut out = vec![FRAME_HELLO_ACK, REPL_VERSION];
    put_u32(&mut out, page_size);
    let bytes = client_addr.as_bytes();
    let len = u16::try_from(bytes.len()).unwrap_or(0);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&bytes[..usize::from(len)]);
    out
}

fn decode_hello_ack(body: &mut Cur) -> io::Result<(u8, u32, String)> {
    let version = body.u8()?;
    let page_size = body.u32()?;
    let len = usize::from(u16::from_be_bytes(body.take(2)?.try_into().expect("2")));
    let addr = String::from_utf8(body.take(len)?.to_vec())
        .map_err(|_| bad("primary address is not UTF-8"))?;
    Ok((version, page_size, addr))
}

fn record_kind(r: &LogRecord) -> u8 {
    match r {
        LogRecord::PageImage { .. } => 1,
        LogRecord::Alloc { .. } => 2,
        LogRecord::Free { .. } => 3,
        LogRecord::Commit => 4,
        LogRecord::Checkpoint => 5,
    }
}

fn encode_segment(records: &[StampedRecord], next_lsn: u64) -> Vec<u8> {
    let mut out = vec![FRAME_SEGMENT];
    put_u64(&mut out, next_lsn);
    put_u32(
        &mut out,
        u32::try_from(records.len()).expect("segment chunking bounds count"),
    );
    for r in records {
        put_u64(&mut out, r.lsn);
        out.push(record_kind(&r.record));
        let body_at = out.len();
        put_u32(&mut out, 0); // patched below
        match &r.record {
            LogRecord::PageImage { page, data } => {
                put_u32(&mut out, page.0);
                out.extend_from_slice(data);
            }
            LogRecord::Alloc { page } | LogRecord::Free { page } => put_u32(&mut out, page.0),
            LogRecord::Commit | LogRecord::Checkpoint => {}
        }
        let body_len = u32::try_from(out.len() - body_at - 4).expect("record fits a frame");
        out[body_at..body_at + 4].copy_from_slice(&body_len.to_be_bytes());
    }
    out
}

fn decode_segment(body: &mut Cur) -> io::Result<(u64, Vec<StampedRecord>)> {
    let next_lsn = body.u64()?;
    let count = body.u32()?;
    let mut records = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let lsn = body.u64()?;
        let kind = body.u8()?;
        let len = body.u32()? as usize;
        let rec = body.take(len)?;
        let mut c = Cur::new(rec);
        let record = match kind {
            1 => LogRecord::PageImage {
                page: PageId(c.u32()?),
                data: rec[4..].to_vec().into_boxed_slice(),
            },
            2 => LogRecord::Alloc {
                page: PageId(c.u32()?),
            },
            3 => LogRecord::Free {
                page: PageId(c.u32()?),
            },
            4 => LogRecord::Commit,
            5 => LogRecord::Checkpoint,
            _ => return Err(bad("unknown replication record kind")),
        };
        records.push(StampedRecord { lsn, record });
    }
    Ok((next_lsn, records))
}

fn encode_heartbeat(next_lsn: u64) -> Vec<u8> {
    let mut out = vec![FRAME_HEARTBEAT];
    put_u64(&mut out, next_lsn);
    out
}

fn encode_ack(applied: u64) -> Vec<u8> {
    let mut out = vec![FRAME_ACK];
    put_u64(&mut out, applied);
    out
}

fn encode_image_start(img: &ReplImage) -> Vec<u8> {
    let mut out = vec![FRAME_IMAGE_START];
    put_u64(&mut out, img.applied_lsn);
    put_u32(
        &mut out,
        u32::try_from(img.page_size).expect("page size fits u32"),
    );
    put_u32(
        &mut out,
        u32::try_from(img.pages.len()).expect("page count fits u32"),
    );
    out
}

fn encode_image_page(page: PageId, data: &[u8]) -> Vec<u8> {
    let mut out = vec![FRAME_IMAGE_PAGE];
    put_u32(&mut out, page.0);
    out.extend_from_slice(data);
    out
}

// ---------------------------------------------------------------------------
// Shared follower state (lives in `Shared`, read by the serving path)
// ---------------------------------------------------------------------------

/// Follower-side replication state the serving path reads: is the
/// primary link up, how far behind are we, and where should writes be
/// redirected.
pub(crate) struct ReplState {
    /// The primary's *client* address, advertised in `NotPrimary`
    /// responses. Seeded from configuration; refreshed from every
    /// handshake ack (so it tracks a primary restarted elsewhere).
    pub(crate) primary: Mutex<String>,
    /// True while the primary link is streaming.
    pub(crate) connected: AtomicBool,
    /// Last primary LSN applied locally.
    pub(crate) applied_lsn: AtomicU64,
    /// The primary's next LSN as of the last frame received.
    pub(crate) primary_next_lsn: AtomicU64,
    /// When the last frame (segment, heartbeat, or image) arrived.
    pub(crate) last_contact: Mutex<Option<Instant>>,
}

impl ReplState {
    pub(crate) fn new(primary: String) -> ReplState {
        ReplState {
            primary: Mutex::new(primary),
            connected: AtomicBool::new(false),
            applied_lsn: AtomicU64::new(0),
            primary_next_lsn: AtomicU64::new(0),
            last_contact: Mutex::new(None),
        }
    }
}

/// Folds the follower's replication state into gauges:
/// `serve.repl_connected`, `serve.repl_lag_lsn` (committed LSNs known
/// but not yet applied) and `serve.repl_lag_ms` (silence on the primary
/// link; -1 before first contact).
pub(crate) fn fold_repl_gauges(m: &MetricsRegistry, repl: &ReplState) {
    let applied = repl.applied_lsn.load(Ordering::Acquire);
    let next = repl.primary_next_lsn.load(Ordering::Acquire);
    #[allow(clippy::cast_precision_loss)]
    m.set_gauge(
        "serve.repl_lag_lsn",
        next.saturating_sub(1).saturating_sub(applied) as f64,
    );
    let lag_ms = lock(&repl.last_contact)
        .map(|t| t.elapsed().as_secs_f64() * 1000.0)
        .unwrap_or(-1.0);
    m.set_gauge("serve.repl_lag_ms", lag_ms);
    let connected = if repl.connected.load(Ordering::Acquire) {
        1.0
    } else {
        0.0
    };
    m.set_gauge("serve.repl_connected", connected);
}

// ---------------------------------------------------------------------------
// Primary side
// ---------------------------------------------------------------------------

/// The primary's replication listener and its per-subscriber streamer
/// threads. Joined by `ServerHandle::shutdown`.
pub(crate) struct ReplListener {
    pub(crate) local_addr: SocketAddr,
    pub(crate) acceptor: Option<JoinHandle<()>>,
    pub(crate) streamers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Binds the replication port and starts accepting subscribers.
/// `client_addr` is the address advertised to followers for write
/// redirects (the primary's *client* listener).
pub(crate) fn start_listener<S: PageStore + 'static>(
    shared: &Arc<Shared<S>>,
    addr: &str,
    client_addr: String,
) -> io::Result<ReplListener> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let streamers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let shared = Arc::clone(shared);
        let streamers = Arc::clone(&streamers);
        std::thread::Builder::new()
            .name("ccam-repl-acceptor".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    let client_addr = client_addr.clone();
                    let handle = std::thread::Builder::new()
                        .name("ccam-repl-streamer".to_string())
                        .spawn(move || streamer_loop(&shared, stream, &client_addr));
                    if let Ok(h) = handle {
                        lock(&streamers).push(h);
                    }
                }
            })?
    };
    Ok(ReplListener {
        local_addr,
        acceptor: Some(acceptor),
        streamers,
    })
}

/// Drains any complete Ack frames without blocking the streamer: reads
/// run against a 1 ms timeout and partial frames stay buffered across
/// polls, so a timeout mid-frame never desynchronizes the stream.
struct AckReader {
    sock: TcpStream,
    buf: Vec<u8>,
}

impl AckReader {
    /// Returns the highest acked LSN seen this poll, or `Err` when the
    /// subscriber hung up.
    fn poll(&mut self) -> io::Result<Option<u64>> {
        let mut chunk = [0u8; 256];
        loop {
            match self.sock.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        let mut best = None;
        while self.buf.len() >= 4 {
            let len = u32::from_be_bytes(self.buf[..4].try_into().expect("4")) as usize;
            if self.buf.len() < 4 + len {
                break;
            }
            let frame: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
            let mut c = Cur::new(&frame);
            if c.u8()? == FRAME_ACK {
                let lsn = c.u64()?;
                best = Some(best.map_or(lsn, |b: u64| b.max(lsn)));
            }
        }
        Ok(best)
    }
}

/// One subscriber: handshake, then stream segments / heartbeats /
/// image handoffs until the socket dies or the server shuts down.
fn streamer_loop<S: PageStore + 'static>(
    shared: &Arc<Shared<S>>,
    stream: TcpStream,
    client_addr: &str,
) {
    let m = &shared.metrics;
    if run_streamer(shared, stream, client_addr).is_err() {
        m.inc_by("serve.repl.subscriber_errors", 1);
    }
}

fn run_streamer<S: PageStore + 'static>(
    shared: &Arc<Shared<S>>,
    stream: TcpStream,
    client_addr: &str,
) -> io::Result<()> {
    let m = &shared.metrics;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_read_timeout(Some(Duration::from_millis(1)))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    // The handshake is the only blocking read on this side; give it a
    // real timeout so a silent connector cannot pin the thread.
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let hello = {
        let mut reader = BufReader::new(stream.try_clone()?);
        let Some(frame) = read_frame(&mut reader)? else {
            return Ok(()); // connector went away before the handshake
        };
        frame
    };
    stream.set_read_timeout(Some(Duration::from_millis(1)))?;
    let mut c = Cur::new(&hello);
    if c.u8()? != FRAME_HELLO {
        return Err(bad("expected Hello"));
    }
    let (version, last_applied, follower_page_size) = decode_hello(&mut c)?;
    let page_size = shared
        .db
        .with_writer(|am| am.file().pool().page_size())
        .map_err(storage_io)?;
    let page_size_u32 = u32::try_from(page_size).map_err(|_| bad("page size"))?;
    if version != REPL_VERSION || follower_page_size != page_size_u32 {
        m.inc_by("serve.repl.handshake_rejected", 1);
        return Err(bad("incompatible replication handshake"));
    }
    write_frame(&mut writer, &encode_hello_ack(page_size_u32, client_addr))?;
    writer.flush()?;

    // Pin the WAL tail for this subscriber: checkpoints will not
    // truncate past what it still needs (up to the hard cap).
    let retention = shared
        .db
        .with_writer(|am| am.file().pool().with_wal(|log| log.wal_retention()))
        .map_err(storage_io)?;
    let slot = retention.as_ref().map(|r| r.subscribe(last_applied));
    if let Some(r) = &retention {
        #[allow(clippy::cast_precision_loss)]
        m.set_gauge("serve.repl.subscribers", r.subscribers() as f64);
    }
    m.inc_by("serve.repl.subscribed", 1);

    let mut acks = AckReader {
        sock: stream,
        buf: Vec::new(),
    };
    let mut sent_through = last_applied;
    let mut last_send = Instant::now();
    let result = loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break Ok(());
        }
        // Cheap peek first: only walk the log when LSNs advanced.
        let info = match shared
            .db
            .with_writer(|am| am.file().pool().with_wal(|log| log.info()))
        {
            Ok(i) => i,
            Err(_) => {
                // Cell poisoned mid-recovery: hold position, retry.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        let Some(info) = info else {
            break Err(bad("store has no WAL; cannot replicate"));
        };
        if info.next_lsn > sent_through + 1 || sent_through + 1 < info.tail_start_lsn {
            let feed = shared
                .db
                .with_writer(|am| am.file().pool().with_wal(|log| log.repl_feed(sent_through)))
                .map_err(storage_io)?
                .ok_or_else(|| bad("store has no WAL; cannot replicate"))?
                .map_err(storage_io)?;
            match feed {
                ReplFeed::Records { records, next_lsn } => {
                    for chunk in chunk_records(&records) {
                        let last = chunk.last().map(|r| r.lsn).unwrap_or(sent_through);
                        write_frame(&mut writer, &encode_segment(chunk, next_lsn))?;
                        sent_through = sent_through.max(last);
                    }
                    writer.flush()?;
                    sent_through = sent_through.max(next_lsn.saturating_sub(1));
                    m.inc_by("serve.repl.segments_sent", 1);
                    last_send = Instant::now();
                }
                ReplFeed::NotRetained { .. } => {
                    m.inc_by("serve.repl.not_retained", 1);
                    let img = wait_for_image(shared)?;
                    write_frame(&mut writer, &encode_image_start(&img))?;
                    for (page, data) in &img.pages {
                        write_frame(&mut writer, &encode_image_page(*page, data))?;
                    }
                    write_frame(&mut writer, &[FRAME_IMAGE_END])?;
                    writer.flush()?;
                    sent_through = img.applied_lsn;
                    m.inc_by("serve.repl.image_handoffs_sent", 1);
                    last_send = Instant::now();
                }
            }
        } else if last_send.elapsed() >= HEARTBEAT_INTERVAL {
            write_frame(&mut writer, &encode_heartbeat(info.next_lsn))?;
            writer.flush()?;
            m.inc_by("serve.repl.heartbeats_sent", 1);
            last_send = Instant::now();
        }
        match acks.poll() {
            Ok(Some(acked)) => {
                if let Some(s) = &slot {
                    s.advance(acked);
                }
            }
            Ok(None) => {}
            Err(e) => break Err(e),
        }
        std::thread::sleep(POLL_INTERVAL);
    };
    drop(slot); // release the retention floor
    if let Some(r) = &retention {
        #[allow(clippy::cast_precision_loss)]
        m.set_gauge("serve.repl.subscribers", r.subscribers() as f64);
    }
    result
}

/// Splits a record run into sub-`SEGMENT_BYTE_BUDGET` chunks, always at
/// record boundaries (the follower holds back unterminated batches, so
/// splitting mid-batch is safe).
fn chunk_records(records: &[StampedRecord]) -> Vec<&[StampedRecord]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut bytes = 0usize;
    for (i, r) in records.iter().enumerate() {
        let len = match &r.record {
            LogRecord::PageImage { data, .. } => data.len() + 32,
            _ => 32,
        };
        if bytes + len > SEGMENT_BYTE_BUDGET && i > start {
            chunks.push(&records[start..i]);
            start = i;
            bytes = 0;
        }
        bytes += len;
    }
    if start < records.len() || records.is_empty() {
        chunks.push(&records[start..]);
    }
    chunks
}

/// Polls for a checkpoint-image handoff: the store refuses mid-batch
/// (`Busy`), so retry across commit boundaries.
fn wait_for_image<S: PageStore + 'static>(shared: &Arc<Shared<S>>) -> io::Result<ReplImage> {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let state = shared
            .db
            .with_writer(|am| am.file().pool().with_wal(|log| log.repl_image()))
            .map_err(storage_io)?
            .ok_or_else(|| bad("store has no WAL; cannot hand off an image"))?
            .map_err(storage_io)?;
        match state {
            ReplImageState::Ready(img) => return Ok(img),
            ReplImageState::Busy => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn storage_io(e: StorageError) -> io::Error {
    io::Error::other(e.to_string())
}

// ---------------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------------

/// The follower's replication client thread: connect → handshake →
/// apply frames → reconnect on any failure, forever (until shutdown).
pub(crate) fn follower_loop<S: PageStore + 'static>(
    shared: &Arc<Shared<S>>,
    repl: &Arc<ReplState>,
    primary_repl_addr: &str,
    seed: u64,
    lsn_path: Option<&PathBuf>,
) {
    // Seed the applied position from the sidecar hint. Losing it is
    // safe: LSN 0 forces a full catch-up (or image handoff), and a
    // stale value only re-applies batches the apply path skips.
    if let Some(p) = lsn_path {
        if let Ok(s) = std::fs::read_to_string(p) {
            if let Ok(lsn) = s.trim().parse::<u64>() {
                repl.applied_lsn.store(lsn, Ordering::Release);
            }
        }
    }
    let mut backoff = Backoff::new(
        u32::MAX,
        Duration::from_millis(20),
        Duration::from_millis(300),
        seed,
    );
    let mut attempt = 0u32;
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match follower_session(shared, repl, primary_repl_addr, lsn_path) {
            Ok(()) => return, // clean shutdown
            Err(_) => {
                repl.connected.store(false, Ordering::Release);
                shared.metrics.set_gauge("serve.repl_connected", 0.0);
                shared.metrics.inc_by("serve.repl.disconnects", 1);
                std::thread::sleep(backoff.delay(attempt.min(8)));
                attempt = attempt.saturating_add(1);
            }
        }
    }
}

/// One connected session; returns `Ok` only on clean shutdown.
fn follower_session<S: PageStore + 'static>(
    shared: &Arc<Shared<S>>,
    repl: &Arc<ReplState>,
    primary_repl_addr: &str,
    lsn_path: Option<&PathBuf>,
) -> io::Result<()> {
    let m = &shared.metrics;
    let stream = TcpStream::connect(primary_repl_addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(FOLLOWER_READ_TIMEOUT))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let page_size = shared
        .db
        .with_writer(|am| am.file().pool().page_size())
        .map_err(storage_io)?;
    let applied0 = repl.applied_lsn.load(Ordering::Acquire);
    write_frame(
        &mut writer,
        &encode_hello(
            applied0,
            u32::try_from(page_size).map_err(|_| bad("page size"))?,
        ),
    )?;
    writer.flush()?;
    let Some(ack) = read_frame(&mut reader)? else {
        return Err(io::ErrorKind::UnexpectedEof.into());
    };
    let mut c = Cur::new(&ack);
    if c.u8()? != FRAME_HELLO_ACK {
        return Err(bad("expected HelloAck"));
    }
    let (version, primary_page_size, primary_client) = decode_hello_ack(&mut c)?;
    if version != REPL_VERSION || primary_page_size as usize != page_size {
        return Err(bad("incompatible primary"));
    }
    if !primary_client.is_empty() {
        *lock(&repl.primary) = primary_client;
    }
    repl.connected.store(true, Ordering::Release);
    m.set_gauge("serve.repl_connected", 1.0);
    m.inc_by("serve.repl.connects", 1);

    let mut image: Option<(ReplImage, u32)> = None; // (partial image, pages expected)
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return Ok(());
        }
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => return Err(io::ErrorKind::UnexpectedEof.into()),
            // Timeouts count as death: heartbeats should have arrived.
            Err(e) => return Err(e),
        };
        *lock(&repl.last_contact) = Some(Instant::now());
        let mut c = Cur::new(&frame);
        match c.u8()? {
            FRAME_SEGMENT => {
                let (next_lsn, records) = decode_segment(&mut c)?;
                let applied = repl.applied_lsn.load(Ordering::Acquire);
                let apply = apply_records(shared, &records, applied)?;
                if apply.applied_lsn > applied {
                    repl.applied_lsn.store(apply.applied_lsn, Ordering::Release);
                    persist_lsn(lsn_path, apply.applied_lsn);
                }
                repl.primary_next_lsn.store(next_lsn, Ordering::Release);
                m.inc_by("serve.repl.segments", 1);
                m.inc_by("serve.repl.batches_applied", apply.batches);
                m.inc_by("serve.repl.pages_applied", apply.pages);
                write_frame(
                    &mut writer,
                    &encode_ack(repl.applied_lsn.load(Ordering::Acquire)),
                )?;
                writer.flush()?;
            }
            FRAME_HEARTBEAT => {
                let next_lsn = c.u64()?;
                repl.primary_next_lsn.store(next_lsn, Ordering::Release);
                write_frame(
                    &mut writer,
                    &encode_ack(repl.applied_lsn.load(Ordering::Acquire)),
                )?;
                writer.flush()?;
            }
            FRAME_IMAGE_START => {
                let applied_lsn = c.u64()?;
                let img_page_size = c.u32()? as usize;
                let count = c.u32()?;
                if img_page_size != page_size {
                    return Err(bad("image page size mismatch"));
                }
                image = Some((
                    ReplImage {
                        applied_lsn,
                        page_size,
                        pages: Vec::with_capacity(count as usize),
                    },
                    count,
                ));
            }
            FRAME_IMAGE_PAGE => {
                let Some((img, _)) = image.as_mut() else {
                    return Err(bad("ImagePage outside an image handoff"));
                };
                let page = PageId(c.u32()?);
                let data = c.take(page_size)?.to_vec();
                img.pages.push((page, data));
            }
            FRAME_IMAGE_END => {
                let Some((img, expect)) = image.take() else {
                    return Err(bad("ImageEnd outside an image handoff"));
                };
                if img.pages.len() != expect as usize {
                    return Err(bad("image handoff truncated"));
                }
                apply_image(shared, &img)?;
                repl.applied_lsn.store(img.applied_lsn, Ordering::Release);
                repl.primary_next_lsn
                    .store(img.applied_lsn + 1, Ordering::Release);
                persist_lsn(lsn_path, img.applied_lsn);
                m.inc_by("serve.repl.image_handoffs", 1);
                write_frame(&mut writer, &encode_ack(img.applied_lsn))?;
                writer.flush()?;
            }
            _ => return Err(bad("unknown replication frame")),
        }
    }
}

/// Applies one shipped segment inside the epoch writer and publishes
/// the result, so follower reads stay snapshot-consistent: a batch is
/// either fully visible or not at all.
fn apply_records<S: PageStore + 'static>(
    shared: &Arc<Shared<S>>,
    records: &[StampedRecord],
    applied: u64,
) -> io::Result<ccam_storage::SegmentApply> {
    let mut w = shared.db.write().map_err(storage_io)?;
    match w.apply_replicated(records, applied) {
        Ok(apply) => {
            if apply.batches > 0 {
                w.commit().map_err(storage_io)?;
            }
            Ok(apply)
        }
        Err(e) => {
            let _ = w.restore_committed();
            Err(storage_io(e))
        }
    }
}

fn apply_image<S: PageStore + 'static>(shared: &Arc<Shared<S>>, img: &ReplImage) -> io::Result<()> {
    let mut w = shared.db.write().map_err(storage_io)?;
    match w.apply_replicated_image(&img.pages) {
        Ok(_) => {
            w.commit().map_err(storage_io)?;
            Ok(())
        }
        Err(e) => {
            let _ = w.restore_committed();
            Err(storage_io(e))
        }
    }
}

/// Best-effort persistence of the applied-LSN hint; loss or staleness
/// is recovered by idempotent re-apply or image handoff.
fn persist_lsn(path: Option<&PathBuf>, lsn: u64) {
    if let Some(p) = path {
        let _ = std::fs::write(p, format!("{lsn}\n"));
    }
}

/// Wakes a replication acceptor blocked in `accept()` so it observes
/// the shutdown flag.
pub(crate) fn poke(addr: SocketAddr) {
    if let Ok(s) = TcpStream::connect(addr) {
        let _ = s.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_frames_round_trip() {
        let records = vec![
            StampedRecord {
                lsn: 7,
                record: LogRecord::Alloc { page: PageId(3) },
            },
            StampedRecord {
                lsn: 8,
                record: LogRecord::PageImage {
                    page: PageId(3),
                    data: vec![0xAB; 64].into_boxed_slice(),
                },
            },
            StampedRecord {
                lsn: 9,
                record: LogRecord::Free { page: PageId(1) },
            },
            StampedRecord {
                lsn: 10,
                record: LogRecord::Commit,
            },
            StampedRecord {
                lsn: 11,
                record: LogRecord::Checkpoint,
            },
        ];
        let frame = encode_segment(&records, 12);
        let mut c = Cur::new(&frame);
        assert_eq!(c.u8().unwrap(), FRAME_SEGMENT);
        let (next_lsn, decoded) = decode_segment(&mut c).unwrap();
        assert_eq!(next_lsn, 12);
        assert_eq!(decoded, records);
    }

    #[test]
    fn hello_and_ack_round_trip() {
        let hello = encode_hello(41, 4096);
        let mut c = Cur::new(&hello);
        assert_eq!(c.u8().unwrap(), FRAME_HELLO);
        assert_eq!(decode_hello(&mut c).unwrap(), (REPL_VERSION, 41, 4096));

        let ack = encode_hello_ack(4096, "127.0.0.1:9999");
        let mut c = Cur::new(&ack);
        assert_eq!(c.u8().unwrap(), FRAME_HELLO_ACK);
        assert_eq!(
            decode_hello_ack(&mut c).unwrap(),
            (REPL_VERSION, 4096, "127.0.0.1:9999".to_string())
        );
    }

    #[test]
    fn chunking_splits_on_byte_budget_at_record_boundaries() {
        let page = vec![0u8; SEGMENT_BYTE_BUDGET / 2].into_boxed_slice();
        let records: Vec<StampedRecord> = (0..5)
            .map(|i| StampedRecord {
                lsn: i,
                record: LogRecord::PageImage {
                    page: PageId(u32::try_from(i).unwrap()),
                    data: page.clone(),
                },
            })
            .collect();
        let chunks = chunk_records(&records);
        assert!(chunks.len() >= 3, "got {} chunks", chunks.len());
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, records.len());
        // Order is preserved across chunks.
        let flat: Vec<u64> = chunks
            .iter()
            .flat_map(|c| c.iter().map(|r| r.lsn))
            .collect();
        assert_eq!(flat, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let frame = encode_segment(
            &[StampedRecord {
                lsn: 3,
                record: LogRecord::Commit,
            }],
            4,
        );
        for cut in 1..frame.len() {
            let mut c = Cur::new(&frame[1..cut]);
            assert!(decode_segment(&mut c).is_err() || cut == frame.len());
        }
    }
}
