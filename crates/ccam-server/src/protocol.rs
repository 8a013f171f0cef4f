//! The wire protocol spoken by `ccam serve`.
//!
//! # Frame layout
//!
//! Every message — in either direction — is one *frame*:
//!
//! ```text
//! +----------------+---------------------------------------+
//! | u32 LE length  | payload (exactly `length` bytes)      |
//! +----------------+---------------------------------------+
//! ```
//!
//! A payload begins with a version byte ([`PROTOCOL_VERSION`]) and a
//! `u32 LE` client-chosen *tag*. Request payloads then carry a `u32 LE`
//! *deadline* in milliseconds (0 = use the server's default budget; the
//! clock starts when the server accepts the frame, so waiting for an
//! execution slot counts against it). Both directions end the header
//! with a `u16 LE` message count, followed by that many requests (client
//! → server) or responses (server → client). The server echoes the tag,
//! and clients match response frames to request frames by tag. The
//! server answers a connection's frames — `Overloaded` rejections
//! included — in the order they arrived, but a client must not rely on
//! that: the tag is the contract. Within a frame responses are
//! positional — the *i*-th response answers the *i*-th request, and a
//! response frame always carries exactly as many responses as the
//! request frame carried requests. Batching N requests per frame
//! amortizes both syscalls and — because the server executes a whole
//! batch under one buffer-pool-warm read guard — page faults.
//!
//! # Request encoding
//!
//! Each request is an op-code byte followed by an op-specific body
//! (all integers little-endian):
//!
//! | op | code | body |
//! |----|------|------|
//! | `Find` | 1 | node id `u64` |
//! | `GetSuccessors` | 2 | node id `u64` |
//! | `Route` | 3 | `u16` node count, then that many `u64` node ids |
//! | `RangeAggregate` | 4 | `u16` arc count, then that many (`u64` from, `u64` to) pairs |
//! | `Stats` | 5 | empty |
//! | `Upsert` | 6 | node id `u64`, `u16` payload length, payload bytes |
//!
//! # Response encoding
//!
//! Each response is a status byte, the echoed op-code byte, and — only
//! when the status is `Ok` — an op-shaped body:
//!
//! | status | code | meaning |
//! |--------|------|---------|
//! | `Ok` | 0 | body follows |
//! | `NotFound` | 1 | `Find` on an absent node id (no body) |
//! | `BadRequest` | 2 | frame or request undecodable / over limits |
//! | `Overloaded` | 3 | connection queue full — retry later |
//! | `ShuttingDown` | 4 | server is draining; connection will close |
//! | `Internal` | 5 | storage error while executing |
//! | `DeadlineExceeded` | 6 | request budget ran out before/while executing |
//! | `Degraded` | 7 | answered around quarantined pages (partial body for `GetSuccessors`) |
//! | `NotPrimary` | 8 | write sent to a read-only replica; body carries the primary's address |
//!
//! `Ok` bodies: `Find` → one length-prefixed (`u32`) node record in the
//! [`ccam_graph::record`] layout; `GetSuccessors` → `u16` count of such
//! records; `Route` → `u64` total cost, `u32` nodes visited, `u8`
//! complete; `RangeAggregate` → `u32` arcs found, `u32` arcs missing,
//! `u64` total cost, `u64` payload sum, `u32` nodes retrieved; `Stats`
//! → `u32`-length-prefixed UTF-8 JSON from the server's
//! `MetricsRegistry`; `Upsert` → `u64` commit epoch the write was
//! published at.
//!
//! `Degraded` is body-less for every op except `GetSuccessors`, where it
//! carries a partial result: `u32` count of pages skipped as
//! quarantined, then the `GetSuccessors` body shape (`u16` record
//! count + records) — the successors that were still reachable.
//!
//! `NotPrimary` carries a `u16`-length-prefixed UTF-8 address of the
//! current primary (possibly empty when unknown), so a client holding a
//! replica connection can redirect its writes.
//!
//! # Versioning
//!
//! The version byte is checked on every frame; a mismatch yields a
//! single `BadRequest` response and the connection is closed. Future
//! revisions bump [`PROTOCOL_VERSION`]; op and status codes are
//! append-only. (v1 → v2 added the request deadline field and the
//! `DeadlineExceeded`/`Degraded` statuses; the `Upsert` op and
//! `NotPrimary` status were appended within v2 — older clients never
//! send the former and can treat the latter as a generic error.)

use std::io::{self, Read, Write};

use ccam_graph::record::RecordCodec;
use ccam_graph::{NodeData, NodeId};

/// Version byte carried by every frame payload.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on one frame's payload, both directions. Keeps a
/// malformed or hostile length prefix from ballooning into an
/// unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Upper bound on requests per frame (the count field is `u16`, this
/// tightens it: queue accounting is per batch, so enormous batches
/// would dodge backpressure).
pub const MAX_BATCH: usize = 4096;

/// Per-request outcome code. `Ok` is followed by an op-shaped body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Executed; body follows.
    Ok = 0,
    /// `Find` on a node id not in the database.
    NotFound = 1,
    /// Undecodable or over-limit frame/request.
    BadRequest = 2,
    /// Connection queue full; client should back off and retry.
    Overloaded = 3,
    /// Server is draining for shutdown.
    ShuttingDown = 4,
    /// Storage-layer error during execution.
    Internal = 5,
    /// The request's time budget ran out before it finished executing.
    DeadlineExceeded = 6,
    /// Executed around quarantined pages: the answer may be partial
    /// (`GetSuccessors` carries what was reachable) or withheld because
    /// the data needed lives on an unreadable page.
    Degraded = 7,
    /// A write (or other primary-only op) reached a read-only replica;
    /// the body names the primary to redirect to.
    NotPrimary = 8,
}

impl Status {
    fn from_byte(b: u8) -> Result<Status, ProtoError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::BadRequest,
            3 => Status::Overloaded,
            4 => Status::ShuttingDown,
            5 => Status::Internal,
            6 => Status::DeadlineExceeded,
            7 => Status::Degraded,
            8 => Status::NotPrimary,
            other => return Err(ProtoError::BadStatus(other)),
        })
    }
}

/// Op-code byte identifying each request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Point lookup by node id.
    Find = 1,
    /// All successor records of a node.
    GetSuccessors = 2,
    /// Route evaluation over a node-id sequence.
    Route = 3,
    /// Route-unit aggregate over directed arcs.
    RangeAggregate = 4,
    /// Server metrics snapshot as JSON.
    Stats = 5,
    /// Replace (or report missing) one node's payload — the protocol's
    /// write path, accepted only by the primary. The record is rewritten
    /// where it lies: no edge changes, so no other record does.
    Upsert = 6,
}

impl OpCode {
    fn from_byte(b: u8) -> Result<OpCode, ProtoError> {
        Ok(match b {
            1 => OpCode::Find,
            2 => OpCode::GetSuccessors,
            3 => OpCode::Route,
            4 => OpCode::RangeAggregate,
            5 => OpCode::Stats,
            6 => OpCode::Upsert,
            other => return Err(ProtoError::BadOpCode(other)),
        })
    }

    /// Metric-label name of this op.
    pub fn name(self) -> &'static str {
        match self {
            OpCode::Find => "find",
            OpCode::GetSuccessors => "get_successors",
            OpCode::Route => "route",
            OpCode::RangeAggregate => "range_aggregate",
            OpCode::Stats => "stats",
            OpCode::Upsert => "upsert",
        }
    }
}

/// One query inside a batch frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `Find()`: the record of one node.
    Find(NodeId),
    /// `Get-successors()`: all successor records of one node.
    GetSuccessors(NodeId),
    /// Evaluate a route given as a node-id sequence.
    Route(Vec<NodeId>),
    /// Aggregate a route-unit given as directed arcs.
    RangeAggregate(Vec<(NodeId, NodeId)>),
    /// Snapshot the server's metrics registry as JSON.
    Stats,
    /// Replace the payload of an existing node. Its edges are preserved
    /// and so is its page, unless the grown record no longer fits there.
    /// Answered `NotFound` when the node is absent and `NotPrimary` by a
    /// replica.
    Upsert {
        /// The node to update.
        id: NodeId,
        /// The replacement payload bytes.
        payload: Vec<u8>,
    },
}

impl Request {
    /// The op code this request encodes as.
    pub fn op(&self) -> OpCode {
        match self {
            Request::Find(_) => OpCode::Find,
            Request::GetSuccessors(_) => OpCode::GetSuccessors,
            Request::Route(_) => OpCode::Route,
            Request::RangeAggregate(_) => OpCode::RangeAggregate,
            Request::Stats => OpCode::Stats,
            Request::Upsert { .. } => OpCode::Upsert,
        }
    }
}

/// One answer inside a batch frame, positionally matched to its request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `Find` hit.
    Record(NodeData),
    /// `GetSuccessors` result (possibly empty).
    Records(Vec<NodeData>),
    /// `GetSuccessors` answered degraded: the successors still reachable
    /// plus the number of quarantined pages skipped to produce them.
    /// Carried with [`Status::Degraded`] on the wire.
    RecordsDegraded {
        /// Successor records that were reachable.
        nodes: Vec<NodeData>,
        /// Quarantined pages skipped while collecting them.
        skipped_pages: u32,
    },
    /// `Route` result.
    RouteEval {
        /// Sum of traversed edge costs.
        total_cost: u64,
        /// Nodes actually visited.
        nodes_visited: u32,
        /// True when every edge existed.
        complete: bool,
    },
    /// `RangeAggregate` result.
    Aggregate {
        /// Arcs found in the stored network.
        arcs_found: u32,
        /// Arcs referencing missing nodes/edges.
        arcs_missing: u32,
        /// Sum of edge costs over found arcs.
        total_cost: u64,
        /// Payload-byte sum over distinct nodes touched.
        node_payload_sum: u64,
        /// Distinct nodes retrieved.
        nodes_retrieved: u32,
    },
    /// `Stats` result: the metrics registry as JSON.
    StatsJson(String),
    /// `Upsert` applied and published.
    Upserted {
        /// Commit epoch the write became visible at.
        epoch: u64,
    },
    /// The request needed the primary but reached a replica; `primary`
    /// is the address to redirect to (empty when unknown). Carried with
    /// [`Status::NotPrimary`] on the wire.
    NotPrimary {
        /// Current primary address as the replica knows it.
        primary: String,
        /// The echoed op.
        op: OpCode,
    },
    /// Non-`Ok` outcome for the echoed op.
    Error(Status, OpCode),
}

/// Decoding failure — the peer sent something outside the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload shorter than its own structure claims.
    Truncated,
    /// Version byte differs from [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Unknown op-code byte.
    BadOpCode(u8),
    /// Unknown status byte.
    BadStatus(u8),
    /// Batch count exceeds [`MAX_BATCH`].
    BatchTooLarge(usize),
    /// Trailing bytes after the declared message count.
    TrailingBytes,
    /// Embedded string is not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "payload truncated"),
            ProtoError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTOCOL_VERSION})")
            }
            ProtoError::BadOpCode(b) => write!(f, "unknown op code {b}"),
            ProtoError::BadStatus(b) => write!(f, "unknown status {b}"),
            ProtoError::BatchTooLarge(n) => write!(f, "batch of {n} exceeds {MAX_BATCH}"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after batch"),
            ProtoError::BadUtf8 => write!(f, "embedded string is not UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// frame I/O
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES);
    let len = u32::try_from(payload.len()).expect("frame length exceeds u32");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. Returns `None` on clean EOF at a frame boundary;
/// EOF mid-frame and oversized lengths are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------------

/// Appends one length-prefixed encoded record. An encoded record is a
/// few dozen bytes plus the payload (itself page-bounded), so the `u32`
/// length prefix always fits.
fn put_record(out: &mut Vec<u8>, node: &NodeData) {
    let rec = RecordCodec::Paper.encode(node);
    let len = u32::try_from(rec.len()).expect("record length exceeds u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&rec);
}

fn put_response_header(out: &mut Vec<u8>, tag: u32, count: usize) {
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(&tag.to_le_bytes());
    let count = u16::try_from(count).expect("response batch exceeds u16");
    out.extend_from_slice(&count.to_le_bytes());
}

/// Encodes a request batch into a frame payload. The server echoes
/// `tag` on the matching response frame; `deadline_ms` is the request
/// budget (0 = server default), counted from frame acceptance.
///
/// # Panics
/// If the batch exceeds [`MAX_BATCH`] or a route/arc list exceeds
/// `u16::MAX` entries — caller bugs, not peer input.
pub fn encode_request_batch(tag: u32, deadline_ms: u32, reqs: &[Request]) -> Vec<u8> {
    assert!(reqs.len() <= MAX_BATCH, "batch of {} requests", reqs.len());
    let mut out = Vec::with_capacity(16 + reqs.len() * 9);
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&deadline_ms.to_le_bytes());
    let count = u16::try_from(reqs.len()).expect("MAX_BATCH fits u16");
    out.extend_from_slice(&count.to_le_bytes());
    for req in reqs {
        out.push(req.op() as u8);
        match req {
            Request::Find(id) | Request::GetSuccessors(id) => {
                out.extend_from_slice(&id.0.to_le_bytes());
            }
            Request::Route(nodes) => {
                let n = u16::try_from(nodes.len()).expect("route exceeds u16::MAX nodes");
                out.extend_from_slice(&n.to_le_bytes());
                for n in nodes {
                    out.extend_from_slice(&n.0.to_le_bytes());
                }
            }
            Request::RangeAggregate(arcs) => {
                let n = u16::try_from(arcs.len()).expect("arc list exceeds u16::MAX entries");
                out.extend_from_slice(&n.to_le_bytes());
                for (from, to) in arcs {
                    out.extend_from_slice(&from.0.to_le_bytes());
                    out.extend_from_slice(&to.0.to_le_bytes());
                }
            }
            Request::Stats => {}
            Request::Upsert { id, payload } => {
                out.extend_from_slice(&id.0.to_le_bytes());
                let n = u16::try_from(payload.len()).expect("payload exceeds u16::MAX bytes");
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(payload);
            }
        }
    }
    out
}

/// Encodes a response batch into a frame payload, echoing `tag` from
/// the request frame it answers.
pub fn encode_response_batch(tag: u32, resps: &[Response]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + resps.len() * 8);
    put_response_header(&mut out, tag, resps.len());
    for resp in resps {
        match resp {
            Response::Record(node) => {
                out.push(Status::Ok as u8);
                out.push(OpCode::Find as u8);
                put_record(&mut out, node);
            }
            // A record's successor list is itself u16-counted, so a
            // legitimate GetSuccessors result always fits the u16 count;
            // anything larger is substituted with `Internal` — an assert
            // here would be a remotely triggerable panic in a worker
            // thread, and truncating the count would emit a frame the
            // client cannot decode.
            Response::Records(nodes) if nodes.len() > u16::MAX as usize => {
                out.push(Status::Internal as u8);
                out.push(OpCode::GetSuccessors as u8);
            }
            Response::RecordsDegraded { nodes, .. } if nodes.len() > u16::MAX as usize => {
                out.push(Status::Internal as u8);
                out.push(OpCode::GetSuccessors as u8);
            }
            Response::Records(nodes) => {
                out.push(Status::Ok as u8);
                out.push(OpCode::GetSuccessors as u8);
                let n = u16::try_from(nodes.len()).expect("guarded above");
                out.extend_from_slice(&n.to_le_bytes());
                for node in nodes {
                    put_record(&mut out, node);
                }
            }
            Response::RecordsDegraded {
                nodes,
                skipped_pages,
            } => {
                out.push(Status::Degraded as u8);
                out.push(OpCode::GetSuccessors as u8);
                out.extend_from_slice(&skipped_pages.to_le_bytes());
                let n = u16::try_from(nodes.len()).expect("guarded above");
                out.extend_from_slice(&n.to_le_bytes());
                for node in nodes {
                    put_record(&mut out, node);
                }
            }
            Response::RouteEval {
                total_cost,
                nodes_visited,
                complete,
            } => {
                out.push(Status::Ok as u8);
                out.push(OpCode::Route as u8);
                out.extend_from_slice(&total_cost.to_le_bytes());
                out.extend_from_slice(&nodes_visited.to_le_bytes());
                out.push(u8::from(*complete));
            }
            Response::Aggregate {
                arcs_found,
                arcs_missing,
                total_cost,
                node_payload_sum,
                nodes_retrieved,
            } => {
                out.push(Status::Ok as u8);
                out.push(OpCode::RangeAggregate as u8);
                out.extend_from_slice(&arcs_found.to_le_bytes());
                out.extend_from_slice(&arcs_missing.to_le_bytes());
                out.extend_from_slice(&total_cost.to_le_bytes());
                out.extend_from_slice(&node_payload_sum.to_le_bytes());
                out.extend_from_slice(&nodes_retrieved.to_le_bytes());
            }
            Response::StatsJson(json) => {
                out.push(Status::Ok as u8);
                out.push(OpCode::Stats as u8);
                let len = u32::try_from(json.len()).expect("stats JSON exceeds u32");
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Response::Upserted { epoch } => {
                out.push(Status::Ok as u8);
                out.push(OpCode::Upsert as u8);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Response::NotPrimary { primary, op } => {
                out.push(Status::NotPrimary as u8);
                out.push(*op as u8);
                let n = u16::try_from(primary.len()).expect("primary address exceeds u16::MAX");
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(primary.as_bytes());
            }
            Response::Error(status, op) => {
                out.push(*status as u8);
                out.push(*op as u8);
                // Degraded GetSuccessors always carries a body on the
                // wire; an Error-shaped one encodes as empty so the
                // decoder stays total.
                if *status == Status::Degraded && *op == OpCode::GetSuccessors {
                    out.extend_from_slice(&0u32.to_le_bytes());
                    out.extend_from_slice(&0u16.to_le_bytes());
                }
                // NotPrimary always carries an address body; an
                // Error-shaped one encodes as empty likewise.
                if *status == Status::NotPrimary {
                    out.extend_from_slice(&0u16.to_le_bytes());
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.at < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn version(&mut self) -> Result<(), ProtoError> {
        let version = self.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        Ok(())
    }

    fn count(&mut self) -> Result<usize, ProtoError> {
        let count = self.u16()? as usize;
        if count > MAX_BATCH {
            return Err(ProtoError::BatchTooLarge(count));
        }
        Ok(count)
    }

    fn request_header(&mut self) -> Result<(u32, u32, usize), ProtoError> {
        self.version()?;
        let tag = self.u32()?;
        let deadline_ms = self.u32()?;
        let count = self.count()?;
        Ok((tag, deadline_ms, count))
    }

    fn response_header(&mut self) -> Result<(u32, usize), ProtoError> {
        self.version()?;
        let tag = self.u32()?;
        let count = self.count()?;
        Ok((tag, count))
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.at != self.buf.len() {
            return Err(ProtoError::TrailingBytes);
        }
        Ok(())
    }

    fn record(&mut self) -> Result<NodeData, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        // Decoding panics on malformed input; records only travel
        // server -> client and the server re-encodes from storage, so a
        // well-formed length prefix implies a well-formed record.
        Ok(RecordCodec::Paper.decode(bytes))
    }
}

/// Decodes a request-batch frame payload (server side), returning the
/// client's tag, requested deadline in milliseconds (0 = server
/// default), and the requests.
pub fn decode_request_batch(buf: &[u8]) -> Result<(u32, u32, Vec<Request>), ProtoError> {
    let mut c = Cursor { buf, at: 0 };
    let (tag, deadline_ms, count) = c.request_header()?;
    let mut reqs = Vec::with_capacity(count);
    for _ in 0..count {
        let op = OpCode::from_byte(c.u8()?)?;
        reqs.push(match op {
            OpCode::Find => Request::Find(NodeId(c.u64()?)),
            OpCode::GetSuccessors => Request::GetSuccessors(NodeId(c.u64()?)),
            OpCode::Route => {
                let n = c.u16()? as usize;
                let mut nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    nodes.push(NodeId(c.u64()?));
                }
                Request::Route(nodes)
            }
            OpCode::RangeAggregate => {
                let n = c.u16()? as usize;
                let mut arcs = Vec::with_capacity(n);
                for _ in 0..n {
                    arcs.push((NodeId(c.u64()?), NodeId(c.u64()?)));
                }
                Request::RangeAggregate(arcs)
            }
            OpCode::Stats => Request::Stats,
            OpCode::Upsert => {
                let id = NodeId(c.u64()?);
                let n = c.u16()? as usize;
                let payload = c.take(n)?.to_vec();
                Request::Upsert { id, payload }
            }
        });
    }
    c.finish()?;
    Ok((tag, deadline_ms, reqs))
}

/// Decodes a response-batch frame payload (client side), returning the
/// echoed tag and the responses.
pub fn decode_response_batch(buf: &[u8]) -> Result<(u32, Vec<Response>), ProtoError> {
    let mut c = Cursor { buf, at: 0 };
    let (tag, count) = c.response_header()?;
    let mut resps = Vec::with_capacity(count);
    for _ in 0..count {
        let status = Status::from_byte(c.u8()?)?;
        let op = OpCode::from_byte(c.u8()?)?;
        if status == Status::Degraded && op == OpCode::GetSuccessors {
            let skipped_pages = c.u32()?;
            let n = c.u16()? as usize;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(c.record()?);
            }
            resps.push(Response::RecordsDegraded {
                nodes,
                skipped_pages,
            });
            continue;
        }
        if status == Status::NotPrimary {
            let n = c.u16()? as usize;
            let bytes = c.take(n)?;
            let primary = String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)?;
            resps.push(Response::NotPrimary { primary, op });
            continue;
        }
        if status != Status::Ok {
            resps.push(Response::Error(status, op));
            continue;
        }
        resps.push(match op {
            OpCode::Find => Response::Record(c.record()?),
            OpCode::GetSuccessors => {
                let n = c.u16()? as usize;
                let mut nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    nodes.push(c.record()?);
                }
                Response::Records(nodes)
            }
            OpCode::Route => Response::RouteEval {
                total_cost: c.u64()?,
                nodes_visited: c.u32()?,
                complete: c.u8()? != 0,
            },
            OpCode::RangeAggregate => Response::Aggregate {
                arcs_found: c.u32()?,
                arcs_missing: c.u32()?,
                total_cost: c.u64()?,
                node_payload_sum: c.u64()?,
                nodes_retrieved: c.u32()?,
            },
            OpCode::Stats => {
                let len = c.u32()? as usize;
                let bytes = c.take(len)?;
                Response::StatsJson(
                    String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)?,
                )
            }
            OpCode::Upsert => Response::Upserted { epoch: c.u64()? },
        });
    }
    c.finish()?;
    Ok((tag, resps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccam_graph::EdgeTo;

    fn node(id: u64) -> NodeData {
        NodeData {
            id: NodeId(id),
            x: 3,
            y: 4,
            payload: vec![1, 2, u8::try_from(id & 0xff).unwrap()],
            successors: vec![EdgeTo {
                to: NodeId(id + 1),
                cost: 7,
            }],
            predecessors: vec![NodeId(id.wrapping_sub(1))],
        }
    }

    #[test]
    fn request_batch_round_trips() {
        let reqs = vec![
            Request::Find(NodeId(42)),
            Request::GetSuccessors(NodeId(7)),
            Request::Route(vec![NodeId(1), NodeId(2), NodeId(3)]),
            Request::RangeAggregate(vec![(NodeId(1), NodeId(2))]),
            Request::Stats,
            Request::Upsert {
                id: NodeId(11),
                payload: vec![0xca, 0xfe],
            },
        ];
        let buf = encode_request_batch(0xDEAD_BEEF, 0, &reqs);
        assert_eq!(decode_request_batch(&buf).unwrap(), (0xDEAD_BEEF, 0, reqs));
    }

    #[test]
    fn request_deadline_round_trips() {
        let reqs = vec![Request::Find(NodeId(1))];
        let buf = encode_request_batch(9, 2_500, &reqs);
        let (tag, deadline_ms, decoded) = decode_request_batch(&buf).unwrap();
        assert_eq!((tag, deadline_ms), (9, 2_500));
        assert_eq!(decoded, reqs);
    }

    /// The deadline field's boundary values are load-bearing: 0 means
    /// "no per-request deadline — the server default applies" (not
    /// "expire immediately"), and `u32::MAX` must survive the wire
    /// unchanged rather than saturating or wrapping.
    #[test]
    fn request_deadline_boundary_values_round_trip() {
        let reqs = vec![Request::Find(NodeId(1))];
        for deadline in [0u32, u32::MAX] {
            let buf = encode_request_batch(3, deadline, &reqs);
            let (tag, deadline_ms, decoded) = decode_request_batch(&buf).unwrap();
            assert_eq!((tag, deadline_ms), (3, deadline));
            assert_eq!(decoded, reqs);
        }
    }

    #[test]
    fn response_batch_round_trips() {
        let resps = vec![
            Response::Record(node(5)),
            Response::Records(vec![node(6), node(7)]),
            Response::RouteEval {
                total_cost: 99,
                nodes_visited: 4,
                complete: true,
            },
            Response::Aggregate {
                arcs_found: 3,
                arcs_missing: 1,
                total_cost: 55,
                node_payload_sum: 12,
                nodes_retrieved: 4,
            },
            Response::StatsJson("{\"x\":1}".to_string()),
            Response::Error(Status::NotFound, OpCode::Find),
            Response::Error(Status::Overloaded, OpCode::Route),
            Response::Error(Status::DeadlineExceeded, OpCode::Route),
            Response::Error(Status::Degraded, OpCode::Find),
            Response::RecordsDegraded {
                nodes: vec![node(8)],
                skipped_pages: 3,
            },
            Response::Upserted { epoch: 42 },
            Response::NotPrimary {
                primary: "127.0.0.1:4444".to_string(),
                op: OpCode::Upsert,
            },
            Response::NotPrimary {
                primary: String::new(),
                op: OpCode::Stats,
            },
        ];
        let buf = encode_response_batch(7, &resps);
        assert_eq!(decode_response_batch(&buf).unwrap(), (7, resps));
    }

    #[test]
    fn degraded_get_successors_error_decodes_as_empty_partial() {
        // Error(Degraded, GetSuccessors) is encoded with an empty body so
        // the Degraded+GetSuccessors wire shape is uniform; it therefore
        // decodes as an empty RecordsDegraded, not back to Error.
        let buf = encode_response_batch(
            1,
            &[Response::Error(Status::Degraded, OpCode::GetSuccessors)],
        );
        let (_, resps) = decode_response_batch(&buf).unwrap();
        assert_eq!(
            resps,
            vec![Response::RecordsDegraded {
                nodes: vec![],
                skipped_pages: 0,
            }]
        );
    }

    #[test]
    fn not_primary_error_decodes_as_empty_address() {
        // Error(NotPrimary, _) encodes with an empty address body so the
        // NotPrimary wire shape is uniform; it decodes as NotPrimary with
        // an unknown primary, not back to Error.
        let buf = encode_response_batch(1, &[Response::Error(Status::NotPrimary, OpCode::Upsert)]);
        let (_, resps) = decode_response_batch(&buf).unwrap();
        assert_eq!(
            resps,
            vec![Response::NotPrimary {
                primary: String::new(),
                op: OpCode::Upsert,
            }]
        );
    }

    #[test]
    fn oversized_records_response_degrades_to_internal_not_panic() {
        // > u16::MAX successors cannot be counted on the wire; the
        // encoder substitutes Internal instead of asserting (a panic here
        // would be remotely triggerable inside a worker thread).
        let resps = vec![
            Response::Records(vec![node(1); u16::MAX as usize + 1]),
            Response::RecordsDegraded {
                nodes: vec![node(2); u16::MAX as usize + 1],
                skipped_pages: 5,
            },
        ];
        let buf = encode_response_batch(3, &resps);
        let (_, decoded) = decode_response_batch(&buf).unwrap();
        assert_eq!(
            decoded,
            vec![
                Response::Error(Status::Internal, OpCode::GetSuccessors),
                Response::Error(Status::Internal, OpCode::GetSuccessors),
            ]
        );
    }

    #[test]
    fn frame_round_trips_and_eof_is_clean_at_boundary() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = &wire[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frame_length_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &wire[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn bad_version_and_trailing_bytes_are_rejected() {
        let mut buf = encode_request_batch(1, 0, &[Request::Stats]);
        buf[0] = 9;
        assert_eq!(
            decode_request_batch(&buf).unwrap_err(),
            ProtoError::BadVersion(9)
        );
        let mut buf = encode_request_batch(1, 0, &[Request::Stats]);
        buf.push(0);
        assert_eq!(
            decode_request_batch(&buf).unwrap_err(),
            ProtoError::TrailingBytes
        );
    }

    #[test]
    fn truncated_request_is_rejected() {
        let buf = encode_request_batch(3, 1_000, &[Request::Find(NodeId(1))]);
        for cut in 0..buf.len() {
            // Every strict prefix must fail cleanly, never panic.
            assert!(decode_request_batch(&buf[..cut]).is_err());
        }
    }

    #[test]
    fn oversized_batch_count_is_rejected() {
        let mut buf = Vec::new();
        buf.push(PROTOCOL_VERSION);
        buf.extend_from_slice(&0u32.to_le_bytes()); // tag
        buf.extend_from_slice(&0u32.to_le_bytes()); // deadline_ms
        buf.extend_from_slice(&(u16::try_from(MAX_BATCH).unwrap() + 1).to_le_bytes());
        assert_eq!(
            decode_request_batch(&buf).unwrap_err(),
            ProtoError::BatchTooLarge(MAX_BATCH + 1)
        );
    }
}
