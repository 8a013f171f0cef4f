//! Variable-length binary codecs for node records.
//!
//! "For each node, a record stores the node data, successor-list and
//! predecessor-list. ... the records do not have fixed formats, since the
//! size of the successor-list and predecessor-list varies across nodes."
//! (paper §2.1). Coordinates are stored too, "since our benchmark
//! networks are embedded in geographic space".
//!
//! Two layouts, chosen per data file ([`RecordCodec`]). Both begin with
//! the id, so [`peek_id`] reads either. Little-endian throughout. Each
//! codec is parsed in one place, [`RecordCodec::view`], which reads a
//! record where it lies as a [`RecordRef`]; [`RecordCodec::decode`] is
//! that view made owned.
//!
//! [`RecordCodec::Paper`] — fixed-width fields, the record the paper's
//! experiments measure; `.net` files and the wire protocol use it too:
//!
//! ```text
//! id: u64 | x: u32 | y: u32
//! payload_len: u16 | payload bytes
//! succ_count: u16  | (to: u64, cost: u32)*
//! pred_count: u16  | (from: u64)*
//! ```
//!
//! [`RecordCodec::Compact`] — the same fields without the redundancy of
//! a road network. Ids are Z-order codes of the coordinates, so x and y
//! are stored only when `id` is not `z_encode(x, y)` (flag bit 0).
//! Neighbours are spatially close, so their ids are stored as zigzag
//! varints of the wrapping difference from the node's own id:
//!
//! ```text
//! id: u64 | flags: u8 | [x: u32 | y: u32]
//! varint payload_len | payload bytes
//! varint succ_count  | (zigzag-varint(to − id), varint cost)*
//! varint pred_count  | zigzag-varint(from − id)*
//! ```

use ccam_index::zorder::{z_decode, z_encode};

use crate::network::{EdgeTo, NodeData, NodeId};

const PAPER_FIXED: usize = 8 + 4 + 4 + 2 + 2 + 2;
const PAPER_SUCC_ENTRY: usize = 12;
const PAPER_PRED_ENTRY: usize = 8;

/// Compact flag bit: x and y follow the flags byte.
const COORDS_STORED: u8 = 1;

/// How node records are laid out in bytes: one choice per data file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordCodec {
    /// The paper's fixed-width record.
    Paper,
    /// Implied coordinates and varint neighbour deltas (module docs).
    Compact,
}

impl RecordCodec {
    /// Display name, as `ccam stats` prints it and `--codec` parses it.
    pub fn name(self) -> &'static str {
        match self {
            RecordCodec::Paper => "paper",
            RecordCodec::Compact => "compact",
        }
    }

    /// Exact encoded size of `node`, in bytes. The clustering algorithms
    /// use this as the node's weight against the page byte budget.
    pub fn encoded_len(self, node: &NodeData) -> usize {
        match self {
            RecordCodec::Paper => {
                PAPER_FIXED
                    + node.payload.len()
                    + PAPER_SUCC_ENTRY * node.successors.len()
                    + PAPER_PRED_ENTRY * node.predecessors.len()
            }
            RecordCodec::Compact => {
                let id = node.id.0;
                let coords = if stores_coords(node) { 8 } else { 0 };
                let succs: usize = node
                    .successors
                    .iter()
                    .map(|e| varint_len(delta(id, e.to)) + varint_len(e.cost.into()))
                    .sum();
                let preds: usize = node
                    .predecessors
                    .iter()
                    .map(|&p| varint_len(delta(id, p)))
                    .sum();
                8 + 1
                    + coords
                    + varint_len(node.payload.len() as u64)
                    + node.payload.len()
                    + varint_len(node.successors.len() as u64)
                    + succs
                    + varint_len(node.predecessors.len() as u64)
                    + preds
            }
        }
    }

    /// Serialises `node` into a fresh byte vector.
    pub fn encode(self, node: &NodeData) -> Vec<u8> {
        // The paper's length is cheap to compute and covers a compact
        // record whose neighbours are near; the vector grows otherwise.
        let mut out = Vec::with_capacity(RecordCodec::Paper.encoded_len(node));
        self.encode_into(node, &mut out);
        out
    }

    /// Appends `node`'s record to `out`.
    pub fn encode_into(self, node: &NodeData, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&node.id.0.to_le_bytes());
        match self {
            RecordCodec::Paper => {
                out.extend_from_slice(&node.x.to_le_bytes());
                out.extend_from_slice(&node.y.to_le_bytes());
                out.extend_from_slice(&(node.payload.len() as u16).to_le_bytes());
                out.extend_from_slice(&node.payload);
                out.extend_from_slice(&(node.successors.len() as u16).to_le_bytes());
                for e in &node.successors {
                    out.extend_from_slice(&e.to.0.to_le_bytes());
                    out.extend_from_slice(&e.cost.to_le_bytes());
                }
                out.extend_from_slice(&(node.predecessors.len() as u16).to_le_bytes());
                for p in &node.predecessors {
                    out.extend_from_slice(&p.0.to_le_bytes());
                }
            }
            RecordCodec::Compact => {
                let id = node.id.0;
                if stores_coords(node) {
                    out.push(COORDS_STORED);
                    out.extend_from_slice(&node.x.to_le_bytes());
                    out.extend_from_slice(&node.y.to_le_bytes());
                } else {
                    out.push(0);
                }
                put_varint(out, node.payload.len() as u64);
                out.extend_from_slice(&node.payload);
                put_varint(out, node.successors.len() as u64);
                for e in &node.successors {
                    put_varint(out, delta(id, e.to));
                    put_varint(out, e.cost.into());
                }
                put_varint(out, node.predecessors.len() as u64);
                for &p in &node.predecessors {
                    put_varint(out, delta(id, p));
                }
            }
        }
        debug_assert_eq!(out.len() - start, self.encoded_len(node));
    }

    /// Deserialises a record produced by [`Self::encode`] with the same
    /// codec: [`Self::view`], then [`RecordRef::to_owned`].
    ///
    /// Panics on truncated input — records only ever come from pages this
    /// library wrote.
    pub fn decode(self, buf: &[u8]) -> NodeData {
        self.view(buf).to_owned()
    }

    /// Reads a record produced by [`Self::encode`] where it lies: the
    /// fields before the successor list are parsed now, the lists as
    /// they are iterated. This is the only parser of each codec.
    ///
    /// Panics on truncated input, here or while iterating, like
    /// [`Self::decode`].
    pub fn view(self, buf: &[u8]) -> RecordRef<'_> {
        let mut r = Reader { buf, at: 0 };
        let id = r.u64();
        let (xy, payload, succ_count) = match self {
            RecordCodec::Paper => {
                let xy = (r.u32(), r.u32());
                let plen = r.u16() as usize;
                let payload = r.take(plen);
                (Some(xy), payload, r.u16() as usize)
            }
            RecordCodec::Compact => {
                let xy = (r.take(1)[0] & COORDS_STORED != 0).then(|| (r.u32(), r.u32()));
                let plen = r.varint() as usize;
                let payload = r.take(plen);
                (xy, payload, r.count())
            }
        };
        RecordRef {
            codec: self,
            id,
            xy,
            payload,
            succ_count,
            lists: &buf[r.at..],
        }
    }
}

/// One encoded record, read in place ([`RecordCodec::view`]): the page
/// bytes are borrowed, nothing is allocated, and a caller that needs one
/// field decodes only what precedes it.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    codec: RecordCodec,
    id: u64,
    /// Stored coordinates; `None` when a compact record implies them.
    xy: Option<(u32, u32)>,
    payload: &'a [u8],
    succ_count: usize,
    /// The successor entries and everything after them.
    lists: &'a [u8],
}

impl<'a> RecordRef<'a> {
    /// The node id.
    #[inline]
    pub fn id(self) -> NodeId {
        NodeId(self.id)
    }

    /// The node's coordinates.
    #[inline]
    pub fn xy(self) -> (u32, u32) {
        self.xy.unwrap_or_else(|| z_decode(self.id))
    }

    /// The application payload bytes.
    #[inline]
    pub fn payload(self) -> &'a [u8] {
        self.payload
    }

    /// The out-edges, in stored order, decoded one at a time.
    #[inline]
    pub fn successors(self) -> Successors<'a> {
        Successors {
            codec: self.codec,
            id: self.id,
            r: Reader {
                buf: self.lists,
                at: 0,
            },
            left: self.succ_count,
        }
    }

    /// The predecessor ids, in stored order, decoded one at a time. On
    /// the compact record this first steps over the successor list.
    pub fn predecessors(self) -> Predecessors<'a> {
        self.successors().into_predecessors()
    }

    /// The record as an owned [`NodeData`].
    pub fn to_owned(self) -> NodeData {
        // The same code in both arms, with the codec a constant, so the
        // per-entry match of the list iterators folds away.
        match self.codec {
            RecordCodec::Paper => self.to_owned_as(RecordCodec::Paper),
            RecordCodec::Compact => self.to_owned_as(RecordCodec::Compact),
        }
    }

    #[inline(always)]
    fn to_owned_as(mut self, codec: RecordCodec) -> NodeData {
        self.codec = codec;
        let payload = self.payload.to_vec();
        let (x, y) = self.xy();
        let mut succs = self.successors();
        let mut successors = Vec::with_capacity(succs.left);
        for _ in 0..succs.left {
            successors.push(succs.entry());
        }
        succs.left = 0;
        let mut preds = succs.into_predecessors();
        let mut predecessors = Vec::with_capacity(preds.left);
        for _ in 0..preds.left {
            predecessors.push(preds.entry());
        }
        NodeData {
            id: self.id(),
            x,
            y,
            payload,
            successors,
            predecessors,
        }
    }
}

/// The successor list of a [`RecordRef`] ([`RecordRef::successors`]).
#[derive(Debug, Clone)]
pub struct Successors<'a> {
    codec: RecordCodec,
    id: u64,
    r: Reader<'a>,
    left: usize,
}

impl<'a> Successors<'a> {
    /// Reads the next entry; the caller checks that one is left.
    #[inline(always)]
    fn entry(&mut self) -> EdgeTo {
        match self.codec {
            RecordCodec::Paper => EdgeTo {
                to: NodeId(self.r.u64()),
                cost: self.r.u32(),
            },
            RecordCodec::Compact => EdgeTo {
                to: NodeId(undelta(self.id, self.r.varint())),
                cost: self.r.varint() as u32,
            },
        }
    }

    /// Steps over the successors not yet read, then reads the
    /// predecessor count that follows them.
    fn into_predecessors(mut self) -> Predecessors<'a> {
        let left = match self.codec {
            RecordCodec::Paper => {
                self.r.take(PAPER_SUCC_ENTRY * self.left);
                self.r.u16() as usize
            }
            RecordCodec::Compact => {
                for _ in 0..2 * self.left {
                    self.r.varint();
                }
                self.r.count()
            }
        };
        Predecessors {
            codec: self.codec,
            id: self.id,
            r: self.r,
            left,
        }
    }
}

impl Iterator for Successors<'_> {
    type Item = EdgeTo;

    #[inline]
    fn next(&mut self) -> Option<EdgeTo> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.entry())
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Successors<'_> {}

/// The predecessor list of a [`RecordRef`] ([`RecordRef::predecessors`]).
#[derive(Debug, Clone)]
pub struct Predecessors<'a> {
    codec: RecordCodec,
    id: u64,
    r: Reader<'a>,
    left: usize,
}

impl Predecessors<'_> {
    /// Reads the next entry; the caller checks that one is left.
    #[inline(always)]
    fn entry(&mut self) -> NodeId {
        NodeId(match self.codec {
            RecordCodec::Paper => self.r.u64(),
            RecordCodec::Compact => undelta(self.id, self.r.varint()),
        })
    }
}

impl Iterator for Predecessors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.entry())
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Predecessors<'_> {}

impl std::str::FromStr for RecordCodec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "paper" => Ok(RecordCodec::Paper),
            "compact" => Ok(RecordCodec::Compact),
            other => Err(format!("unknown record codec {other:?} (paper|compact)")),
        }
    }
}

/// Reads only the node id from an encoded record of either codec (page
/// scans looking for a specific node avoid full decodes).
#[inline]
pub fn peek_id(buf: &[u8]) -> NodeId {
    NodeId(u64::from_le_bytes(buf[..8].try_into().unwrap()))
}

/// True when the compact record must store `node`'s coordinates: its id
/// is not their Z-order code.
#[inline]
fn stores_coords(node: &NodeData) -> bool {
    z_encode(node.x, node.y) != node.id.0
}

/// Zigzag code of the wrapping difference `to − id`: small for either
/// sign, and any pair of `u64`s round-trips through [`undelta`].
#[inline]
fn delta(id: u64, to: NodeId) -> u64 {
    let d = to.0.wrapping_sub(id) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn undelta(id: u64, z: u64) -> u64 {
    id.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// Bytes of `v` as an LEB128 varint (1..=10).
#[inline]
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A cursor over one encoded record.
#[derive(Debug, Clone)]
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        s
    }

    #[inline]
    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().unwrap())
    }

    #[inline]
    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    #[inline]
    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    #[inline]
    fn varint(&mut self) -> u64 {
        let b = self.buf[self.at];
        self.at += 1;
        if b < 0x80 {
            return b.into();
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.buf[self.at];
            self.at += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// A list length: every entry takes at least one byte, so a count
    /// larger than what is left is malformed and must not reserve memory.
    #[inline]
    fn count(&mut self) -> usize {
        let n = self.varint() as usize;
        assert!(
            n <= self.buf.len() - self.at,
            "record list overruns its record"
        );
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODECS: [RecordCodec; 2] = [RecordCodec::Paper, RecordCodec::Compact];

    fn sample() -> NodeData {
        NodeData {
            id: NodeId(0xDEADBEEF),
            x: 123,
            y: 456,
            payload: vec![1, 2, 3, 4, 5],
            successors: vec![
                EdgeTo {
                    to: NodeId(7),
                    cost: 70,
                },
                EdgeTo {
                    to: NodeId(9),
                    cost: 90,
                },
            ],
            predecessors: vec![NodeId(7), NodeId(11)],
        }
    }

    #[test]
    fn roundtrip() {
        let n = sample();
        for codec in CODECS {
            let buf = codec.encode(&n);
            assert_eq!(buf.len(), codec.encoded_len(&n), "{codec:?}");
            assert_eq!(codec.decode(&buf), n, "{codec:?}");
        }
    }

    #[test]
    fn roundtrip_empty_lists() {
        let n = NodeData {
            id: NodeId(1),
            x: 1,
            y: 0,
            payload: vec![],
            successors: vec![],
            predecessors: vec![],
        };
        let paper = RecordCodec::Paper.encode(&n);
        assert_eq!(paper.len(), PAPER_FIXED);
        assert_eq!(RecordCodec::Paper.decode(&paper), n);
        // id | flags | three zero-length varints; (1, 0) has Z-order id 1.
        let compact = RecordCodec::Compact.encode(&n);
        assert_eq!(compact.len(), 8 + 1 + 3);
        assert_eq!(RecordCodec::Compact.decode(&compact), n);
    }

    #[test]
    fn peek_id_reads_without_decode() {
        for codec in CODECS {
            let buf = codec.encode(&sample());
            assert_eq!(peek_id(&buf), NodeId(0xDEADBEEF));
        }
    }

    #[test]
    fn size_grows_with_degree() {
        let codec = RecordCodec::Paper;
        let mut n = sample();
        let before = codec.encoded_len(&n);
        n.successors.push(EdgeTo {
            to: NodeId(99),
            cost: 1,
        });
        assert_eq!(codec.encoded_len(&n), before + PAPER_SUCC_ENTRY);
        n.predecessors.push(NodeId(99));
        assert_eq!(
            codec.encoded_len(&n),
            before + PAPER_SUCC_ENTRY + PAPER_PRED_ENTRY
        );
    }

    /// A grid node with four near neighbours: coordinates implied, each
    /// neighbour two or three bytes.
    #[test]
    fn compact_road_node_is_small() {
        let (x, y) = (1000u32, 2000u32);
        let id = z_encode(x, y);
        let at = |dx: i32, dy: i32| {
            NodeId(z_encode(
                x.wrapping_add_signed(dx),
                y.wrapping_add_signed(dy),
            ))
        };
        let nbrs = [at(1, 0), at(-1, 0), at(0, 1), at(0, -1)];
        let n = NodeData {
            id: NodeId(id),
            x,
            y,
            payload: vec![0; 8],
            successors: nbrs.iter().map(|&to| EdgeTo { to, cost: 10 }).collect(),
            predecessors: nbrs.to_vec(),
        };
        let compact = RecordCodec::Compact.encode(&n);
        assert_eq!(compact[8] & COORDS_STORED, 0, "coordinates are implied");
        assert!(compact.len() <= 50, "{} bytes", compact.len());
        assert_eq!(RecordCodec::Paper.encoded_len(&n), 110);
        assert_eq!(RecordCodec::Compact.decode(&compact), n);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let n = NodeData {
            id: NodeId(u64::MAX),
            x: u32::MAX,
            y: u32::MAX,
            payload: vec![0xFF; 1000],
            successors: vec![
                EdgeTo {
                    to: NodeId(u64::MAX),
                    cost: u32::MAX,
                },
                EdgeTo {
                    to: NodeId(0),
                    cost: 0,
                },
            ],
            predecessors: vec![NodeId(0), NodeId(1 << 63)],
        };
        for codec in CODECS {
            let buf = codec.encode(&n);
            assert_eq!(buf.len(), codec.encoded_len(&n), "{codec:?}");
            assert_eq!(codec.decode(&buf), n, "{codec:?}");
        }
    }

    #[test]
    fn varint_lengths_match_encodings() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out.len(), varint_len(v), "{v}");
            assert_eq!(Reader { buf: &out, at: 0 }.varint(), v);
        }
        for (id, to) in [(0, u64::MAX), (u64::MAX, 0), (5, 3), (3, 5), (0, 1 << 63)] {
            assert_eq!(undelta(id, delta(id, NodeId(to))), to, "{id} -> {to}");
        }
    }

    #[test]
    fn codec_names_parse_back() {
        for codec in CODECS {
            assert_eq!(codec.name().parse::<RecordCodec>(), Ok(codec));
        }
        assert!("dense".parse::<RecordCodec>().is_err());
    }
}
