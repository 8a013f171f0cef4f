//! Network import/export.
//!
//! A tiny self-describing binary format so networks can move between the
//! generator, the CLI and external tools:
//!
//! ```text
//! magic "CCAMNET1" | node_count: u32 | (record_len: u32 | record bytes)*
//! ```
//!
//! Records use the paper's page codec ([`RecordCodec::Paper`]), so a
//! network file is literally the records a paper-codec CCAM file would
//! store, with explicit lengths for framing.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::network::Network;
use crate::record::RecordCodec;

const MAGIC: &[u8; 8] = b"CCAMNET1";

/// Errors from network file I/O.
#[derive(Debug)]
pub enum NetworkIoError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// Not a network file / truncated / inconsistent.
    Format(String),
}

impl std::fmt::Display for NetworkIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkIoError::Io(e) => write!(f, "I/O error: {e}"),
            NetworkIoError::Format(m) => write!(f, "bad network file: {m}"),
        }
    }
}

impl std::error::Error for NetworkIoError {}

impl From<io::Error> for NetworkIoError {
    fn from(e: io::Error) -> Self {
        NetworkIoError::Io(e)
    }
}

/// Writes `net` to `path`.
pub fn save_network(net: &Network, path: &Path) -> Result<(), NetworkIoError> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(MAGIC)?;
    out.write_all(&(net.len() as u32).to_le_bytes())?;
    for node in net.nodes() {
        let rec = RecordCodec::Paper.encode(node);
        out.write_all(&(rec.len() as u32).to_le_bytes())?;
        out.write_all(&rec)?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a network written by [`save_network`], validating
/// successor/predecessor cross-consistency.
pub fn load_network(path: &Path) -> Result<Network, NetworkIoError> {
    let mut input = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(NetworkIoError::Format("bad magic".into()));
    }
    let mut count_buf = [0u8; 4];
    input.read_exact(&mut count_buf)?;
    let count = u32::from_le_bytes(count_buf) as usize;

    // Two passes over decoded records: nodes first, then edges, so edge
    // targets always exist.
    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let mut len_buf = [0u8; 4];
        input.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > 1 << 24 {
            return Err(NetworkIoError::Format(format!(
                "record {i} implausibly large ({len} bytes)"
            )));
        }
        let mut rec = vec![0u8; len];
        input.read_exact(&mut rec)?;
        records.push(RecordCodec::Paper.decode(&rec));
    }
    let mut net = Network::new();
    for r in &records {
        net.add_node(r.id, r.x, r.y, r.payload.clone());
    }
    for r in &records {
        for e in &r.successors {
            if net.node(e.to).is_none() {
                return Err(NetworkIoError::Format(format!(
                    "edge {:?} -> {:?} references a missing node",
                    r.id, e.to
                )));
            }
            net.add_edge(r.id, e.to, e.cost);
        }
    }
    // Predecessor lists are implied by the edges; verify they match what
    // the records claimed.
    for r in &records {
        let mut want = r.predecessors.clone();
        want.sort_unstable();
        let mut got = net.node(r.id).expect("just added").predecessors.clone();
        got.sort_unstable();
        if want != got {
            return Err(NetworkIoError::Format(format!(
                "predecessor list of {:?} inconsistent with edges",
                r.id
            )));
        }
        // Restore the recorded list order (reconstruction visits sources
        // in id order; the original order is part of the record).
        net.node_mut(r.id).expect("just added").predecessors = r.predecessors.clone();
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid_network;
    use crate::roadmap::minneapolis_like;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ccam-netio-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip_small_grid() {
        let net = grid_network(5, 4, 0.7);
        let path = temp("grid");
        save_network(&net, &path).unwrap();
        let back = load_network(&path).unwrap();
        assert_eq!(back.len(), net.len());
        assert_eq!(back.num_edges(), net.num_edges());
        for id in net.node_ids() {
            assert_eq!(back.node(id).unwrap(), net.node(id).unwrap());
        }
        back.validate();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_road_map() {
        let net = minneapolis_like(3);
        let path = temp("roadmap");
        save_network(&net, &path).unwrap();
        let back = load_network(&path).unwrap();
        assert_eq!(back.len(), 1079);
        assert_eq!(back.num_edges(), 3057);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_is_rejected() {
        let path = temp("garbage");
        std::fs::write(&path, b"not a network file").unwrap();
        assert!(matches!(
            load_network(&path),
            Err(NetworkIoError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_an_error_not_a_panic() {
        let net = grid_network(4, 4, 1.0);
        let path = temp("truncated");
        save_network(&net, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_network(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_network_roundtrips() {
        let net = Network::new();
        let path = temp("empty");
        save_network(&net, &path).unwrap();
        let back = load_network(&path).unwrap();
        assert!(back.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
