#![warn(missing_docs)]

//! The CCAM access-method layer: the paper's contribution and every
//! comparator it is evaluated against.
//!
//! * [`mod@file`] — the network data file shared by all access methods:
//!   slotted data pages behind a counted buffer pool plus the B⁺-tree
//!   secondary index,
//! * [`am`] — the [`am::AccessMethod`] operations (`Create`, `Find`,
//!   `Insert`, `Delete`, `Get-A-successor`, `Get-successors`, §1.2) and
//!   the four implementations: [`am::Ccam`] (connectivity clustering,
//!   static and dynamic create), [`am::TopoAm`] (DFS-AM / BFS-AM /
//!   WDFS-AM) and [`am::GridAm`] (Grid-File clustering),
//! * [`pag`] — the Page Access Graph of Definition 1–2 (`NbrPages`,
//!   `PagesOfNbrs`),
//! * [`reorg`] — the reorganization policies of Table 1,
//! * [`crr`] — CRR / WCRR measurement over a data file,
//! * [`check`] — database integrity verification (index ↔ pages ↔
//!   cross-links),
//! * [`workload`] — operation-trace record/replay for portable
//!   benchmarking,
//! * [`costmodel`] — the algebraic cost model of Tables 3 and 4,
//! * [`mod@validate`] — a harness that replays a live workload and reports
//!   predicted vs. observed page accesses per operation class,
//! * [`query`] — aggregate queries: route evaluation, graph search (A*,
//!   Dijkstra), tour evaluation, route-unit aggregates,
//!   location-allocation and spatial window queries,
//! * [`epoch`] — the single-writer / multi-reader [`EpochCell`] the
//!   serving layer uses for snapshot-consistent reads during commits.

pub mod am;
pub mod check;
pub mod costmodel;
pub mod crr;
pub mod epoch;
pub mod file;
pub mod pag;
pub mod query;
pub mod reorg;
pub mod validate;
pub mod workload;

pub use am::{AccessMethod, Ccam, CcamBuilder, GridAm, TopoAm, TraversalOrder};
pub use costmodel::CostParams;
pub use epoch::{EpochCell, EpochWriteGuard};
pub use file::{Degraded, NetworkFile};
pub use reorg::ReorgPolicy;
pub use validate::{validate, ClassReport, ValidationConfig, ValidationReport};
