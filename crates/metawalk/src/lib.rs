#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

//! Walks, meta-walks, commuting matrices, and functional dependencies
//! (§4.1, §4.3, §5.1 of the paper).
//!
//! A *walk* is a node sequence following edges; its *meta-walk* is the label
//! sequence it induces. Meta-walks denote relationships between entities
//! ("films connected to films through shared actors") and are the unit over
//! which PathSim and R-PathSim measure similarity.
//!
//! This crate provides:
//!
//! * [`MetaWalk`] — label sequences with optional `*`-marked entity labels
//!   (§5.2's \*-labels), parsing, display, reversal and concatenation;
//! * [`walk`] — explicit walk enumeration and the informative-walk predicate
//!   (Definition 4), used to cross-validate the matrix computations;
//! * [`commuting`] — commuting matrices `M_p`, their informative-walk
//!   restriction (the `M_s − M_s^d` construction of §4.3), and \*-segment
//!   binarization (§5.2);
//! * [`fd`] — functional dependencies over meta-walks (Definition 8), FD
//!   discovery, and maximal chains under the `≺` order;
//! * [`delta`] — cache maintenance under graph mutations: patch the rows
//!   a mutation reaches from each entry's chain factors, in place;
//! * [`enumerate`] — meta-walk enumeration over the schema graph, the
//!   inclusion relation (Definition 6) and maximal meta-walks
//!   (Definition 7) for small databases;
//! * [`equivalence`] — (sufficient) content equivalence between meta-walks
//!   across two databases (Definitions 3 and 5).

pub mod commuting;
pub mod delta;
pub mod enumerate;
pub mod equivalence;
pub mod fd;
pub mod metawalk;
pub mod walk;

pub use commuting::{informative_commuting, plain_commuting};
pub use fd::{Fd, FdSet};
pub use metawalk::{MetaWalk, Step};
pub use walk::Walk;
