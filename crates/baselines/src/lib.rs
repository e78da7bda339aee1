//! # cbt-baselines — the protocols CBT is measured against
//!
//! The SIGCOMM-'93 evaluation compares the shared tree against
//! *source-based* schemes. This crate implements those comparators over
//! the same graph substrate:
//!
//! * [`flood_prune`] — a DVMRP-style data-driven protocol: the first
//!   packet from a source is flooded along reverse-path-forwarding
//!   rules to the whole topology; routers with no interested downstream
//!   send prunes upstream. The result is a per-(source, group)
//!   shortest-path tree **plus prune state at every router the flood
//!   touched** — the O(S·G) state and topology-wide overhead the paper
//!   attacks.
//! * [`spt`] — the shortest-path-tree oracle: the per-source tree a
//!   converged DVMRP/MOSPF ends up with, without modelling the flood
//!   (used where only the final tree shape matters).
//! * [`star`] — naive unicast replication: the sender transmits one
//!   copy per member over unicast shortest paths. The pre-multicast
//!   baseline.
//!
//! All three are deterministic graph computations; the eval harness
//! runs them over the same seeded Waxman topologies as the CBT
//! simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod flood_prune;
pub mod spt;
pub mod star;

pub use flood_prune::{flood_and_prune, FloodPruneOutcome};
pub use spt::{cbt_shared_tree, source_tree};
pub use star::unicast_star_loads;
