//! # cbt-topology — network topologies for the CBT reproduction
//!
//! Provides the three things every experiment needs before a single CBT
//! message is exchanged:
//!
//! 1. a **router-level weighted graph** ([`graph::Graph`], the
//!    generators' de-duplicating edge set) and **one shortest-path
//!    layer**: [`csr::SpfTree`], a Dijkstra over the flat
//!    [`csr::CsrGraph`] with in-place failure masks and incremental
//!    repair. The unicast routing substrate (`cbt-routing`), the
//!    netscale route tables and every tree-quality metric
//!    ([`shortest`]'s all-pairs table and member-spanning trees) run
//!    on it, so they all break ties the same way;
//! 2. **generators** ([`generate`]) for the random topologies the
//!    SIGCOMM-'93-style evaluation sweeps over (Waxman graphs in the
//!    Doar–Leslie tradition, plus regular shapes for unit tests);
//! 3. a **network description** ([`network::NetworkSpec`]) rich enough
//!    for the protocol itself: multi-access LAN segments with attached
//!    hosts (where IGMP and DR election happen), point-to-point links,
//!    and an IPv4 addressing plan — including byte-exact reconstructions
//!    of the spec's Figure 1 and Figure 5 topologies ([`figures`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod csr;
pub mod figures;
pub mod generate;
pub mod graph;
pub mod network;
pub mod shortest;

pub use csr::{CsrGraph, SpfScratch, SpfTree, INF_DIST, NO_NODE};
pub use figures::{figure1, figure5_loop, Figure1};
pub use generate::{transit_stub, waxman, TransitStubParams, WaxmanParams};
pub use graph::{EdgeWeight, Graph, NodeId};
pub use network::{
    Attachment, HostId, HostSpec, IfIndex, LanId, LanSpec, LinkId, LinkSpec, NetworkBuilder,
    NetworkSpec, RouterId, RouterSpec,
};
pub use shortest::{tree_spanning, AllPairs};
