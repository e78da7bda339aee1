//! # cbt-igmp — group membership machinery on LANs
//!
//! CBT trees start and end at LANs: a host's IGMP report is what
//! triggers a DR's JOIN_REQUEST (§2.5), a host's leave is what triggers
//! the QUIT path (§2.7), and the IGMP *querier election* doubles as the
//! CBT default-DR election (§2.3: "the CBT DEFAULT DR is always the
//! subnet's IGMP-querier ... there is no protocol overhead whatsoever
//! associated with electing the CBT D-DR").
//!
//! Three state machines, all sans-I/O (they consume decoded
//! [`cbt_wire::IgmpMessage`]s plus time, and emit messages to send):
//!
//! * [`querier::QuerierElection`] — per-LAN lowest-address-wins querier
//!   election, including the §2.3 rule for LANs whose querier is not
//!   CBT-capable;
//! * [`presence::GroupPresence`] — the router-side per-LAN membership
//!   table with report refresh, leave-triggered group-specific queries
//!   and expiry (this feeds the engine's join/quit decisions);
//! * [`host::HostMembership`] — the host side: unsolicited reports +
//!   RP/Core-Reports on join (IGMPv3 per §1), query-answering with
//!   deterministic response delays and v1/v2 report suppression, leave
//!   on departure (§2.4 back-compat: v1 hosts leave silently).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod host;
pub mod presence;
pub mod querier;

pub use host::HostMembership;
pub use presence::{GroupPresence, PresenceEvent};
pub use querier::QuerierElection;

use cbt_wire::{Addr, IgmpMessage};

/// Heap bytes a `BTreeMap<K, V>` of `len` entries holds (a `BTreeSet<K>`
/// is `V = ()`), as a router's memory census counts them. A B-tree's
/// node count depends on its insertion history, which no map reveals,
/// so this counts the fewest nodes that can hold the entries, each at
/// a leaf's size: exact for up to 11 entries (one leaf), a lower bound
/// beyond. It sits in the lowest crate whose tables the census counts.
pub fn btree_bytes<K, V>(len: usize) -> usize {
    /// Entries per node (std's `CAPACITY`).
    const B: usize = 11;
    // A leaf: parent pointer, parent index, length, keys, values.
    len.div_ceil(B) * size_of::<(usize, u16, u16, [K; B], [V; B])>()
}

/// An IGMP message to put on the LAN, with its destination address
/// (reports go to the group itself, queries to all-systems, leaves to
/// all-routers — the caller wraps it in IP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IgmpOut {
    /// Destination address for the IP header.
    pub dst: Addr,
    /// The message.
    pub msg: IgmpMessage,
}

/// Protocol timing constants (IGMPv2 defaults; §9-style, configurable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IgmpTimers {
    /// Interval between general queries from the querier (125 s).
    pub query_interval_s: u64,
    /// Max response time advertised in general queries (10 s).
    pub query_response_s: u64,
    /// How long membership lives without a report
    /// (robustness × interval + response, ≈ 260 s; we use 2×125+10).
    pub membership_timeout_s: u64,
    /// Max response time in group-specific (leave-triggered) queries (1 s).
    pub last_member_query_s: u64,
    /// Number of rapid queries at router start-up (§2.3: "two or three").
    pub startup_query_count: u32,
    /// Spacing of those start-up queries (1 s).
    pub startup_query_interval_s: u64,
    /// How long after last hearing a rival querier before reclaiming
    /// the role (other-querier-present interval, 255 s).
    pub other_querier_timeout_s: u64,
}

impl Default for IgmpTimers {
    fn default() -> Self {
        IgmpTimers {
            query_interval_s: 125,
            query_response_s: 10,
            membership_timeout_s: 260,
            last_member_query_s: 1,
            startup_query_count: 2,
            startup_query_interval_s: 1,
            other_querier_timeout_s: 255,
        }
    }
}

impl IgmpTimers {
    /// Compressed timers for simulations that shouldn't wait minutes of
    /// virtual time (ratios preserved).
    pub fn fast() -> Self {
        IgmpTimers {
            query_interval_s: 10,
            query_response_s: 2,
            membership_timeout_s: 22,
            last_member_query_s: 1,
            startup_query_count: 2,
            startup_query_interval_s: 1,
            other_querier_timeout_s: 21,
        }
    }
}
