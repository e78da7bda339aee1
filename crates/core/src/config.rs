//! Protocol configuration: the §9 default timers, forwarding mode and
//! managed `<core, group>` mappings.

use cbt_igmp::IgmpTimers;
use cbt_netsim::SimDuration;
use cbt_wire::{Addr, GroupId};
use std::collections::BTreeMap;

/// How data packets travel over tree interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardingMode {
    /// Native mode (§4): plain IP multicast over every tree interface.
    /// Correct only inside a pure-CBT cloud.
    #[default]
    Native,
    /// CBT mode (§5): CBT-header encapsulation, CBT unicast per tree
    /// neighbour (or CBT multicast when several share an interface).
    CbtMode,
}

/// One router's CBT configuration.
#[derive(Debug, Clone)]
pub struct CbtConfig {
    /// Data-plane mode.
    pub mode: ForwardingMode,
    /// Time between successive CBT-ECHO-REQUESTs to a parent
    /// (§9 CBT-ECHO-INTERVAL, default 30 s).
    pub echo_interval: SimDuration,
    /// Retransmission interval for an unacknowledged join
    /// (§9 PEND-JOIN-INTERVAL, default 10 s).
    pub pend_join_interval: SimDuration,
    /// How long to keep trying one core before electing another
    /// (§9 PEND-JOIN-TIMEOUT, default 30 s).
    pub pend_join_timeout: SimDuration,
    /// Total time transient join state may exist unacknowledged
    /// (§9 EXPIRE-PENDING-JOIN, default 90 s). Also the overall
    /// re-attachment budget (§6.1 RECONNECT-TIMEOUT, same 90 s value).
    pub expire_pending_join: SimDuration,
    /// No echo reply for this long ⇒ parent unreachable
    /// (§9 CBT-ECHO-TIMEOUT, default 90 s).
    pub echo_timeout: SimDuration,
    /// Cadence of the child-liveness sweep
    /// (§9 CHILD-ASSERT-INTERVAL, default 90 s).
    pub child_assert_interval: SimDuration,
    /// No echo request from a child for this long ⇒ drop the child
    /// (§9 CHILD-ASSERT-EXPIRE-TIME, default 180 s).
    pub child_assert_expire: SimDuration,
    /// Cadence of the member-presence scan that triggers quits
    /// (§9 IFF-SCAN-INTERVAL, default 300 s).
    pub iff_scan_interval: SimDuration,
    /// How many times a QUIT_REQUEST is retried before the child
    /// removes parent state unilaterally ("some small number, typically
    /// 3", §6.3).
    pub quit_retries: u32,
    /// Retransmission interval for unacknowledged quits.
    pub quit_interval: SimDuration,
    /// Aggregate echo keepalives per parent using a group mask (§8.4).
    /// Off by default — it requires coordinated address assignment.
    pub aggregate_echoes: bool,
    /// IGMP timing used by the router side of membership tracking.
    pub igmp: IgmpTimers,
    /// Managed `<core, group>` mappings (§2.4: how v1/v2-host subnets
    /// learn cores — "by means of network management"). Ordered,
    /// primary first. Consulted when no RP/Core-Report supplied a list.
    pub managed_mappings: BTreeMap<GroupId, Vec<Addr>>,
    /// Group-space shards per router (see [`crate::shard`]). Defaults
    /// to the `CBT_SHARDS` environment variable, or 1 when unset, so
    /// the whole test suite can exercise sharded steering without code
    /// changes (`CBT_SHARDS=2 cargo test`).
    pub shards: usize,
    /// Unread; kept for `benchmark/`, which still sets it. Every
    /// router arms its maintenance clocks lazily, on the first state
    /// they service (see DESIGN.md, "One arming policy").
    #[doc(hidden)]
    pub compact_idle: bool,
    /// Per-group downstream children a router accepts before answering
    /// JOIN_REQUEST with a NACK (the implementation's branching-degree
    /// guard). The default matches the historical `Fib` limit; netscale
    /// transit routers need more (a 100k-router transit node can parent
    /// dozens of stub uplinks for a hot group).
    pub max_children: usize,
}

impl Default for CbtConfig {
    /// The spec's §9 defaults.
    fn default() -> Self {
        CbtConfig {
            mode: ForwardingMode::Native,
            echo_interval: SimDuration::from_secs(30),
            pend_join_interval: SimDuration::from_secs(10),
            pend_join_timeout: SimDuration::from_secs(30),
            expire_pending_join: SimDuration::from_secs(90),
            echo_timeout: SimDuration::from_secs(90),
            child_assert_interval: SimDuration::from_secs(90),
            child_assert_expire: SimDuration::from_secs(180),
            iff_scan_interval: SimDuration::from_secs(300),
            quit_retries: 3,
            quit_interval: SimDuration::from_secs(5),
            aggregate_echoes: false,
            igmp: IgmpTimers::default(),
            managed_mappings: BTreeMap::new(),
            shards: crate::parallelism::NODE_SHARDS.with_default(1).resolve_lenient(),
            compact_idle: false,
            max_children: crate::fib::MAX_CHILDREN,
        }
    }
}

impl CbtConfig {
    /// §9 defaults with CBT-mode forwarding.
    pub fn cbt_mode() -> Self {
        CbtConfig { mode: ForwardingMode::CbtMode, ..Default::default() }
    }

    /// Timers compressed ~10× (ratios preserved) so simulations and
    /// tests converge in seconds of virtual time instead of minutes.
    pub fn fast() -> Self {
        CbtConfig {
            echo_interval: SimDuration::from_secs(3),
            pend_join_interval: SimDuration::from_secs(1),
            pend_join_timeout: SimDuration::from_secs(3),
            expire_pending_join: SimDuration::from_secs(9),
            echo_timeout: SimDuration::from_secs(9),
            child_assert_interval: SimDuration::from_secs(9),
            child_assert_expire: SimDuration::from_secs(18),
            iff_scan_interval: SimDuration::from_secs(30),
            quit_interval: SimDuration::from_millis(500),
            igmp: IgmpTimers::fast(),
            ..Default::default()
        }
    }

    /// Adds a managed mapping (builder style).
    pub fn with_mapping(mut self, group: GroupId, cores: Vec<Addr>) -> Self {
        self.managed_mappings.insert(group, cores);
        self
    }

    /// Switches forwarding mode (builder style).
    pub fn with_mode(mut self, mode: ForwardingMode) -> Self {
        self.mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_9() {
        let c = CbtConfig::default();
        assert_eq!(c.echo_interval, SimDuration::from_secs(30));
        assert_eq!(c.pend_join_interval, SimDuration::from_secs(10));
        assert_eq!(c.pend_join_timeout, SimDuration::from_secs(30));
        assert_eq!(c.expire_pending_join, SimDuration::from_secs(90));
        assert_eq!(c.echo_timeout, SimDuration::from_secs(90));
        assert_eq!(c.child_assert_interval, SimDuration::from_secs(90));
        assert_eq!(c.child_assert_expire, SimDuration::from_secs(180));
        assert_eq!(c.iff_scan_interval, SimDuration::from_secs(300));
        assert_eq!(c.quit_retries, 3);
        assert_eq!(c.mode, ForwardingMode::Native);
        assert!(!c.aggregate_echoes);
    }

    #[test]
    fn fast_preserves_ratios() {
        let c = CbtConfig::fast();
        // echo_timeout = 3 × echo_interval, as in the defaults (90/30).
        assert_eq!(c.echo_timeout.micros(), c.echo_interval.micros() * 3);
        assert_eq!(c.child_assert_expire.micros(), c.child_assert_interval.micros() * 2);
        assert!(c.pend_join_interval < c.pend_join_timeout);
        assert!(c.pend_join_timeout < c.expire_pending_join);
    }

    #[test]
    fn builder_helpers() {
        let g = GroupId::numbered(1);
        let cores = vec![Addr::from_octets(10, 255, 0, 3)];
        let c = CbtConfig::fast().with_mapping(g, cores.clone()).with_mode(ForwardingMode::CbtMode);
        assert_eq!(c.managed_mappings[&g], cores);
        assert_eq!(c.mode, ForwardingMode::CbtMode);
        assert_eq!(CbtConfig::cbt_mode().mode, ForwardingMode::CbtMode);
    }
}
