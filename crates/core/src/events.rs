//! Engine inputs and outputs: a router takes one [`Input`] at a time
//! and answers with [`RouterAction`]s.

use cbt_topology::IfIndex;
use cbt_wire::{Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage};

/// Everything that can happen to a router: a received control, IGMP
/// or data message, a change of directly attached membership, or the
/// clock reaching its next wakeup. [`crate::CbtRouter::step`] and
/// [`crate::ShardedRouter::step`] take exactly these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A CBT control message from neighbour `src`, received on `iface`.
    Control {
        /// Arrival interface.
        iface: IfIndex,
        /// Sending neighbour (IP source).
        src: Addr,
        /// The message.
        msg: ControlMessage,
    },
    /// An IGMP message from `src` on the LAN behind `iface`.
    Igmp {
        /// Arrival (LAN) interface.
        iface: IfIndex,
        /// IP source.
        src: Addr,
        /// The message.
        msg: IgmpMessage,
    },
    /// A native (plain IP multicast) data packet on `iface` from
    /// link-layer neighbour `link_src` — the sender's interface
    /// address on the shared medium, what a source MAC identifies.
    NativeData {
        /// Arrival interface.
        iface: IfIndex,
        /// Link-layer sender.
        link_src: Addr,
        /// The packet.
        pkt: DataPacket,
    },
    /// A CBT-mode (encapsulated) data packet on `iface` from the
    /// neighbour `outer_src`.
    CbtData {
        /// Arrival interface.
        iface: IfIndex,
        /// Outer IP source: the sending neighbour.
        outer_src: Addr,
        /// The encapsulated packet.
        pkt: CbtDataPacket,
    },
    /// A member of the group appeared directly on this router (netscale
    /// point-to-point mode: no LAN, no IGMP).
    Join(GroupId),
    /// The last directly attached member of the group left.
    Leave(GroupId),
    /// The clock reached the router's next wakeup: every due timer runs.
    Timer,
}

impl Input {
    /// The group the input belongs to; `None` for a timer and an IGMP
    /// general query, which concern every group.
    pub fn group(&self) -> Option<GroupId> {
        match self {
            Input::Control { msg, .. } => Some(msg.group()),
            Input::Igmp { msg, .. } => msg.group(),
            Input::NativeData { pkt, .. } => Some(pkt.group),
            Input::CbtData { pkt, .. } => Some(pkt.cbt.group),
            Input::Join(g) | Input::Leave(g) => Some(*g),
            Input::Timer => None,
        }
    }
}

/// An action the engine wants performed. The adapter (simulator or
/// tokio runtime) turns these into frames on interfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterAction {
    /// Unicast a CBT control message to `dst` out of `iface`
    /// (in UDP, port per message class — §3).
    SendControl {
        /// Interface to send on.
        iface: IfIndex,
        /// Unicast destination (next hop or, for the REJOIN-NACTIVE
        /// ack, the converting router directly).
        dst: Addr,
        /// The message.
        msg: ControlMessage,
    },
    /// Put an IGMP message on a LAN (queries, tree-joined notification).
    SendIgmp {
        /// LAN interface.
        iface: IfIndex,
        /// IP destination (all-systems, the group, ...).
        dst: Addr,
        /// The message.
        msg: IgmpMessage,
    },
    /// IP-multicast a native data packet onto a subnet (§4/§5: member
    /// subnets get the packet with TTL per the mode's rules).
    SendNativeData {
        /// LAN (or tree) interface.
        iface: IfIndex,
        /// The packet, TTL already set by the engine.
        pkt: DataPacket,
    },
    /// CBT-unicast an encapsulated data packet to a tree neighbour or
    /// core (§5 "CBT unicasting").
    SendCbtUnicast {
        /// Interface toward the neighbour.
        iface: IfIndex,
        /// The neighbour/core address (outer IP destination).
        dst: Addr,
        /// The encapsulated packet.
        pkt: CbtDataPacket,
    },
    /// CBT-multicast an encapsulated packet (outer destination = the
    /// group) because a parent or several children share one interface
    /// (§5 "CBT multicasting").
    SendCbtMulticast {
        /// The shared interface.
        iface: IfIndex,
        /// The encapsulated packet.
        pkt: CbtDataPacket,
    },
}

impl RouterAction {
    /// The group the action concerns (for assertions in tests).
    pub fn group(&self) -> Option<GroupId> {
        match self {
            RouterAction::SendControl { msg, .. } => Some(msg.group()),
            RouterAction::SendIgmp { msg, .. } => msg.group(),
            RouterAction::SendNativeData { pkt, .. } => Some(pkt.group),
            RouterAction::SendCbtUnicast { pkt, .. }
            | RouterAction::SendCbtMulticast { pkt, .. } => Some(pkt.cbt.group),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_group_extraction() {
        let g = GroupId::numbered(4);
        let act = RouterAction::SendIgmp {
            iface: IfIndex(0),
            dst: g.addr(),
            msg: IgmpMessage::Report { version: 3, group: g },
        };
        assert_eq!(act.group(), Some(g));
        let q = RouterAction::SendIgmp {
            iface: IfIndex(0),
            dst: cbt_wire::ALL_SYSTEMS,
            msg: IgmpMessage::Query { group: None, max_resp_tenths: 100 },
        };
        assert_eq!(q.group(), None, "general query has no group");
    }
}
