//! Engine outputs.

use cbt_topology::IfIndex;
use cbt_wire::{Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage};

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
            RouterAction::SendIgmp { msg, .. } => match msg {
                IgmpMessage::Query { group, .. } => *group,
                IgmpMessage::Report { group, .. }
                | IgmpMessage::Leave { group }
                | IgmpMessage::TreeJoined { group, .. } => Some(*group),
                IgmpMessage::RpCore(r) => Some(r.group),
            },
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
