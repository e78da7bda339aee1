//! Typed view of CBT control messages (spec §8.3, §8.4).
//!
//! [`ControlMessage`] is what the protocol engine produces and consumes;
//! it round-trips through the raw [`CbtControlHeader`] byte format.

use crate::addr::{Addr, GroupId};
use crate::error::WireError;
use crate::header::CbtControlHeader;
use crate::ipv4::{IpProto, Ipv4Header, IPV4_HEADER_LEN};
use crate::udp::{UdpHeader, CBT_AUX_PORT, CBT_PRIMARY_PORT, UDP_HEADER_LEN};
use crate::Result;

/// The six primary (§8.3) and two auxiliary (§8.4) CBT control message
/// types, with their on-wire type numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ControlType {
    /// Establish the sender and intermediate routers on the tree.
    JoinRequest = 1,
    /// Acknowledgement creating a tree branch on its reverse path.
    JoinAck = 2,
    /// Negative acknowledgement: the join did not succeed.
    JoinNack = 3,
    /// Child asks parent to remove it from the tree.
    QuitRequest = 4,
    /// Parent confirms the quit.
    QuitAck = 5,
    /// Parent tears down a whole downstream branch.
    FlushTree = 6,
    /// Keepalive from child to parent (§8.4).
    EchoRequest = 7,
    /// Keepalive reply from parent to child (§8.4).
    EchoReply = 8,
}

impl ControlType {
    /// Decodes the on-wire type number.
    pub fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            1 => ControlType::JoinRequest,
            2 => ControlType::JoinAck,
            3 => ControlType::JoinNack,
            4 => ControlType::QuitRequest,
            5 => ControlType::QuitAck,
            6 => ControlType::FlushTree,
            7 => ControlType::EchoRequest,
            8 => ControlType::EchoReply,
            got => return Err(WireError::UnknownType { what: "cbt control", got }),
        })
    }

    /// True for the two auxiliary (keepalive) message types.
    pub fn is_auxiliary(self) -> bool {
        matches!(self, ControlType::EchoRequest | ControlType::EchoReply)
    }
}

/// JOIN-REQUEST subcodes (§8.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum JoinSubcode {
    /// Sent by a router with **no** children for the group (code 0).
    ActiveJoin = 0,
    /// Sent by a router with at least one child — a re-join after a
    /// failure or reconfiguration (code 1).
    RejoinActive = 1,
    /// Loop-detection form: converted from `RejoinActive` by the first
    /// on-tree router and forwarded parent-ward (code 2).
    RejoinNactive = 2,
}

impl JoinSubcode {
    /// Decodes the on-wire subcode.
    pub fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            0 => JoinSubcode::ActiveJoin,
            1 => JoinSubcode::RejoinActive,
            2 => JoinSubcode::RejoinNactive,
            got => return Err(WireError::UnknownType { what: "join subcode", got }),
        })
    }
}

/// JOIN-ACK subcodes (§8.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AckSubcode {
    /// Ordinary acknowledgement from a core or on-tree router (code 0).
    Normal = 0,
    /// Final-LAN-hop acknowledgement: the sender becomes the group's
    /// G-DR and the receiving D-DR keeps no FIB entry (§2.6, code 1).
    ProxyAck = 1,
    /// Sent by the primary core directly to the router that converted a
    /// rejoin to NACTIVE (code 2).
    RejoinNactive = 2,
}

impl AckSubcode {
    /// Decodes the on-wire subcode.
    pub fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            0 => AckSubcode::Normal,
            1 => AckSubcode::ProxyAck,
            2 => AckSubcode::RejoinNactive,
            got => return Err(WireError::UnknownType { what: "join-ack subcode", got }),
        })
    }
}

/// Marker value of the `# cores` octet in an aggregated echo (Fig. 9).
pub const ECHO_AGGREGATE: u8 = 0xff;

/// A fully-typed CBT control message.
///
/// Every variant carries `group` and `origin`; variants only carry the
/// further fields the spec says are processed for that type (§8.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMessage {
    /// JOIN-REQUEST: processed hop-by-hop toward `target_core`.
    JoinRequest {
        /// Which flavour of join (§8.3.1).
        subcode: JoinSubcode,
        /// Group being joined.
        group: GroupId,
        /// Router (DR) that originated the join. Unchanged when an
        /// ACTIVE_REJOIN is converted to NACTIVE (§6.3).
        origin: Addr,
        /// The core this join is steering toward.
        target_core: Addr,
        /// Ordered core list, primary first. Carried by *all* join types
        /// so a re-started core can learn its own status (§6.2).
        cores: Vec<Addr>,
    },
    /// JOIN-ACK: retraces the join, instantiating the branch.
    JoinAck {
        /// Ack flavour (§8.3.1).
        subcode: AckSubcode,
        /// Group being acknowledged.
        group: GroupId,
        /// Originator of the join being acknowledged.
        origin: Addr,
        /// Actual core affiliation of the terminating router (§8.3), or
        /// for `RejoinNactive` acks the converting router's address.
        target_core: Addr,
        /// Full core list ("the full list of core addresses is carried
        /// in a JOIN-ACK", §8.3).
        cores: Vec<Addr>,
    },
    /// JOIN-NACK: the join failed.
    JoinNack {
        /// Group whose join failed.
        group: GroupId,
        /// Originator of the failed join.
        origin: Addr,
        /// Core the failed join had targeted.
        target_core: Addr,
    },
    /// QUIT-REQUEST from child to parent.
    QuitRequest {
        /// Group being quit.
        group: GroupId,
        /// The quitting child router.
        origin: Addr,
    },
    /// QUIT-ACK from parent to child.
    QuitAck {
        /// Group whose quit is confirmed.
        group: GroupId,
        /// The parent sending the confirmation.
        origin: Addr,
    },
    /// FLUSH-TREE from parent down a whole branch.
    FlushTree {
        /// Group whose branch is being torn down.
        group: GroupId,
        /// The router that initiated the flush.
        origin: Addr,
    },
    /// CBT-ECHO-REQUEST keepalive, child → parent (§8.4).
    EchoRequest {
        /// Group covered (or low end of an aggregated range).
        group: GroupId,
        /// The child sending the keepalive.
        origin: Addr,
        /// Group-range mask when aggregated, else `None` (Fig. 9).
        group_mask: Option<Addr>,
    },
    /// CBT-ECHO-REPLY keepalive, parent → child (§8.4).
    EchoReply {
        /// Group covered (or low end of an aggregated range).
        group: GroupId,
        /// The parent replying.
        origin: Addr,
        /// Group-range mask when aggregated, else `None` (Fig. 9).
        group_mask: Option<Addr>,
    },
}

impl ControlMessage {
    /// The message's [`ControlType`].
    pub fn control_type(&self) -> ControlType {
        match self {
            ControlMessage::JoinRequest { .. } => ControlType::JoinRequest,
            ControlMessage::JoinAck { .. } => ControlType::JoinAck,
            ControlMessage::JoinNack { .. } => ControlType::JoinNack,
            ControlMessage::QuitRequest { .. } => ControlType::QuitRequest,
            ControlMessage::QuitAck { .. } => ControlType::QuitAck,
            ControlMessage::FlushTree { .. } => ControlType::FlushTree,
            ControlMessage::EchoRequest { .. } => ControlType::EchoRequest,
            ControlMessage::EchoReply { .. } => ControlType::EchoReply,
        }
    }

    /// The group every control message carries.
    pub fn group(&self) -> GroupId {
        match *self {
            ControlMessage::JoinRequest { group, .. }
            | ControlMessage::JoinAck { group, .. }
            | ControlMessage::JoinNack { group, .. }
            | ControlMessage::QuitRequest { group, .. }
            | ControlMessage::QuitAck { group, .. }
            | ControlMessage::FlushTree { group, .. }
            | ControlMessage::EchoRequest { group, .. }
            | ControlMessage::EchoReply { group, .. } => group,
        }
    }

    /// The originating address every control message carries.
    pub fn origin(&self) -> Addr {
        match *self {
            ControlMessage::JoinRequest { origin, .. }
            | ControlMessage::JoinAck { origin, .. }
            | ControlMessage::JoinNack { origin, .. }
            | ControlMessage::QuitRequest { origin, .. }
            | ControlMessage::QuitAck { origin, .. }
            | ControlMessage::FlushTree { origin, .. }
            | ControlMessage::EchoRequest { origin, .. }
            | ControlMessage::EchoReply { origin, .. } => origin,
        }
    }

    /// True if this message travels on the primary control port (7777);
    /// echo keepalives travel on the auxiliary port (7778), §3.
    pub fn is_primary(&self) -> bool {
        !self.control_type().is_auxiliary()
    }

    /// Lowers the typed message to the raw on-wire header.
    pub fn to_header(&self) -> CbtControlHeader {
        let typ = self.control_type() as u8;
        match self {
            ControlMessage::JoinRequest { subcode, group, origin, target_core, cores } => {
                CbtControlHeader {
                    typ,
                    code: *subcode as u8,
                    group: *group,
                    origin: *origin,
                    target_core: *target_core,
                    cores: cores.clone(),
                }
            }
            ControlMessage::JoinAck { subcode, group, origin, target_core, cores } => {
                CbtControlHeader {
                    typ,
                    code: *subcode as u8,
                    group: *group,
                    origin: *origin,
                    target_core: *target_core,
                    cores: cores.clone(),
                }
            }
            ControlMessage::JoinNack { group, origin, target_core } => CbtControlHeader {
                typ,
                code: 0,
                group: *group,
                origin: *origin,
                target_core: *target_core,
                cores: Vec::new(),
            },
            ControlMessage::QuitRequest { group, origin }
            | ControlMessage::QuitAck { group, origin }
            | ControlMessage::FlushTree { group, origin } => CbtControlHeader {
                typ,
                code: 0,
                group: *group,
                origin: *origin,
                target_core: Addr::NULL,
                cores: Vec::new(),
            },
            ControlMessage::EchoRequest { group, origin, group_mask }
            | ControlMessage::EchoReply { group, origin, group_mask } => {
                // Fig. 9: the "# cores" octet becomes the aggregate flag
                // and the word after the group id carries the mask. We
                // reuse `target_core` as that mask word — it occupies the
                // corresponding wire position in this implementation's
                // fixed field order and is NULL when not aggregated.
                CbtControlHeader {
                    typ,
                    code: if group_mask.is_some() { ECHO_AGGREGATE } else { 0 },
                    group: *group,
                    origin: *origin,
                    target_core: group_mask.unwrap_or(Addr::NULL),
                    cores: Vec::new(),
                }
            }
        }
    }

    /// Raises a raw header back to the typed message.
    pub fn from_header(h: &CbtControlHeader) -> Result<Self> {
        let typ = ControlType::from_wire(h.typ)?;
        Ok(match typ {
            ControlType::JoinRequest => ControlMessage::JoinRequest {
                subcode: JoinSubcode::from_wire(h.code)?,
                group: h.group,
                origin: h.origin,
                target_core: h.target_core,
                cores: h.cores.clone(),
            },
            ControlType::JoinAck => ControlMessage::JoinAck {
                subcode: AckSubcode::from_wire(h.code)?,
                group: h.group,
                origin: h.origin,
                target_core: h.target_core,
                cores: h.cores.clone(),
            },
            ControlType::JoinNack => ControlMessage::JoinNack {
                group: h.group,
                origin: h.origin,
                target_core: h.target_core,
            },
            ControlType::QuitRequest => {
                ControlMessage::QuitRequest { group: h.group, origin: h.origin }
            }
            ControlType::QuitAck => ControlMessage::QuitAck { group: h.group, origin: h.origin },
            ControlType::FlushTree => {
                ControlMessage::FlushTree { group: h.group, origin: h.origin }
            }
            ControlType::EchoRequest | ControlType::EchoReply => {
                let group_mask = match h.code {
                    0 => None,
                    ECHO_AGGREGATE => Some(h.target_core),
                    got => return Err(WireError::UnknownType { what: "echo aggregate", got }),
                };
                if typ == ControlType::EchoRequest {
                    ControlMessage::EchoRequest { group: h.group, origin: h.origin, group_mask }
                } else {
                    ControlMessage::EchoReply { group: h.group, origin: h.origin, group_mask }
                }
            }
        })
    }

    /// Serializes into `buf`, replacing its contents. The buffer's
    /// capacity is reused across calls, so a send path that encodes
    /// many messages through one scratch buffer allocates only until
    /// the buffer has grown to the largest message seen.
    ///
    /// # Errors
    /// Returns [`WireError::TooManyCores`] (leaving `buf` empty) when
    /// the message's core list exceeds [`crate::header::MAX_CORES`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<()> {
        buf.clear();
        self.encode_append(buf)
    }

    /// Serializes onto the end of `buf`, keeping what it already holds
    /// (see [`CbtControlHeader::encode_append`]): afterwards `buf` is
    /// its old contents followed by exactly what
    /// [`ControlMessage::encode_into`] writes.
    ///
    /// # Errors
    /// Returns [`WireError::TooManyCores`] (leaving `buf` exactly as it
    /// was) when the message's core list exceeds
    /// [`crate::header::MAX_CORES`].
    pub fn encode_append(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.to_header().encode_append(buf)
    }

    /// The complete IP datagram this message travels in — "inside UDP
    /// datagrams" (§3), on the primary or the auxiliary port by type —
    /// written into `buf` in one pass, replacing its contents: the
    /// message is encoded in place behind room for the two headers,
    /// which are then filled in over it.
    ///
    /// # Errors
    /// Returns [`WireError::TooManyCores`] (leaving `buf` empty) when
    /// the message's core list exceeds [`crate::header::MAX_CORES`].
    pub fn write_datagram(&self, src: Addr, dst: Addr, ttl: u8, buf: &mut Vec<u8>) -> Result<()> {
        buf.clear();
        buf.extend_from_slice(&[0; IPV4_HEADER_LEN + UDP_HEADER_LEN]);
        if let Err(e) = self.encode_append(buf) {
            buf.clear();
            return Err(e);
        }
        let port = if self.is_primary() { CBT_PRIMARY_PORT } else { CBT_AUX_PORT };
        let (ip, udp) = buf.split_at_mut(IPV4_HEADER_LEN);
        UdpHeader::seal(port, port, udp);
        ip.copy_from_slice(&Ipv4Header::new(src, dst, IpProto::Udp, ttl, udp.len()).encode());
        Ok(())
    }

    /// Parses straight from bytes (header decode + typing).
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Self::from_header(&CbtControlHeader::decode(bytes)?)
    }

    /// The type of a control message that is framed correctly (see
    /// [`ControlMessage::decode`] for the checks skipped: checksum,
    /// subcode, group class). For a tap that labels frames its own side
    /// just encoded; a receiver decodes.
    pub fn peek_type(bytes: &[u8]) -> Result<ControlType> {
        CbtControlHeader::framed_len(bytes)?;
        ControlType::from_wire(bytes[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::written;

    fn g() -> GroupId {
        GroupId::numbered(42)
    }

    fn encoded(msg: &ControlMessage) -> Vec<u8> {
        written(|b| msg.encode_into(b).unwrap())
    }

    fn header_bytes(h: &CbtControlHeader) -> Vec<u8> {
        written(|b| h.encode_append(b).unwrap())
    }

    fn cores() -> Vec<Addr> {
        vec![Addr::from_octets(10, 0, 0, 4), Addr::from_octets(10, 0, 0, 9)]
    }

    fn all_samples() -> Vec<ControlMessage> {
        let origin = Addr::from_octets(10, 1, 0, 1);
        let core = Addr::from_octets(10, 0, 0, 4);
        vec![
            ControlMessage::JoinRequest {
                subcode: JoinSubcode::ActiveJoin,
                group: g(),
                origin,
                target_core: core,
                cores: cores(),
            },
            ControlMessage::JoinRequest {
                subcode: JoinSubcode::RejoinActive,
                group: g(),
                origin,
                target_core: core,
                cores: cores(),
            },
            ControlMessage::JoinRequest {
                subcode: JoinSubcode::RejoinNactive,
                group: g(),
                origin,
                target_core: core,
                cores: cores(),
            },
            ControlMessage::JoinAck {
                subcode: AckSubcode::Normal,
                group: g(),
                origin,
                target_core: core,
                cores: cores(),
            },
            ControlMessage::JoinAck {
                subcode: AckSubcode::ProxyAck,
                group: g(),
                origin,
                target_core: core,
                cores: cores(),
            },
            ControlMessage::JoinAck {
                subcode: AckSubcode::RejoinNactive,
                group: g(),
                origin,
                target_core: core,
                cores: cores(),
            },
            ControlMessage::JoinNack { group: g(), origin, target_core: core },
            ControlMessage::QuitRequest { group: g(), origin },
            ControlMessage::QuitAck { group: g(), origin },
            ControlMessage::FlushTree { group: g(), origin },
            ControlMessage::EchoRequest { group: g(), origin, group_mask: None },
            ControlMessage::EchoRequest {
                group: g(),
                origin,
                group_mask: Some(Addr::from_octets(255, 255, 255, 0)),
            },
            ControlMessage::EchoReply { group: g(), origin, group_mask: None },
            ControlMessage::EchoReply {
                group: g(),
                origin,
                group_mask: Some(Addr::from_octets(255, 255, 0, 0)),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_samples() {
            let bytes = encoded(&msg);
            assert_eq!(bytes, header_bytes(&msg.to_header()), "the typed message is its header");
            let back = ControlMessage::decode(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn encode_into_replaces_a_dirty_reused_buffer() {
        // One scratch buffer across every message shape: each call must
        // leave exactly the bytes a fresh buffer gets, even when the
        // previous message was longer (stale-tail hazard).
        let mut buf = vec![0xee; 200];
        let mut samples = all_samples();
        samples.reverse(); // longest core lists first exercises shrink
        for msg in samples {
            msg.encode_into(&mut buf).unwrap();
            assert_eq!(buf, encoded(&msg));
            assert_eq!(ControlMessage::decode(&buf).unwrap(), msg);
        }
    }

    #[test]
    fn oversized_core_list_is_rejected_not_truncated() {
        // Pin the >255-core hazard: the on-wire count is one octet, so
        // a 300-core join would have wrapped to 44 before this became
        // a typed error.
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: Addr::from_octets(10, 255, 0, 4),
            cores: (0..300u32).map(Addr).collect(),
        };
        let mut buf = vec![0xaa; 4];
        assert_eq!(msg.encode_into(&mut buf), Err(WireError::TooManyCores { got: 300 }));
        assert!(buf.is_empty(), "a failed encode must not leave stale bytes behind");
        buf.push(0xaa);
        let err = msg.write_datagram(Addr::NULL, Addr::NULL, 1, &mut buf);
        assert_eq!(err, Err(WireError::TooManyCores { got: 300 }));
        assert!(buf.is_empty(), "nor a failed datagram write");
    }

    #[test]
    fn type_numbers_match_spec() {
        // §8.3: JOIN-REQUEST (type 1) ... FLUSH-TREE (type 6);
        // §8.4: CBT-ECHO-REQUEST (type 7), CBT-ECHO-REPLY (type 8).
        assert_eq!(ControlType::JoinRequest as u8, 1);
        assert_eq!(ControlType::JoinAck as u8, 2);
        assert_eq!(ControlType::JoinNack as u8, 3);
        assert_eq!(ControlType::QuitRequest as u8, 4);
        assert_eq!(ControlType::QuitAck as u8, 5);
        assert_eq!(ControlType::FlushTree as u8, 6);
        assert_eq!(ControlType::EchoRequest as u8, 7);
        assert_eq!(ControlType::EchoReply as u8, 8);
    }

    #[test]
    fn subcode_numbers_match_spec() {
        assert_eq!(JoinSubcode::ActiveJoin as u8, 0);
        assert_eq!(JoinSubcode::RejoinActive as u8, 1);
        assert_eq!(JoinSubcode::RejoinNactive as u8, 2);
        assert_eq!(AckSubcode::Normal as u8, 0);
        assert_eq!(AckSubcode::ProxyAck as u8, 1);
        assert_eq!(AckSubcode::RejoinNactive as u8, 2);
    }

    #[test]
    fn port_selection_follows_section_3() {
        for msg in all_samples() {
            let aux = matches!(
                msg,
                ControlMessage::EchoRequest { .. } | ControlMessage::EchoReply { .. }
            );
            assert_eq!(msg.is_primary(), !aux);
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut h = ControlMessage::QuitRequest { group: g(), origin: Addr::NULL }.to_header();
        h.typ = 99;
        let bytes = header_bytes(&h);
        assert!(matches!(
            ControlMessage::decode(&bytes),
            Err(WireError::UnknownType { got: 99, .. })
        ));
    }

    #[test]
    fn unknown_subcode_rejected() {
        let mut h =
            ControlMessage::JoinNack { group: g(), origin: Addr::NULL, target_core: Addr::NULL }
                .to_header();
        h.typ = ControlType::JoinRequest as u8;
        h.code = 7;
        assert!(ControlMessage::decode(&header_bytes(&h)).is_err());
    }

    #[test]
    fn accessors_are_consistent() {
        for msg in all_samples() {
            assert_eq!(msg.group(), g());
            assert_eq!(msg.to_header().group, g());
            assert_eq!(msg.origin(), msg.to_header().origin);
        }
    }
}
