//! IGMP message formats as CBT consumes them, including the IGMPv3
//! `RP/Core-Report` proposed in the spec's appendix (Fig. 10).
//!
//! The spec assumes IGMPv3 between hosts and routers (§1) but requires
//! backwards compatibility with v1/v2 hosts (§2.4), so all three report
//! generations plus the v2 leave message are encoded here.

use crate::addr::{Addr, GroupId};
use crate::checksum::{internet_checksum, verify_checksum};
use crate::error::WireError;
use crate::ipv4::{IpProto, Ipv4Header, IPV4_HEADER_LEN};
use crate::Result;

/// IGMP message type numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IgmpType {
    /// Membership query, general or group-specific (0x11).
    MembershipQuery = 0x11,
    /// IGMPv1 membership report (0x12).
    ReportV1 = 0x12,
    /// IGMPv2 membership report (0x16).
    ReportV2 = 0x16,
    /// IGMPv2 leave-group (0x17), multicast to all-routers (§2.7).
    LeaveGroup = 0x17,
    /// IGMPv3 membership report (0x22).
    ReportV3 = 0x22,
    /// The RP/Core-Report from the spec's appendix. The draft proposes
    /// amending the IGMPv3 PIM RP-Report; 0x23 is the experimental
    /// number this implementation uses.
    RpCoreReport = 0x23,
    /// Tree-joined notification multicast across a subnet once the DR's
    /// join has been acknowledged ("it is proposed that IGMP group
    /// multicasts a notification ... indicating the delivery tree has
    /// been joined successfully", §2.5). Experimental number 0x24.
    TreeJoined = 0x24,
}

impl IgmpType {
    /// Decodes the on-wire type number.
    pub fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            0x11 => IgmpType::MembershipQuery,
            0x12 => IgmpType::ReportV1,
            0x16 => IgmpType::ReportV2,
            0x17 => IgmpType::LeaveGroup,
            0x22 => IgmpType::ReportV3,
            0x23 => IgmpType::RpCoreReport,
            0x24 => IgmpType::TreeJoined,
            got => return Err(WireError::UnknownType { what: "igmp", got }),
        })
    }
}

/// Code value distinguishing a CBT core report from a PIM RP report in
/// the amended message (appendix: "a new code value to distinguish PIM
/// RP reports from CBT Core reports").
pub const RP_CORE_CODE_CBT: u8 = 1;
/// Code value for PIM rendezvous-point reports.
pub const RP_CORE_CODE_PIM: u8 = 0;

/// The RP/Core-Report body (appendix Fig. 10, with the CBT amendments:
/// the reserved field becomes `target core`, an index into the list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpCoreReport {
    /// The group the cores serve.
    pub group: GroupId,
    /// `RP_CORE_CODE_CBT` or `RP_CORE_CODE_PIM`.
    pub code: u8,
    /// Index of the target core within `cores` — the core a join should
    /// steer toward first.
    pub target_core_index: u8,
    /// Ordered core (RP) addresses, primary first.
    pub cores: Vec<Addr>,
}

impl RpCoreReport {
    /// The target core's address, if the index is in range.
    pub fn target_core(&self) -> Option<Addr> {
        self.cores.get(self.target_core_index as usize).copied()
    }

    /// The primary core (first listed).
    pub fn primary_core(&self) -> Option<Addr> {
        self.cores.first().copied()
    }
}

/// A typed IGMP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IgmpMessage {
    /// Membership query. `group == None` is a general query; a
    /// group-specific query carries the group (§2.7).
    Query {
        /// Group queried, or `None` for a general query.
        group: Option<GroupId>,
        /// Maximum response time in tenths of a second (v2/v3 field).
        max_resp_tenths: u8,
    },
    /// Host membership report (any of the three generations).
    Report {
        /// Which IGMP generation the reporting host runs.
        version: u8,
        /// Group being reported.
        group: GroupId,
    },
    /// IGMPv2 leave-group.
    Leave {
        /// Group being left.
        group: GroupId,
    },
    /// The appendix's RP/Core-Report.
    RpCore(RpCoreReport),
    /// DR's tree-joined notification (§2.5 proposal).
    TreeJoined {
        /// Group whose tree has been joined.
        group: GroupId,
        /// Actual core affiliation of the new branch.
        core: Addr,
    },
}

impl IgmpMessage {
    /// The message's wire type.
    pub fn igmp_type(&self) -> IgmpType {
        match self {
            IgmpMessage::Query { .. } => IgmpType::MembershipQuery,
            IgmpMessage::Report { version: 1, .. } => IgmpType::ReportV1,
            IgmpMessage::Report { version: 2, .. } => IgmpType::ReportV2,
            IgmpMessage::Report { .. } => IgmpType::ReportV3,
            IgmpMessage::Leave { .. } => IgmpType::LeaveGroup,
            IgmpMessage::RpCore(_) => IgmpType::RpCoreReport,
            IgmpMessage::TreeJoined { .. } => IgmpType::TreeJoined,
        }
    }

    /// The group the message concerns; `None` only for a general
    /// query, which speaks for every group on the LAN.
    pub fn group(&self) -> Option<GroupId> {
        match *self {
            IgmpMessage::Query { group, .. } => group,
            IgmpMessage::Report { group, .. }
            | IgmpMessage::Leave { group }
            | IgmpMessage::TreeJoined { group, .. }
            | IgmpMessage::RpCore(RpCoreReport { group, .. }) => Some(group),
        }
    }

    /// Serializes the message onto the end of `buf`, leaving what it
    /// already holds in place; the checksum covers the appended bytes
    /// only.
    ///
    /// Basic messages use the classic 8-byte IGMP layout
    /// (type, code, checksum, group). The RP/Core-Report and TreeJoined
    /// extensions append their extra words, per Fig. 10.
    pub fn encode_append(&self, buf: &mut Vec<u8>) {
        let (code, group) = match self {
            IgmpMessage::Query { group, max_resp_tenths } => {
                (*max_resp_tenths, group.map(|g| g.addr()).unwrap_or(Addr::NULL))
            }
            IgmpMessage::Report { group, .. }
            | IgmpMessage::Leave { group }
            | IgmpMessage::TreeJoined { group, .. } => (0, group.addr()),
            IgmpMessage::RpCore(r) => (r.code, r.group.addr()),
        };
        let start = buf.len();
        buf.extend_from_slice(&[self.igmp_type() as u8, code, 0, 0]); // checksum below
        buf.extend_from_slice(&group.0.to_be_bytes());
        match self {
            IgmpMessage::RpCore(r) => {
                // Version(8) | target-core index (8, ex-Reserved) | #RPs (16);
                // 3 is the IGMP version of the amendment.
                buf.extend_from_slice(&[3, r.target_core_index]);
                buf.extend_from_slice(&(r.cores.len() as u16).to_be_bytes());
                for c in &r.cores {
                    buf.extend_from_slice(&c.0.to_be_bytes());
                }
            }
            IgmpMessage::TreeJoined { core, .. } => buf.extend_from_slice(&core.0.to_be_bytes()),
            _ => {}
        }
        let ck = internet_checksum(&buf[start..]);
        buf[start + 2..start + 4].copy_from_slice(&ck.to_be_bytes());
    }

    /// The complete IP datagram this message travels in (TTL 1: IGMP
    /// never leaves its subnet), written into `buf` in one pass,
    /// replacing its contents.
    pub fn write_datagram(&self, src: Addr, dst: Addr, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&[0; IPV4_HEADER_LEN]);
        self.encode_append(buf);
        let hdr = Ipv4Header::new(src, dst, IpProto::Igmp, 1, buf.len() - IPV4_HEADER_LEN);
        buf[..IPV4_HEADER_LEN].copy_from_slice(&hdr.encode());
    }

    /// The structural half of [`IgmpMessage::decode`]: a known type
    /// and the whole of that type's (possibly counted) length present.
    fn framed(bytes: &[u8]) -> Result<(IgmpType, usize)> {
        const WHAT: &str = "igmp message";
        if bytes.len() < 8 {
            return Err(WireError::Truncated { what: WHAT, needed: 8, got: bytes.len() });
        }
        let typ = IgmpType::from_wire(bytes[0])?;
        let fixed_len = match typ {
            IgmpType::RpCoreReport => {
                if bytes.len() < 12 {
                    return Err(WireError::Truncated { what: WHAT, needed: 12, got: bytes.len() });
                }
                let n = u16::from_be_bytes([bytes[10], bytes[11]]) as usize;
                12 + 4 * n
            }
            IgmpType::TreeJoined => 12,
            _ => 8,
        };
        if bytes.len() < fixed_len {
            return Err(WireError::Truncated { what: WHAT, needed: fixed_len, got: bytes.len() });
        }
        Ok((typ, fixed_len))
    }

    /// The type of a message that is framed correctly, with no checksum
    /// computed and no field interpreted — the IGMP twin of
    /// [`crate::ControlMessage::peek_type`].
    pub fn peek_type(bytes: &[u8]) -> Result<IgmpType> {
        Self::framed(bytes).map(|(typ, _)| typ)
    }

    /// Parses and validates a message.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        const WHAT: &str = "igmp message";
        let (typ, fixed_len) = Self::framed(bytes)?;
        let b = &bytes[..fixed_len];
        if !verify_checksum(b) {
            return Err(WireError::BadChecksum { what: WHAT });
        }
        let group_word = Addr(u32::from_be_bytes([b[4], b[5], b[6], b[7]]));
        let require_group = |what: &'static str| {
            GroupId::new(group_word)
                .ok_or(WireError::BadField { what, why: "group field is not class-D" })
        };
        Ok(match typ {
            IgmpType::MembershipQuery => IgmpMessage::Query {
                group: if group_word.is_null() { None } else { Some(require_group(WHAT)?) },
                max_resp_tenths: b[1],
            },
            IgmpType::ReportV1 => IgmpMessage::Report { version: 1, group: require_group(WHAT)? },
            IgmpType::ReportV2 => IgmpMessage::Report { version: 2, group: require_group(WHAT)? },
            IgmpType::ReportV3 => IgmpMessage::Report { version: 3, group: require_group(WHAT)? },
            IgmpType::LeaveGroup => IgmpMessage::Leave { group: require_group(WHAT)? },
            IgmpType::RpCoreReport => {
                let n = u16::from_be_bytes([b[10], b[11]]) as usize;
                let mut cores = Vec::with_capacity(n);
                for i in 0..n {
                    let off = 12 + 4 * i;
                    cores.push(Addr(u32::from_be_bytes([
                        b[off],
                        b[off + 1],
                        b[off + 2],
                        b[off + 3],
                    ])));
                }
                let target_core_index = b[9];
                if !cores.is_empty() && target_core_index as usize >= cores.len() {
                    return Err(WireError::BadField {
                        what: WHAT,
                        why: "target core index out of range",
                    });
                }
                IgmpMessage::RpCore(RpCoreReport {
                    group: require_group(WHAT)?,
                    code: b[1],
                    target_core_index,
                    cores,
                })
            }
            IgmpType::TreeJoined => IgmpMessage::TreeJoined {
                group: require_group(WHAT)?,
                core: Addr(u32::from_be_bytes([b[8], b[9], b[10], b[11]])),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> GroupId {
        GroupId::numbered(9)
    }

    fn encoded(msg: &IgmpMessage) -> Vec<u8> {
        crate::written(|b| msg.encode_append(b))
    }

    fn samples() -> Vec<IgmpMessage> {
        vec![
            IgmpMessage::Query { group: None, max_resp_tenths: 100 },
            IgmpMessage::Query { group: Some(g()), max_resp_tenths: 10 },
            IgmpMessage::Report { version: 1, group: g() },
            IgmpMessage::Report { version: 2, group: g() },
            IgmpMessage::Report { version: 3, group: g() },
            IgmpMessage::Leave { group: g() },
            IgmpMessage::RpCore(RpCoreReport {
                group: g(),
                code: RP_CORE_CODE_CBT,
                target_core_index: 1,
                cores: vec![Addr::from_octets(10, 0, 0, 4), Addr::from_octets(10, 0, 0, 9)],
            }),
            IgmpMessage::RpCore(RpCoreReport {
                group: g(),
                code: RP_CORE_CODE_PIM,
                target_core_index: 0,
                cores: vec![],
            }),
            IgmpMessage::TreeJoined { group: g(), core: Addr::from_octets(10, 0, 0, 4) },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in samples() {
            let bytes = encoded(&msg);
            assert_eq!(IgmpMessage::decode(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn igmp_type_numbers_are_standard() {
        assert_eq!(IgmpType::MembershipQuery as u8, 0x11);
        assert_eq!(IgmpType::ReportV1 as u8, 0x12);
        assert_eq!(IgmpType::ReportV2 as u8, 0x16);
        assert_eq!(IgmpType::LeaveGroup as u8, 0x17);
        assert_eq!(IgmpType::ReportV3 as u8, 0x22);
    }

    #[test]
    fn general_query_has_null_group() {
        let bytes = encoded(&IgmpMessage::Query { group: None, max_resp_tenths: 0 });
        assert_eq!(&bytes[4..8], &[0, 0, 0, 0]);
    }

    #[test]
    fn rp_core_report_exposes_target_and_primary() {
        let r = RpCoreReport {
            group: g(),
            code: RP_CORE_CODE_CBT,
            target_core_index: 1,
            cores: vec![Addr::from_octets(10, 0, 0, 4), Addr::from_octets(10, 0, 0, 9)],
        };
        assert_eq!(r.primary_core(), Some(Addr::from_octets(10, 0, 0, 4)));
        assert_eq!(r.target_core(), Some(Addr::from_octets(10, 0, 0, 9)));
    }

    #[test]
    fn rp_core_report_rejects_out_of_range_index() {
        let r = IgmpMessage::RpCore(RpCoreReport {
            group: g(),
            code: RP_CORE_CODE_CBT,
            target_core_index: 0,
            cores: vec![Addr::from_octets(10, 0, 0, 4)],
        });
        let mut bytes = encoded(&r);
        bytes[9] = 5; // index 5 of a 1-entry list
        bytes[2] = 0;
        bytes[3] = 0;
        let ck = internet_checksum(&bytes);
        bytes[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(IgmpMessage::decode(&bytes), Err(WireError::BadField { .. })));
    }

    #[test]
    fn corruption_rejected() {
        for msg in samples() {
            let bytes = encoded(&msg);
            for i in 0..bytes.len() {
                let mut c = bytes.clone();
                c[i] ^= 0x08;
                assert!(IgmpMessage::decode(&c).is_err(), "{msg:?} byte {i}");
            }
        }
    }

    #[test]
    fn truncation_rejected() {
        for msg in samples() {
            let bytes = encoded(&msg);
            for cut in 0..bytes.len() {
                assert!(IgmpMessage::decode(&bytes[..cut]).is_err(), "{msg:?} cut {cut}");
            }
        }
    }
}
