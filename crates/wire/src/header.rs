//! The two CBT headers: the data-packet header (spec Fig. 7) and the
//! control-packet header (spec Fig. 8).
//!
//! Both are encoded big-endian in 32-bit rows exactly as drawn in the
//! draft. See the crate docs for how the draft's "T.B.D." fields are
//! resolved.

use crate::addr::{Addr, GroupId};
use crate::checksum::{internet_checksum, verify_checksum};
use crate::error::WireError;
use crate::Result;

/// CBT protocol version implemented here ("this release specifies
/// version 1", §8.1).
pub const CBT_VERSION: u8 = 1;

/// Value of the data header's `type` field for a data payload.
pub const DATA_TYPE_DATA: u8 = 0;
/// Value of the data header's `type` field for control information
/// carried inside a CBT header (unused by this implementation but kept
/// for wire compatibility).
pub const DATA_TYPE_CONTROL: u8 = 1;

/// `on-tree` field value meaning the packet has not yet reached the tree.
pub const OFF_TREE: u8 = 0x00;
/// `on-tree` field value meaning the packet is spanning the tree (§7).
pub const ON_TREE: u8 = 0xff;

/// Size in bytes of the fixed CBT data header.
pub const CBT_DATA_HEADER_LEN: usize = 32;

/// The CBT data-packet header (spec §8.1, Fig. 7).
///
/// ```text
///  0               1               2               3
///  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
/// +-------+-------+---------------+---------------+---------------+
/// | vers  |unused |     type      |  hdr length   | on-tree       |
/// +-------+-------+---------------+---------------+---------------+
/// |           checksum            |    IP TTL     |    unused     |
/// +-------------------------------+---------------+---------------+
/// |                       group identifier                        |
/// +----------------------------------------------------------------
/// |                         core address                          |
/// +----------------------------------------------------------------
/// |                         packet origin                         |
/// +----------------------------------------------------------------
/// |                     flow identifier (T.B.D)                   |
/// +----------------------------------------------------------------
/// |                    security fields (T.B.D)                    |
/// |                                                               |
/// +----------------------------------------------------------------
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbtDataHeader {
    /// Payload kind: [`DATA_TYPE_DATA`] or [`DATA_TYPE_CONTROL`].
    pub typ: u8,
    /// Whether the packet has reached the tree ([`ON_TREE`]) or not
    /// ([`OFF_TREE`]). Once set it is non-changing (§8.1).
    pub on_tree: u8,
    /// TTL gleaned from the originating IP header; decremented by each
    /// CBT router the packet traverses (§5, §8.1).
    pub ip_ttl: u8,
    /// Multicast group the packet belongs to.
    pub group: GroupId,
    /// Core address inserted by the originating host (§8.1): used by an
    /// off-tree DR to unicast the packet toward the tree.
    pub core: Addr,
    /// Source address of the originating end-system.
    pub origin: Addr,
    /// Flow identifier (T.B.D in the draft; carried verbatim).
    pub flow_id: u32,
    /// Security fields (T.B.D in the draft; carried verbatim).
    pub security: u32,
}

impl CbtDataHeader {
    /// Builds a fresh off-tree data header as the encapsulating DR next
    /// to the origin host would (§5).
    pub fn new(group: GroupId, core: Addr, origin: Addr, ip_ttl: u8) -> Self {
        CbtDataHeader {
            typ: DATA_TYPE_DATA,
            on_tree: OFF_TREE,
            ip_ttl,
            group,
            core,
            origin,
            flow_id: 0,
            security: 0,
        }
    }

    /// True once the first on-tree router has marked the packet (§7).
    pub fn is_on_tree(&self) -> bool {
        self.on_tree == ON_TREE
    }

    /// Serializes the header (32 bytes) with a freshly computed checksum.
    pub fn encode(&self) -> [u8; CBT_DATA_HEADER_LEN] {
        let mut b = [0u8; CBT_DATA_HEADER_LEN];
        b[0] = CBT_VERSION << 4;
        b[1] = self.typ;
        b[2] = CBT_DATA_HEADER_LEN as u8;
        b[3] = self.on_tree;
        // b[4..6] checksum, filled below.
        b[6] = self.ip_ttl;
        // b[7] unused.
        b[8..12].copy_from_slice(&self.group.addr().0.to_be_bytes());
        b[12..16].copy_from_slice(&self.core.0.to_be_bytes());
        b[16..20].copy_from_slice(&self.origin.0.to_be_bytes());
        b[20..24].copy_from_slice(&self.flow_id.to_be_bytes());
        b[24..28].copy_from_slice(&self.security.to_be_bytes());
        // b[28..32] reserved tail of the security block, zero.
        let ck = internet_checksum(&b);
        b[4..6].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Parses and validates a header from the front of `bytes`.
    ///
    /// Checks version, advertised header length, checksum and that the
    /// group identifier is class-D.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        const WHAT: &str = "cbt data header";
        if bytes.len() < CBT_DATA_HEADER_LEN {
            return Err(WireError::Truncated {
                what: WHAT,
                needed: CBT_DATA_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let b = &bytes[..CBT_DATA_HEADER_LEN];
        let vers = b[0] >> 4;
        if vers != CBT_VERSION {
            return Err(WireError::BadVersion { what: WHAT, got: vers });
        }
        if b[2] as usize != CBT_DATA_HEADER_LEN {
            return Err(WireError::BadLength { what: WHAT, got: b[2] as usize });
        }
        if !verify_checksum(b) {
            return Err(WireError::BadChecksum { what: WHAT });
        }
        let on_tree = b[3];
        if on_tree != ON_TREE && on_tree != OFF_TREE {
            return Err(WireError::BadField { what: WHAT, why: "on-tree must be 0x00 or 0xff" });
        }
        let group_addr = Addr(u32::from_be_bytes([b[8], b[9], b[10], b[11]]));
        let group = GroupId::new(group_addr).ok_or(WireError::BadField {
            what: WHAT,
            why: "group identifier is not a class-D address",
        })?;
        Ok(CbtDataHeader {
            typ: b[1],
            on_tree,
            ip_ttl: b[6],
            group,
            core: Addr(u32::from_be_bytes([b[12], b[13], b[14], b[15]])),
            origin: Addr(u32::from_be_bytes([b[16], b[17], b[18], b[19]])),
            flow_id: u32::from_be_bytes([b[20], b[21], b[22], b[23]]),
            security: u32::from_be_bytes([b[24], b[25], b[26], b[27]]),
        })
    }
}

/// Maximum number of core addresses a control packet may carry.
///
/// The -02 draft fixed the list at five; -03 made it counted. We accept
/// up to eight on decode and never emit more than eight; the spec
/// recommends implementations use no more than about three.
pub const MAX_CORES: usize = 8;

/// Length of the fixed portion of the control header (everything up to
/// and including the target core address, plus the trailing reservation
/// and security words).
const CONTROL_FIXED_LEN: usize = 20;
/// Trailing Resource-Reservation (2 words) + security (2 words) block.
const CONTROL_TRAILER_LEN: usize = 16;

/// The CBT control-packet header (spec §8.2, Fig. 8).
///
/// This is the entire on-wire representation of every primary and
/// auxiliary control message — the message *is* the header; which fields
/// beyond `group identifier` are meaningful depends on `type`/`code`
/// (§8.2: "only certain fields beyond group identifier are processed for
/// the different control messages").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbtControlHeader {
    /// Control message type (JOIN-REQUEST = 1 ... CBT-ECHO-REPLY = 8).
    pub typ: u8,
    /// Subcode of the message type.
    pub code: u8,
    /// Multicast group the message concerns.
    pub group: GroupId,
    /// Source address of the originating end-system/router.
    pub origin: Addr,
    /// Desired/actual core affiliation of the message.
    pub target_core: Addr,
    /// Ordered list of the group's cores, primary first (§1: "joins
    /// carry an ordered list of core routers").
    pub cores: Vec<Addr>,
}

impl CbtControlHeader {
    /// Total encoded length for a message carrying `n_cores` addresses.
    pub fn encoded_len(n_cores: usize) -> usize {
        CONTROL_FIXED_LEN + 4 * n_cores + CONTROL_TRAILER_LEN
    }

    /// Serializes the control message with a freshly computed checksum.
    ///
    /// # Errors
    /// Returns [`WireError::TooManyCores`] if `self.cores.len()`
    /// exceeds [`MAX_CORES`] — the 8-bit on-wire count would otherwise
    /// silently truncate the list.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut b = Vec::new();
        self.encode_into(&mut b)?;
        Ok(b)
    }

    /// Serializes into `buf`, replacing its contents. The buffer's
    /// capacity is reused across calls, so a send path that encodes
    /// many messages through one scratch buffer allocates only until
    /// the buffer has grown to the largest message seen.
    ///
    /// # Errors
    /// Returns [`WireError::TooManyCores`] (leaving `buf` empty) if
    /// `self.cores.len()` exceeds [`MAX_CORES`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<()> {
        buf.clear();
        self.encode_append(buf)
    }

    /// Serializes onto the end of `buf`, leaving what it already holds
    /// in place — a caller that frames the message behind its own
    /// prefix writes both into one buffer with no copy in between. The
    /// checksum covers the appended bytes only.
    ///
    /// # Errors
    /// Returns [`WireError::TooManyCores`] (leaving `buf` exactly as it
    /// was) if `self.cores.len()` exceeds [`MAX_CORES`].
    pub fn encode_append(&self, buf: &mut Vec<u8>) -> Result<()> {
        if self.cores.len() > MAX_CORES {
            return Err(WireError::TooManyCores { got: self.cores.len() });
        }
        let len = Self::encoded_len(self.cores.len());
        let start = buf.len();
        buf.resize(start + len, 0);
        let b = &mut buf[start..];
        b[0] = CBT_VERSION << 4;
        b[1] = self.typ;
        b[2] = self.code;
        b[3] = self.cores.len() as u8;
        b[4..6].copy_from_slice(&(len as u16).to_be_bytes());
        // b[6..8] checksum, filled below.
        b[8..12].copy_from_slice(&self.group.addr().0.to_be_bytes());
        b[12..16].copy_from_slice(&self.origin.0.to_be_bytes());
        b[16..20].copy_from_slice(&self.target_core.0.to_be_bytes());
        for (i, core) in self.cores.iter().enumerate() {
            let off = CONTROL_FIXED_LEN + 4 * i;
            b[off..off + 4].copy_from_slice(&core.0.to_be_bytes());
        }
        // Trailing 16 bytes: reservation + security, all-zero (T.B.D).
        let ck = internet_checksum(b);
        b[6..8].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }

    /// The structural half of [`CbtControlHeader::decode`]: long
    /// enough, the right version, and a counted length that agrees with
    /// `# cores` and fits in `bytes`. Returns that length. No checksum
    /// is computed and no field beyond the framing is interpreted.
    pub(crate) fn framed_len(bytes: &[u8]) -> Result<usize> {
        const WHAT: &str = "cbt control header";
        let min = Self::encoded_len(0);
        if bytes.len() < min {
            return Err(WireError::Truncated { what: WHAT, needed: min, got: bytes.len() });
        }
        let vers = bytes[0] >> 4;
        if vers != CBT_VERSION {
            return Err(WireError::BadVersion { what: WHAT, got: vers });
        }
        let n_cores = bytes[3] as usize;
        if n_cores > MAX_CORES {
            return Err(WireError::BadLength { what: WHAT, got: n_cores });
        }
        let advertised = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        let expected = Self::encoded_len(n_cores);
        if advertised != expected {
            return Err(WireError::BadLength { what: WHAT, got: advertised });
        }
        if bytes.len() < expected {
            return Err(WireError::Truncated { what: WHAT, needed: expected, got: bytes.len() });
        }
        Ok(expected)
    }

    /// Parses and validates a control message from `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        const WHAT: &str = "cbt control header";
        let b = &bytes[..Self::framed_len(bytes)?];
        if !verify_checksum(b) {
            return Err(WireError::BadChecksum { what: WHAT });
        }
        let group_addr = Addr(u32::from_be_bytes([b[8], b[9], b[10], b[11]]));
        let group = GroupId::new(group_addr).ok_or(WireError::BadField {
            what: WHAT,
            why: "group identifier is not a class-D address",
        })?;
        let n_cores = b[3] as usize;
        let mut cores = Vec::with_capacity(n_cores);
        for i in 0..n_cores {
            let off = CONTROL_FIXED_LEN + 4 * i;
            cores.push(Addr(u32::from_be_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])));
        }
        Ok(CbtControlHeader {
            typ: b[1],
            code: b[2],
            group,
            origin: Addr(u32::from_be_bytes([b[12], b[13], b[14], b[15]])),
            target_core: Addr(u32::from_be_bytes([b[16], b[17], b[18], b[19]])),
            cores,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> GroupId {
        GroupId::numbered(7)
    }

    #[test]
    fn data_header_round_trip() {
        let h = CbtDataHeader::new(
            group(),
            Addr::from_octets(10, 0, 0, 4),
            Addr::from_octets(192, 168, 1, 5),
            64,
        );
        let bytes = h.encode();
        assert_eq!(bytes.len(), CBT_DATA_HEADER_LEN);
        let back = CbtDataHeader::decode(&bytes).unwrap();
        assert_eq!(back, h);
        assert!(!back.is_on_tree());
    }

    #[test]
    fn data_header_on_tree_round_trip() {
        let mut h = CbtDataHeader::new(group(), Addr::NULL, Addr::from_octets(1, 2, 3, 4), 9);
        h.on_tree = ON_TREE;
        let back = CbtDataHeader::decode(&h.encode()).unwrap();
        assert!(back.is_on_tree());
    }

    #[test]
    fn data_header_rejects_corruption() {
        let h = CbtDataHeader::new(group(), Addr::NULL, Addr::from_octets(1, 2, 3, 4), 9);
        let mut bytes = h.encode();
        bytes[9] ^= 0x40;
        assert!(matches!(CbtDataHeader::decode(&bytes), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn data_header_rejects_truncation() {
        let h = CbtDataHeader::new(group(), Addr::NULL, Addr::from_octets(1, 2, 3, 4), 9);
        let bytes = h.encode();
        for cut in 0..CBT_DATA_HEADER_LEN {
            assert!(CbtDataHeader::decode(&bytes[..cut]).is_err(), "accepted {cut} bytes");
        }
    }

    #[test]
    fn data_header_rejects_bad_version() {
        let h = CbtDataHeader::new(group(), Addr::NULL, Addr::from_octets(1, 2, 3, 4), 9);
        let mut bytes = h.encode();
        bytes[0] = 2 << 4;
        // Re-checksum so only the version is wrong.
        bytes[4] = 0;
        bytes[5] = 0;
        let ck = internet_checksum(&bytes);
        bytes[4..6].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(CbtDataHeader::decode(&bytes), Err(WireError::BadVersion { got: 2, .. })));
    }

    #[test]
    fn data_header_rejects_unicast_group() {
        let h = CbtDataHeader::new(group(), Addr::NULL, Addr::from_octets(1, 2, 3, 4), 9);
        let mut bytes = h.encode();
        bytes[8] = 10; // 10.x group address: not class-D
        bytes[4] = 0;
        bytes[5] = 0;
        let ck = internet_checksum(&bytes);
        bytes[4..6].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(CbtDataHeader::decode(&bytes), Err(WireError::BadField { .. })));
    }

    fn sample_control(n_cores: usize) -> CbtControlHeader {
        CbtControlHeader {
            typ: 1,
            code: 0,
            group: group(),
            origin: Addr::from_octets(10, 1, 1, 1),
            target_core: Addr::from_octets(10, 0, 0, 4),
            cores: (0..n_cores).map(|i| Addr::from_octets(10, 0, 0, 4 + i as u8)).collect(),
        }
    }

    #[test]
    fn control_round_trip_all_core_counts() {
        for n in 0..=MAX_CORES {
            let msg = sample_control(n);
            let bytes = msg.encode().unwrap();
            assert_eq!(bytes.len(), CbtControlHeader::encoded_len(n));
            let back = CbtControlHeader::decode(&bytes).unwrap();
            assert_eq!(back, msg, "n_cores = {n}");
        }
    }

    #[test]
    fn control_encode_rejects_more_than_max_cores() {
        // 9 cores (just over MAX_CORES) and 300 cores (past the 8-bit
        // count field, where the old cast wrapped) both error.
        for n in [MAX_CORES + 1, 300] {
            let mut msg = sample_control(0);
            msg.cores = (0..n as u32).map(Addr).collect();
            assert_eq!(msg.encode(), Err(WireError::TooManyCores { got: n }));
        }
    }

    #[test]
    fn control_rejects_core_count_mismatch() {
        let msg = sample_control(2);
        let mut bytes = msg.encode().unwrap();
        bytes[3] = 3; // lie about the count; length now inconsistent
        bytes[6] = 0;
        bytes[7] = 0;
        let ck = internet_checksum(&bytes);
        bytes[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(CbtControlHeader::decode(&bytes), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn control_rejects_flipped_bits_everywhere() {
        let bytes = sample_control(3).encode().unwrap();
        for byte in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[byte] ^= 0x01;
            assert!(
                CbtControlHeader::decode(&corrupted).is_err(),
                "corruption at byte {byte} went unnoticed"
            );
        }
    }

    #[test]
    fn control_trailing_bytes_are_ignored() {
        // Decoders take their length from the header so a UDP payload
        // with padding still parses.
        let msg = sample_control(1);
        let mut bytes = msg.encode().unwrap();
        bytes.extend_from_slice(&[0xaa; 7]);
        assert_eq!(CbtControlHeader::decode(&bytes).unwrap(), msg);
    }
}
