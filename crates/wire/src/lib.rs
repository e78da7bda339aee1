//! # cbt-wire — wire formats for Core Based Trees (CBT) multicast
//!
//! Byte-exact encode/decode of every packet format defined in
//! `draft-ietf-idmr-cbt-spec-03` section 8, plus the IGMP messages CBT
//! depends on (including the IGMPv3 `RP/Core-Report` proposed in the
//! spec's appendix) and simplified-but-realistic IPv4/UDP shells used by
//! the simulator and the live tokio runtime.
//!
//! The crate is deliberately free of any I/O or protocol *logic*: it only
//! converts between typed Rust values and bytes, validating versions,
//! lengths and 16-bit one's-complement checksums on the way in. The
//! protocol engine lives in the `cbt` crate and consumes these types.
//!
//! ## Layout fidelity and resolved ambiguities
//!
//! The Internet-Draft leaves a few fields "T.B.D."; this implementation
//! resolves them as follows (documented here and in `DESIGN.md`):
//!
//! * **CBT data header (Fig. 7)** — the `on-tree|unused` byte is encoded
//!   as a full octet carrying `0x00` (off-tree) or `0xff` (on-tree),
//!   matching the values the spec text uses in section 7. The
//!   `flow identifier` and `security fields` words are carried verbatim
//!   (zero by default), giving a fixed 32-byte header.
//! * **CBT control header (Fig. 8)** — the `Resource Reservation` and
//!   `security` words are each encoded as two all-zero 32-bit words.
//!   `# cores` counts the trailing core-address list (0..=8 supported;
//!   the spec recommends implementations use no more than ~3).
//! * **Echo aggregation (Fig. 9)** — an aggregated echo re-purposes the
//!   `# cores` octet as the `aggregate` flag (`0xff` aggregated, `0x00`
//!   single-group) and the word after the group identifier as the group
//!   mask, exactly as drawn in the figure.
//! * **IP protocol numbers** — CBT-mode data packets use IP protocol 7,
//!   which is the IANA assignment for CBT. Control messages travel in
//!   UDP (protocol 17) on ports 7777/7778 per section 3.
//!
//! ## Example
//!
//! ```
//! use cbt_wire::{Addr, ControlMessage, GroupId, JoinSubcode};
//!
//! let join = ControlMessage::JoinRequest {
//!     subcode: JoinSubcode::ActiveJoin,
//!     group: GroupId::numbered(1),
//!     origin: Addr::from_octets(10, 1, 0, 1),
//!     target_core: Addr::from_octets(10, 255, 0, 4),
//!     cores: vec![Addr::from_octets(10, 255, 0, 4)],
//! };
//! let mut bytes = Vec::new(); // one scratch buffer, reused per message
//! join.encode_into(&mut bytes).unwrap(); // checksummed §8.2 layout
//! assert_eq!(ControlMessage::decode(&bytes).unwrap(), join);
//!
//! // Corruption anywhere is caught by the one's-complement checksum.
//! let mut bad = bytes.clone();
//! bad[9] ^= 0x10;
//! assert!(ControlMessage::decode(&bad).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod addr;
pub mod checksum;
pub mod control;
pub mod data;
pub mod error;
pub mod header;
pub mod igmp;
pub mod ipv4;
pub mod udp;

pub use addr::{Addr, GroupId, ALL_CBT_ROUTERS, ALL_ROUTERS, ALL_SYSTEMS};
pub use control::{AckSubcode, ControlMessage, ControlType, JoinSubcode};
pub use data::{encode_native_into, CbtDataPacket, DataPacket};
pub use error::WireError;
pub use header::{CbtControlHeader, CbtDataHeader, CBT_VERSION};
pub use igmp::{IgmpMessage, IgmpType, RpCoreReport};
pub use ipv4::{IpProto, Ipv4Header};
pub use udp::{UdpHeader, CBT_AUX_PORT, CBT_PRIMARY_PORT};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, WireError>;

/// What one of the in-place writers leaves in a fresh buffer.
#[cfg(test)]
fn written(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::new();
    write(&mut buf);
    buf
}
