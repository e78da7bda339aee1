//! What a host application is handed for one delivery: the payload
//! bytes, either copied out of the arrival frame or a refcounted slice
//! of it, chosen by length ([`RX_COPYBREAK`]).

use cbt_netsim::Bytes;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Deref, Range};

/// Payloads of at least this many bytes are handed up as a refcounted
/// slice of the (already validated) arrival frame; shorter ones are
/// copied into an exactly-sized buffer and the frame is let go.
///
/// This is the NIC-driver `rx_copybreak` rule. Sharing saves the
/// allocation, the copy and the first-touch page faults of a second
/// buffer, but pins the whole frame — 28 bytes of headers, the buffer's
/// spare capacity and its refcount block — for as long as the
/// application keeps the delivery. On a 16-member LAN every member
/// shares one frame and the saving is large; for a short payload that
/// lands once per LAN the pinned overhead more than doubles the
/// footprint (sharing every payload measured `lan_sim_flood` peak RSS
/// 441 → 707 MB at 64 B — EXPERIMENTS.md "Repo benchmark ledger").
pub const RX_COPYBREAK: usize = 128;

/// One delivery's application payload. Derefs to `[u8]` and compares
/// with slices, arrays and `Vec<u8>`; whether the bytes are owned or a
/// view of the arrival frame is not part of its value.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    Copied(Box<[u8]>),
    Shared(Bytes),
}

impl Payload {
    /// Takes the bytes `at` of a received, validated `frame` for the
    /// application: by reference when there are at least
    /// [`RX_COPYBREAK`] of them, by copy otherwise.
    pub fn from_frame(frame: &Bytes, at: Range<usize>) -> Self {
        if at.len() >= RX_COPYBREAK {
            Payload(Repr::Shared(frame.slice(at)))
        } else {
            Payload(Repr::Copied(frame[at].into()))
        }
    }

    /// True when the payload is a view into `frame`'s allocation (the
    /// zero-copy witness, as [`Bytes::shares_allocation_with`]).
    pub fn shares_allocation_with(&self, frame: &Bytes) -> bool {
        match &self.0 {
            Repr::Copied(_) => false,
            Repr::Shared(b) => b.shares_allocation_with(frame),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Copied(b) => b,
            Repr::Shared(b) => b,
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
impl Eq for Payload {}

impl PartialOrd for Payload {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Payload {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}
impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}
impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == other[..]
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_by_content_whatever_the_representation() {
        let bytes = vec![3u8; RX_COPYBREAK];
        let shared = Payload::from_frame(&Bytes::from(bytes.clone()), 0..bytes.len());
        assert!(matches!(shared.0, Repr::Shared(_)));
        let copied = Payload(Repr::Copied(bytes.clone().into()));
        assert_eq!(shared, copied);
        assert_eq!(shared.cmp(&copied), Ordering::Equal);
        assert_eq!(shared, bytes);
        assert_eq!(shared, &bytes[..]);
        let hi = Payload::from_frame(&Bytes::from(b"hi".to_vec()), 0..2);
        assert_eq!(hi, b"hi");
        assert_eq!(hi, *b"hi");
        assert_eq!(format!("{hi:?}"), "[104, 105]");
        assert!(hi > Payload::from_frame(&Bytes::from(b"ha".to_vec()), 0..2));
    }

    /// [`Delivery`](crate::Delivery) stays 40 bytes: a `Payload` is no
    /// bigger than the `Vec<u8>` it replaces.
    #[test]
    fn payload_is_no_bigger_than_a_vec() {
        assert_eq!(std::mem::size_of::<Payload>(), std::mem::size_of::<Vec<u8>>());
        assert_eq!(std::mem::size_of::<crate::Delivery>(), 40);
    }
}
