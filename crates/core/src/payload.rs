//! What a host application keeps of its deliveries: a [`Deliveries`]
//! log of one fixed-size header per delivery, with short payloads
//! copied back to back into one arena and long ones held by reference
//! into their arrival frame, chosen by length ([`RX_COPYBREAK`]).

use cbt_netsim::{Bytes, SimTime};
use cbt_wire::{Addr, GroupId};
use std::fmt;
use std::ops::Range;

/// Payloads of at least this many bytes are kept as a refcounted slice
/// of the (already validated) arrival frame; shorter ones are copied
/// into the log's arena and the frame is let go. The NIC
/// `rx_copybreak` rule: sharing saves the copy but pins the whole frame
/// for as long as the log is kept, which pays off only when many
/// members share one frame (DESIGN.md, "copybreak rule").
pub const RX_COPYBREAK: usize = 128;

/// One multicast payload delivered to a host application, read out of
/// its [`Deliveries`] log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery<'a> {
    /// When it arrived.
    pub at: SimTime,
    /// Group it was addressed to.
    pub group: GroupId,
    /// Originating end-system.
    pub src: Addr,
    /// Application payload.
    pub payload: &'a [u8],
}

/// A delivery as stored, 24 bytes: its payload is `len` bytes at `off`
/// in the arena, or `shared[off]` when `len` is [`SHARED`].
#[derive(Clone, Copy)]
struct Header {
    at: SimTime,
    group: GroupId,
    src: Addr,
    off: u32,
    len: u32,
}

const SHARED: u32 = u32::MAX;

/// Everything a host application has received, in arrival order.
/// Compares by content: which column holds a payload is not part of
/// its value.
#[derive(Clone, Default)]
pub struct Deliveries {
    headers: Vec<Header>,
    arena: Vec<u8>,
    shared: Vec<Bytes>,
}

impl Deliveries {
    /// Appends the delivery of the bytes `payload` of a received,
    /// validated `frame`: copied into the arena when shorter than
    /// [`RX_COPYBREAK`] and within reach of its `u32` offsets, held by
    /// reference otherwise.
    pub fn push(
        &mut self,
        at: SimTime,
        group: GroupId,
        src: Addr,
        frame: &Bytes,
        payload: Range<usize>,
    ) {
        let (off, len) = match u32::try_from(self.arena.len() + payload.len()) {
            Ok(end) if payload.len() < RX_COPYBREAK => {
                let len = payload.len() as u32; // < RX_COPYBREAK
                self.arena.extend_from_slice(&frame[payload]);
                (end - len, len)
            }
            _ => {
                self.shared.push(frame.slice(payload));
                (u32::try_from(self.shared.len() - 1).expect("< 2^32 shared payloads"), SHARED)
            }
        };
        self.headers.push(Header { at, group, src, off, len });
    }

    /// How many deliveries the log holds.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True when nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// The `i`-th delivery, oldest first.
    pub fn get(&self, i: usize) -> Option<Delivery<'_>> {
        let h = self.headers.get(i)?;
        let payload = match h.len {
            SHARED => &self.shared[h.off as usize][..],
            len => &self.arena[h.off as usize..][..len as usize],
        };
        Some(Delivery { at: h.at, group: h.group, src: h.src, payload })
    }

    /// The latest delivery.
    pub fn last(&self) -> Option<Delivery<'_>> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Every delivery, oldest first.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self, 0..self.len())
    }
}

/// The deliveries of a [`Deliveries`] log, oldest first.
pub struct Iter<'a>(&'a Deliveries, Range<usize>);

impl<'a> Iterator for Iter<'a> {
    type Item = Delivery<'a>;
    fn next(&mut self) -> Option<Delivery<'a>> {
        self.1.next().and_then(|i| self.0.get(i))
    }
}

impl<'a> IntoIterator for &'a Deliveries {
    type Item = Delivery<'a>;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Deliveries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl PartialEq for Deliveries {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}
impl Eq for Deliveries {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Model = Vec<(SimTime, GroupId, Addr, Vec<u8>)>;

    const LENS: [usize; 5] = [0, 1, RX_COPYBREAK - 1, RX_COPYBREAK, 1400];

    /// A frame carrying `body` after a few bytes of stand-in headers,
    /// and where in it `body` sits.
    fn frame(body: &[u8]) -> (Bytes, Range<usize>) {
        let mut f = vec![0xEE; 5];
        f.extend_from_slice(body);
        (Bytes::from(f), 5..5 + body.len())
    }

    fn check(log: &Deliveries, model: &Model) {
        fn view((at, group, src, p): &(SimTime, GroupId, Addr, Vec<u8>)) -> Delivery<'_> {
            Delivery { at: *at, group: *group, src: *src, payload: p }
        }
        assert_eq!(log.len(), model.len());
        assert_eq!(log.is_empty(), model.is_empty());
        assert_eq!(log.last(), model.last().map(view));
        assert!(log.iter().eq(model.iter().map(view)));
        for (i, m) in model.iter().enumerate() {
            assert_eq!(log.get(i), Some(view(m)));
        }
        assert_eq!(log.get(model.len()), None);
    }

    /// A log of the model's deliveries, pushed in order.
    fn log_of(model: &[(SimTime, GroupId, Addr, Vec<u8>)]) -> Deliveries {
        let mut log = Deliveries::default();
        for (at, group, src, body) in model {
            let (f, range) = frame(body);
            log.push(*at, *group, *src, &f, range);
        }
        log
    }

    proptest! {
        /// The log reads back exactly what a plain vector of owned
        /// deliveries holds, short (copied) and long (shared) payloads
        /// interleaved. It equals its clone and a log holding every
        /// payload by reference, and differs from one whose last
        /// payload differs.
        #[test]
        fn reads_back_what_a_vec_of_owned_deliveries_holds(
            pushes in proptest::collection::vec(
                (0usize..LENS.len(), any::<u8>(), 0u64..1_000_000),
                0..48,
            ),
        ) {
            let (mut log, mut model) = (Deliveries::default(), Model::new());
            for (n, (k, fill, us)) in pushes.into_iter().enumerate() {
                let body: Vec<u8> = (0..LENS[k]).map(|i| fill.wrapping_add(i as u8)).collect();
                let (at, group, src) =
                    (SimTime::from_micros(us), GroupId::numbered(n as u16 % 3 + 1), Addr(n as u32));
                let (f, range) = frame(&body);
                log.push(at, group, src, &f, range);
                model.push((at, group, src, body));
                check(&log, &model);
            }
            let copy = log.clone();
            prop_assert_eq!(&copy, &log);
            check(&copy, &model);
            let by_reference = Deliveries {
                headers: log
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        Header { at: d.at, group: d.group, src: d.src, off: i as u32, len: SHARED }
                    })
                    .collect(),
                arena: Vec::new(),
                shared: log.iter().map(|d| Bytes::from(d.payload.to_vec())).collect(),
            };
            prop_assert_eq!(&by_reference, &log);
            if let Some(last) = model.last_mut() {
                last.3.push(b'x');
                prop_assert_ne!(&log_of(&model), &log);
            }
        }
    }

    /// A short payload that would take the arena's `u32` offsets past
    /// `u32::MAX` is held by reference instead; one that ends exactly at
    /// `u32::MAX` is still copied. (The arena is a lazily zeroed
    /// mapping: its pages are never touched but the last one.)
    #[test]
    fn a_copy_past_u32_offsets_is_held_by_reference_instead() {
        let mut log = Deliveries { arena: vec![0u8; u32::MAX as usize], ..Deliveries::default() };
        log.arena.truncate(u32::MAX as usize - 2);
        let (at, g, src) = (SimTime::ZERO, GroupId::numbered(1), Addr(7));
        for body in [&b"ab"[..], b"c", b""] {
            let (f, range) = frame(body);
            log.push(at, g, src, &f, range);
        }
        assert_eq!(log.arena.len(), u32::MAX as usize);
        assert_eq!(log.shared.len(), 1);
        let payloads: Vec<&[u8]> = log.iter().map(|d| d.payload).collect();
        assert_eq!(payloads, [&b"ab"[..], b"c", b""]);
        assert_eq!(log.headers[1].len, SHARED);
    }

    /// A delivery's stored header is at most 24 bytes: a short delivery
    /// costs its header plus its payload bytes, a long one the header
    /// plus a 16-byte frame handle.
    #[test]
    fn a_stored_delivery_is_at_most_24_bytes_plus_its_payload_or_handle() {
        assert!(std::mem::size_of::<Header>() <= 24);
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
    }
}
