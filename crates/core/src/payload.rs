//! What a host application keeps of its deliveries: a [`Deliveries`]
//! log of one 16-byte record per delivery, with short payloads copied
//! back to back into one arena and long ones held by reference into
//! their arrival frame, chosen by length ([`RX_COPYBREAK`]). A record
//! names its `(group, source)` pair by index into a per-log table, so
//! a flood from a few senders to a few groups pays for each pair once.
//!
//! The log owns its columns outright, so a push checks no reference
//! count on them. A [`Deliveries::snapshot`] moves them behind one `Arc` the
//! snapshot shares; the log's next push takes them back out, copying
//! them only while the snapshot is still alive.

use cbt_netsim::{Bytes, SimTime};
use cbt_wire::{Addr, GroupId};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

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

/// A delivery as stored, 16 bytes. Its payload is `tag & LEN` bytes
/// at `loc` in the arena, or `shared[loc]` when that low byte is
/// [`SHARED`]; `tag >> PAIR_SHIFT` indexes its `(group, source)` pair.
#[derive(Clone, Copy)]
struct Record {
    at: SimTime,
    loc: u32,
    tag: u32,
}

/// The tag's low byte: a copied payload's length, always below
/// [`RX_COPYBREAK`], or [`SHARED`].
const LEN: u32 = 0xFF;
const SHARED: u32 = LEN;
const PAIR_SHIFT: u32 = 8;
const _: () = assert!(RX_COPYBREAK <= SHARED as usize, "a copied length fits below SHARED");

/// A log's columns, shared with its snapshots until it pushes again.
#[derive(Clone, Default)]
struct Columns {
    records: Vec<Record>,
    arena: Vec<u8>,
    shared: Vec<Bytes>,
    /// The log's `(group, source)` pairs: row `i` holds the pair a tag
    /// names by index `i`, in first-seen order.
    pairs: Vec<PairRow>,
    /// The row the last push used: a flood re-hits it.
    hit: u32,
}

/// One row of a log's pair table, 12 bytes. The `by_key` column,
/// read top to bottom, lists the rows in key order, so one column
/// serves both the tags' index and the binary search.
#[derive(Clone, Copy)]
struct PairRow {
    key: (GroupId, Addr),
    by_key: u32,
}

impl Columns {
    /// The row of `key`, added when new: the last hit, or a binary
    /// search through `by_key`. A new pair shifts the `by_key` column
    /// below its place once, O(p) for p pairs.
    fn pair(&mut self, key: (GroupId, Addr)) -> u32 {
        if self.pairs.get(self.hit as usize).is_some_and(|r| r.key == key) {
            return self.hit;
        }
        let rows = &self.pairs;
        self.hit = match rows.binary_search_by(|r| rows[r.by_key as usize].key.cmp(&key)) {
            Ok(at) => rows[at].by_key,
            Err(at) => {
                let i = u32::try_from(rows.len())
                    .ok()
                    .filter(|&i| i < 1 << (32 - PAIR_SHIFT))
                    .expect("< 2^24 (group, source) pairs per log");
                self.pairs.push(PairRow { key, by_key: i });
                for k in (at + 1..self.pairs.len()).rev() {
                    self.pairs[k].by_key = self.pairs[k - 1].by_key;
                }
                self.pairs[at].by_key = i;
                i
            }
        };
        self.hit
    }
}

/// Everything a host application has received, in arrival order.
/// Compares by content: which column holds a payload, and which index
/// a pair has, is not part of its value. Cloning copies the columns;
/// [`snapshot`](Self::snapshot) shares them.
#[derive(Clone, Default)]
pub struct Deliveries {
    /// The columns while no snapshot shares them: empty, and so no
    /// heap, on an idle host.
    own: Columns,
    /// The columns since the last snapshot, which shares them, until
    /// the next push takes them back into `own`.
    shared: Option<Arc<Columns>>,
}

impl Deliveries {
    /// The columns, wherever they are.
    fn cols(&self) -> &Columns {
        self.shared.as_deref().unwrap_or(&self.own)
    }

    /// Appends the delivery of the bytes `payload` of a received,
    /// validated `frame`: copied into the arena when shorter than
    /// [`RX_COPYBREAK`] and within reach of its `u32` offsets, held by
    /// reference otherwise. After a snapshot, first takes the columns
    /// back, copying them if the snapshot is still alive.
    pub fn push(
        &mut self,
        at: SimTime,
        group: GroupId,
        src: Addr,
        frame: &Bytes,
        payload: Range<usize>,
    ) {
        if let Some(shared) = self.shared.take() {
            self.own = Self::take_back(shared);
        }
        let c = &mut self.own;
        let pair = c.pair((group, src));
        let (loc, len) = match u32::try_from(c.arena.len() + payload.len()) {
            Ok(end) if payload.len() < RX_COPYBREAK => {
                let len = payload.len() as u32; // < RX_COPYBREAK
                c.arena.extend_from_slice(&frame[payload]);
                (end - len, len)
            }
            _ => {
                c.shared.push(frame.slice(payload));
                (u32::try_from(c.shared.len() - 1).expect("< 2^32 shared payloads"), SHARED)
            }
        };
        c.records.push(Record { at, loc, tag: pair << PAIR_SHIFT | len });
    }

    /// The columns out of a snapshot's `Arc`: moved out when the
    /// snapshot is gone, copied while it lives. Out of line, because
    /// it runs once per snapshot and not once per push.
    #[cold]
    #[inline(never)]
    fn take_back(shared: Arc<Columns>) -> Columns {
        Arc::try_unwrap(shared).unwrap_or_else(|s| Columns::clone(&s))
    }

    /// The log as it stands, in O(1): the columns move behind an `Arc`
    /// the snapshot and the log share (one block, unless the log has
    /// not pushed since its last snapshot) until the log's next push.
    /// An empty log's snapshot allocates nothing.
    pub fn snapshot(&mut self) -> Deliveries {
        if self.is_empty() {
            return Deliveries::default();
        }
        let shared = self.shared.get_or_insert_with(|| Arc::new(std::mem::take(&mut self.own)));
        Deliveries { own: Columns::default(), shared: Some(Arc::clone(shared)) }
    }

    /// How many deliveries the log holds.
    pub fn len(&self) -> usize {
        self.cols().records.len()
    }

    /// True when nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th delivery, oldest first.
    pub fn get(&self, i: usize) -> Option<Delivery<'_>> {
        let c = self.cols();
        let r = c.records.get(i)?;
        let (group, src) = c.pairs[(r.tag >> PAIR_SHIFT) as usize].key;
        let payload = match r.tag & LEN {
            SHARED => &c.shared[r.loc as usize][..],
            len => &c.arena[r.loc as usize..][..len as usize],
        };
        Some(Delivery { at: r.at, group, src, payload })
    }

    /// The latest delivery.
    pub fn last(&self) -> Option<Delivery<'_>> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Every delivery, oldest first.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self, 0..self.len())
    }

    /// Heap bytes the log holds: the capacity of its columns and pair
    /// table, and since a snapshot the `Arc` block around them; 0
    /// before the first push. Shared payloads' frames are not counted:
    /// they belong to every member that received them. A snapshot
    /// reports the same block as its log until the log pushes again.
    pub fn mem_bytes(&self) -> usize {
        let c = self.cols();
        let columns = c.records.capacity() * size_of::<Record>()
            + c.arena.capacity()
            + c.shared.capacity() * size_of::<Bytes>()
            + c.pairs.capacity() * size_of::<PairRow>();
        // The `Arc` block: two reference counts, then the columns.
        let block =
            self.shared.as_ref().map_or(0, |_| 2 * size_of::<usize>() + size_of::<Columns>());
        columns + block
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

    /// How many `(group, source)` pairs the generated deliveries draw
    /// from, so the pair table is re-hit; a draw of `POOL` is a pair
    /// never seen before.
    const POOL: usize = 4;

    /// A frame carrying `body` after a few bytes of stand-in headers,
    /// and where in it `body` sits.
    fn frame(body: &[u8]) -> (Bytes, Range<usize>) {
        let mut f = vec![0xEE; 5];
        f.extend_from_slice(body);
        (Bytes::from(f), 5..5 + body.len())
    }

    fn check(log: &Deliveries, model: &[(SimTime, GroupId, Addr, Vec<u8>)]) {
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

    /// The generated deliveries: first `spread` of distinct pairs (more
    /// than 256 of them give pair indices wider than one byte), then
    /// `pushes`, each of a pool pair or a new one.
    fn model_of(spread: usize, pushes: &[(usize, u8, u64, usize)]) -> Model {
        let fresh = |n: usize| (GroupId::numbered(1000 + n as u16), Addr(0x0A00_0000 + n as u32));
        let first = (0..spread).map(|n| (LENS[n % LENS.len()], n as u8, n as u64, fresh(n)));
        let pushes = pushes.iter().enumerate().map(|(n, &(k, fill, us, p))| {
            let pair = match p {
                POOL => fresh(spread + n),
                p => (GroupId::numbered(p as u16 % 3 + 1), Addr(p as u32)),
            };
            (LENS[k], fill, us, pair)
        });
        first
            .chain(pushes)
            .map(|(len, fill, us, (group, src))| {
                let body = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                (SimTime::from_micros(us), group, src, body)
            })
            .collect()
    }

    fn any_pushes() -> impl Strategy<Value = Vec<(usize, u8, u64, usize)>> {
        proptest::collection::vec(
            (0usize..LENS.len(), any::<u8>(), 0u64..1_000_000, 0usize..=POOL),
            0..48,
        )
    }

    fn any_spread() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), 257usize..300]
    }

    proptest! {
        /// The log reads back exactly what a plain vector of owned
        /// deliveries holds, short (copied) and long (shared) payloads
        /// interleaved, pairs re-hit and new. It equals its clone and a
        /// log holding every payload by reference with its pairs
        /// indexed in another order, and differs from one whose last
        /// payload differs.
        #[test]
        fn reads_back_what_a_vec_of_owned_deliveries_holds(
            spread in any_spread(),
            pushes in any_pushes(),
        ) {
            let mut model = model_of(spread, &pushes);
            let mut log = log_of(&model[..spread]);
            check(&log, &model[..spread]);
            for (n, (at, group, src, body)) in model.iter().enumerate().skip(spread) {
                let (f, range) = frame(body);
                log.push(*at, *group, *src, &f, range);
                check(&log, &model[..=n]);
            }
            let distinct: std::collections::BTreeSet<_> =
                model.iter().map(|(_, group, src, _)| (*group, *src)).collect();
            let rows = &log.cols().pairs;
            prop_assert!(
                rows.iter().map(|r| rows[r.by_key as usize].key).eq(distinct),
                "every pair is one row, and by_key lists the rows in key order"
            );
            let copy = log.clone();
            prop_assert_eq!(&copy, &log);
            check(&copy, &model);
            let mut by_reference = Columns::default();
            for d in log.iter().collect::<Vec<_>>().into_iter().rev() {
                by_reference.pair((d.group, d.src));
            }
            for (i, d) in log.iter().enumerate() {
                let tag = by_reference.pair((d.group, d.src)) << PAIR_SHIFT | SHARED;
                by_reference.records.push(Record { at: d.at, loc: i as u32, tag });
                by_reference.shared.push(Bytes::from(d.payload.to_vec()));
            }
            let by_reference = Deliveries { own: by_reference, shared: None };
            prop_assert_eq!(&by_reference, &log);
            if let Some(last) = model.last_mut() {
                last.3.push(b'x');
                prop_assert_ne!(&log_of(&model), &log);
            }
        }

        /// A snapshot taken mid-stream shares the columns until the log
        /// pushes again, then keeps exactly the prefix it was taken at
        /// while the log goes on to hold every delivery.
        #[test]
        fn a_snapshot_is_unaffected_by_later_pushes(
            spread in any_spread(),
            pushes in any_pushes(),
            cut in any::<u16>(),
        ) {
            let model = model_of(spread, &pushes);
            let cut = usize::from(cut) % (model.len() + 1);
            let mut log = log_of(&model[..cut]);
            let snapshot = log.snapshot();
            let shares = |a: &Deliveries, b: &Deliveries| match (&a.shared, &b.shared) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
            prop_assert_eq!(shares(&log, &snapshot), cut > 0);
            for (at, group, src, body) in &model[cut..] {
                let (f, range) = frame(body);
                log.push(*at, *group, *src, &f, range);
            }
            prop_assert_eq!(shares(&log, &snapshot), cut > 0 && cut == model.len());
            check(&snapshot, &model[..cut]);
            check(&log, &model);
        }
    }

    /// A short payload that would take the arena's `u32` offsets past
    /// `u32::MAX` is held by reference instead; one that ends exactly at
    /// `u32::MAX` is still copied. (The arena is a lazily zeroed
    /// mapping: its pages are never touched but the last one.)
    #[test]
    fn a_copy_past_u32_offsets_is_held_by_reference_instead() {
        let mut arena = vec![0u8; u32::MAX as usize];
        arena.truncate(u32::MAX as usize - 2);
        let mut log = Deliveries { own: Columns { arena, ..Columns::default() }, shared: None };
        let (at, g, src) = (SimTime::ZERO, GroupId::numbered(1), Addr(7));
        for body in [&b"ab"[..], b"c", b""] {
            let (f, range) = frame(body);
            log.push(at, g, src, &f, range);
        }
        let c = log.cols();
        assert_eq!(c.arena.len(), u32::MAX as usize);
        assert_eq!(c.shared.len(), 1);
        let payloads: Vec<&[u8]> = log.iter().map(|d| d.payload).collect();
        assert_eq!(payloads, [&b"ab"[..], b"c", b""]);
        assert_eq!(c.records[1].tag & LEN, SHARED);
    }

    /// A delivery's stored record is 16 bytes: a short delivery costs
    /// its record plus its payload bytes, a long one the record plus a
    /// 16-byte frame handle. Its group and source cost 12 bytes once
    /// per distinct pair in the log.
    #[test]
    fn a_stored_delivery_is_16_bytes_plus_its_payload_or_handle() {
        assert_eq!(std::mem::size_of::<Record>(), 16);
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
        assert_eq!(std::mem::size_of::<PairRow>(), 12);
    }
}
