//! The Forwarding Information Base (spec §5, Fig. 4): per-group
//! parent/child state, one entry per group this router is on-tree for.
//!
//! "CBT routers create FIB entries whenever they send or receive a
//! JOIN_ACK (with the exception of a proxy-ack). The FIB describes the
//! parent-child relationships on a per-group basis" — plus, here, the
//! keepalive bookkeeping (last echo times) that §6.1/§9 hang off those
//! relationships.

use cbt_netsim::SimTime;
use cbt_topology::IfIndex;
use cbt_wire::{Addr, GroupId};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum children per group entry. Fig. 4's field widths "assume a
/// maximum of 16 directly connected neighbouring routers".
pub const MAX_CHILDREN: usize = 16;

/// The parent half of a FIB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parent {
    /// Parent router's address (next tree hop toward the core).
    pub addr: Addr,
    /// Interface ("parent vif") the parent is reached through.
    pub iface: IfIndex,
    /// Last time an ECHO_REPLY (or any liveness proof) arrived.
    pub last_reply: SimTime,
    /// When the next ECHO_REQUEST is due.
    pub next_echo: SimTime,
}

/// One child in a FIB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Child {
    /// Child router's address.
    pub addr: Addr,
    /// Interface ("child vif") the child is reached through.
    pub iface: IfIndex,
    /// Last time an ECHO_REQUEST arrived from this child.
    pub last_heard: SimTime,
    /// Deadline of the one CHILD-ASSERT liveness tuple the engine has
    /// filed for this child (`<= last_heard + CHILD-ASSERT-EXPIRE`; an
    /// echo moves `last_heard` only, the sweep re-files). Set by the
    /// engine; [`FibEntry::add_child`] alone leaves the adoption
    /// instant here.
    pub filed: SimTime,
}

/// A per-group FIB entry.
#[derive(Debug, Clone, Default)]
pub struct FibEntry {
    /// Upstream attachment; `None` exactly when this router is the
    /// group's primary core ("R4 does not have a parent since it is the
    /// primary core", §5) — or a core whose own rejoin is in flight.
    pub parent: Option<Parent>,
    /// Downstream attachments.
    pub children: Vec<Child>,
    /// Ordered core list for the group, primary first, as learned from
    /// joins/acks ("the full list of core addresses is carried in a
    /// JOIN-ACK", §8.3).
    pub cores: Vec<Addr>,
    /// True if this router is one of the group's cores.
    pub i_am_core: bool,
}

impl FibEntry {
    /// The primary core (first of the core list).
    pub fn primary_core(&self) -> Option<Addr> {
        self.cores.first().copied()
    }

    /// Adds (or refreshes) a child. Returns `false` when the entry is
    /// full ([`MAX_CHILDREN`]) and the child is new.
    pub fn add_child(&mut self, addr: Addr, iface: IfIndex, now: SimTime) -> bool {
        self.add_child_capped(addr, iface, now, MAX_CHILDREN)
    }

    /// [`add_child`](Self::add_child) with a configurable branching cap
    /// (`CbtConfig::max_children`) — netscale transit routers parent
    /// far more than Fig. 4's 16 neighbours.
    pub fn add_child_capped(
        &mut self,
        addr: Addr,
        iface: IfIndex,
        now: SimTime,
        cap: usize,
    ) -> bool {
        if let Some(c) = self.children.iter_mut().find(|c| c.addr == addr) {
            c.iface = iface;
            c.last_heard = now;
            return true;
        }
        if self.children.len() >= cap {
            return false;
        }
        self.children.push(Child { addr, iface, last_heard: now, filed: now });
        true
    }

    /// Removes a child by address; returns whether it existed.
    pub fn remove_child(&mut self, addr: Addr) -> bool {
        let before = self.children.len();
        self.children.retain(|c| c.addr != addr);
        self.children.len() != before
    }

    /// Is `addr` one of this entry's children?
    pub fn has_child(&self, addr: Addr) -> bool {
        self.children.iter().any(|c| c.addr == addr)
    }

    /// Is `iface` a valid on-tree interface for this entry (§7)?
    pub fn is_tree_iface(&self, iface: IfIndex) -> bool {
        self.parent.is_some_and(|p| p.iface == iface)
            || self.children.iter().any(|c| c.iface == iface)
    }

    /// Is `addr` this entry's parent?
    pub fn is_parent(&self, addr: Addr) -> bool {
        self.parent.is_some_and(|p| p.addr == addr)
    }
}

/// A stable handle to one group's dense FIB slot, valid until the next
/// insert or remove. Data-plane code resolves a group to its slot once
/// per burst and then indexes directly, instead of probing the index
/// per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSlot(usize);

impl GroupSlot {
    /// The slot's position in the dense vector, for per-slot side
    /// tables such as the engine's spanning entries.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Deterministic hasher for `GroupId` keys. The group address is
/// already a well-mixed 32-bit value after the splitmix-style finisher,
/// and — unlike std's randomly seeded SipHash — the same group hashes
/// the same in every process, which the sharded engine's steering and
/// the determinism suite both rely on.
#[derive(Debug, Default)]
pub struct GroupIdHasher(u64);

/// The splitmix64 finisher: full avalanche on sequential inputs. What
/// this crate's deterministic hashers end with.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Hasher for GroupIdHasher {
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-u32 key parts (none today).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.0 ^= u64::from(x);
    }
}

/// Hash map keyed by group with the deterministic [`GroupIdHasher`].
pub type GroupIndex<V> = HashMap<GroupId, V, BuildHasherDefault<GroupIdHasher>>;

/// The full FIB: group → entry.
///
/// Entries live in a dense slot vector. Two indexes point into it:
///
/// * `index` — a hash map ([`GroupIndex`], deterministic hasher) giving
///   the per-packet group → slot lookup in O(1); with a `BTreeMap` here
///   the sharded hot path paid an ordered walk per burst.
/// * `order` — a sorted group set kept in lockstep, so every iteration
///   API stays deterministic (sorted by group — the determinism suite
///   depends on this order). Insert/remove pay the O(log n) twice; both
///   are control-plane operations.
///
/// The slot layer exists for the data plane: [`Fib::slot`] pays the
/// hash lookup once per burst, after which [`Fib::at`] is a
/// bounds-checked index.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    index: GroupIndex<usize>,
    order: BTreeSet<GroupId>,
    slots: Vec<Option<FibEntry>>,
    free: Vec<usize>,
}

impl Fib {
    /// Empty FIB.
    pub fn new() -> Self {
        Fib::default()
    }

    /// Entry for `group`, if on-tree.
    pub fn get(&self, group: GroupId) -> Option<&FibEntry> {
        self.index.get(&group).map(|&s| self.slots[s].as_ref().expect("indexed slot is live"))
    }

    /// Mutable entry for `group`.
    pub fn get_mut(&mut self, group: GroupId) -> Option<&mut FibEntry> {
        let s = *self.index.get(&group)?;
        Some(self.slots[s].as_mut().expect("indexed slot is live"))
    }

    /// Resolves `group` to its dense slot — the once-per-burst half of
    /// a data-plane lookup. The handle is invalidated by any insert or
    /// remove.
    pub fn slot(&self, group: GroupId) -> Option<GroupSlot> {
        self.index.get(&group).map(|&s| GroupSlot(s))
    }

    /// Direct slot access — the per-packet half of a data-plane lookup.
    pub fn at(&self, slot: GroupSlot) -> &FibEntry {
        self.slots[slot.0].as_ref().expect("slot handle outlived its entry")
    }

    /// Creates (or returns) the entry for `group`.
    pub fn entry(&mut self, group: GroupId) -> &mut FibEntry {
        let s = match self.index.get(&group) {
            Some(&s) => s,
            None => {
                let s = match self.free.pop() {
                    Some(s) => {
                        self.slots[s] = Some(FibEntry::default());
                        s
                    }
                    None => {
                        // One slot at a time, as `RouterObs` grows its
                        // rows: doubling would leave slack a router
                        // keeps for as long as it stays on-tree.
                        self.slots.reserve_exact(1);
                        self.slots.push(Some(FibEntry::default()));
                        self.slots.len() - 1
                    }
                };
                self.index.insert(group, s);
                self.order.insert(group);
                s
            }
        };
        self.slots[s].as_mut().expect("indexed slot is live")
    }

    /// Deletes the entry for `group`; returns it if it existed. Deleting
    /// the last entry frees every table — an off-tree router owns no FIB
    /// memory.
    pub fn remove(&mut self, group: GroupId) -> Option<FibEntry> {
        let s = self.index.remove(&group)?;
        let entry = self.slots[s].take().expect("indexed slot is live");
        if self.index.is_empty() {
            *self = Fib::default();
        } else {
            self.order.remove(&group);
            self.free.push(s);
        }
        Some(entry)
    }

    /// Is this router on-tree for `group`?
    pub fn on_tree(&self, group: GroupId) -> bool {
        self.index.contains_key(&group)
    }

    /// All on-tree groups, sorted.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.order.iter().copied()
    }

    /// All (group, entry) pairs, sorted by group. (The sorted `order`
    /// set drives iteration — never the hash index, whose bucket order
    /// is not part of the determinism contract.)
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &FibEntry)> {
        self.order
            .iter()
            .map(|g| (*g, self.slots[self.index[g]].as_ref().expect("indexed slot is live")))
    }

    /// Mutable iteration, sorted by group. (Control-plane only — the
    /// per-call scatter vector is fine off the packet path.)
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (GroupId, &mut FibEntry)> {
        let Fib { index, order, slots, .. } = self;
        let mut refs: Vec<Option<&mut FibEntry>> = slots.iter_mut().map(|o| o.as_mut()).collect();
        order.iter().map(move |g| (*g, refs[index[g]].take().expect("indexed slot is live")))
    }

    /// Number of entries — the "state per router" metric of experiment
    /// S93-T1.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no groups are on-tree.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> GroupId {
        GroupId::numbered(1)
    }

    fn a(n: u8) -> Addr {
        Addr::from_octets(10, 0, 0, n)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn entry_lifecycle() {
        let mut fib = Fib::new();
        assert!(!fib.on_tree(g()));
        assert!(fib.is_empty());
        let e = fib.entry(g());
        e.cores = vec![a(4), a(9)];
        assert!(fib.on_tree(g()));
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.get(g()).unwrap().primary_core(), Some(a(4)));
        assert!(fib.remove(g()).is_some());
        assert!(fib.is_empty());
    }

    #[test]
    fn children_add_refresh_remove() {
        let mut e = FibEntry::default();
        assert!(e.add_child(a(1), IfIndex(0), t(0)));
        assert!(e.add_child(a(2), IfIndex(1), t(0)));
        assert!(e.has_child(a(1)));
        // Re-adding refreshes instead of duplicating.
        assert!(e.add_child(a(1), IfIndex(0), t(5)));
        assert_eq!(e.children.len(), 2);
        assert_eq!(e.children[0].last_heard, t(5));
        assert!(e.remove_child(a(1)));
        assert!(!e.remove_child(a(1)));
        assert_eq!(e.children.len(), 1);
    }

    #[test]
    fn child_capacity_is_sixteen() {
        let mut e = FibEntry::default();
        for i in 0..MAX_CHILDREN {
            assert!(e.add_child(a(i as u8 + 1), IfIndex(0), t(0)), "child {i}");
        }
        assert!(!e.add_child(a(200), IfIndex(0), t(0)), "17th child rejected");
        // But refreshing an existing one still works at capacity.
        assert!(e.add_child(a(1), IfIndex(0), t(9)));
    }

    #[test]
    fn tree_iface_and_parent_tests() {
        let mut e = FibEntry {
            parent: Some(Parent {
                addr: a(9),
                iface: IfIndex(3),
                last_reply: t(0),
                next_echo: t(30),
            }),
            ..Default::default()
        };
        e.add_child(a(1), IfIndex(0), t(0));
        assert!(e.is_tree_iface(IfIndex(3)), "parent vif");
        assert!(e.is_tree_iface(IfIndex(0)), "child vif");
        assert!(!e.is_tree_iface(IfIndex(7)));
        assert!(e.is_parent(a(9)));
        assert!(!e.is_parent(a(1)));
    }

    #[test]
    fn slot_handles_survive_edits_and_other_inserts() {
        let mut fib = Fib::new();
        fib.entry(g()).cores = vec![a(4)];
        let slot = fib.slot(g()).expect("on-tree");
        assert_eq!(fib.at(slot).primary_core(), Some(a(4)));
        // Mutating an entry in place does not move slots...
        fib.get_mut(g()).unwrap().add_child(a(1), IfIndex(0), t(1));
        assert_eq!(fib.at(slot).children.len(), 1);
        // ...and neither does another group's insert.
        fib.entry(GroupId::numbered(2));
        assert_eq!(fib.slot(g()), Some(slot), "existing entries keep their slot");
    }

    #[test]
    fn removed_slots_are_reused() {
        let mut fib = Fib::new();
        fib.entry(GroupId::numbered(1));
        fib.entry(GroupId::numbered(2));
        assert!(fib.remove(GroupId::numbered(1)).is_some());
        assert!(!fib.on_tree(GroupId::numbered(1)));
        fib.entry(GroupId::numbered(3));
        // Group 3 recycled group 1's slot: the dense vector stays dense.
        assert_eq!(fib.slots.iter().filter(|s| s.is_some()).count(), 2);
        assert_eq!(fib.slots.len(), 2);
        assert_eq!(fib.slots.capacity(), 2, "slots grow one at a time");
        let gs: Vec<_> = fib.groups().collect();
        assert_eq!(gs, vec![GroupId::numbered(2), GroupId::numbered(3)]);
    }

    #[test]
    fn removing_the_last_entry_frees_the_tables() {
        let mut fib = Fib::new();
        for n in 1..=3 {
            fib.entry(GroupId::numbered(n));
        }
        for n in 1..=3 {
            assert!(fib.remove(GroupId::numbered(n)).is_some());
        }
        assert!(fib.is_empty());
        assert_eq!(fib.index.capacity(), 0);
        assert_eq!((fib.slots.capacity(), fib.free.capacity()), (0, 0));
    }

    #[test]
    fn iter_mut_is_sorted_and_hits_every_entry() {
        let mut fib = Fib::new();
        for n in [5u16, 1, 3] {
            fib.entry(GroupId::numbered(n));
        }
        let mut seen = Vec::new();
        for (g, e) in fib.iter_mut() {
            e.i_am_core = true;
            seen.push(g);
        }
        assert_eq!(seen, vec![GroupId::numbered(1), GroupId::numbered(3), GroupId::numbered(5)]);
        assert!(fib.iter().all(|(_, e)| e.i_am_core));
    }

    #[test]
    fn hash_index_and_order_stay_in_lockstep_under_churn() {
        let mut fib = Fib::new();
        let mut live = std::collections::BTreeSet::new();
        let mut x: u32 = 1;
        for _ in 0..2000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let g = GroupId::numbered((x >> 16) as u16 % 64);
            if live.remove(&g) {
                assert!(fib.remove(g).is_some());
            } else {
                fib.entry(g);
                live.insert(g);
            }
            assert_eq!(fib.len(), live.len());
        }
        let sorted: Vec<_> = live.iter().copied().collect();
        assert_eq!(fib.groups().collect::<Vec<_>>(), sorted, "iteration stays sorted under churn");
        for g in sorted {
            assert!(fib.on_tree(g) && fib.get(g).is_some(), "hash index agrees with order set");
        }
    }

    #[test]
    fn groups_iteration_is_sorted() {
        let mut fib = Fib::new();
        fib.entry(GroupId::numbered(5));
        fib.entry(GroupId::numbered(1));
        fib.entry(GroupId::numbered(3));
        let gs: Vec<_> = fib.groups().collect();
        assert_eq!(
            gs,
            vec![GroupId::numbered(1), GroupId::numbered(3), GroupId::numbered(5)],
            "BTreeMap keeps deterministic order"
        );
    }
}
