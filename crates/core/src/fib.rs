//! The Forwarding Information Base (spec §5, Fig. 4): per-group
//! parent/child state, one entry per group this router is on-tree for.
//!
//! "CBT routers create FIB entries whenever they send or receive a
//! JOIN_ACK (with the exception of a proxy-ack). The FIB describes the
//! parent-child relationships on a per-group basis" — plus, here, the
//! keepalive bookkeeping (last echo times) that §6.1/§9 hang off those
//! relationships.
//!
//! A router keeps one [`Fib`]: two exact-size columns sorted by group,
//! so its memory is the entries it holds and nothing more, and an
//! off-tree router holds none.

use cbt_netsim::{SimDuration, SimTime};
use cbt_topology::IfIndex;
use cbt_wire::{Addr, GroupId};

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

impl Parent {
    /// When this parent's keepalive clock next needs the engine: the
    /// next echo *or* the echo-timeout failure instant, whichever comes
    /// first.
    pub fn echo_deadline(&self, echo_timeout: SimDuration) -> SimTime {
        self.next_echo.min(self.last_reply + echo_timeout)
    }
}

/// One child in a FIB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Child {
    /// Child router's address.
    pub addr: Addr,
    /// Interface ("child vif") the child is reached through.
    pub iface: IfIndex,
    /// Last time an ECHO_REQUEST (or a re-ack) arrived from this child.
    /// The CHILD-ASSERT sweep drops the child once CHILD-ASSERT-EXPIRE
    /// has passed since; it is the child's only liveness state.
    pub last_heard: SimTime,
}

/// A per-group FIB entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        self.children.push(Child { addr, iface, last_heard: now });
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

/// A handle to one group's FIB entry: its position in the sorted
/// columns, valid until the next insert or remove. Data-plane code
/// resolves a packet's group to its slot once and then indexes the
/// entry and its spanning entry directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSlot(usize);

impl GroupSlot {
    /// The entry's position, for per-slot side tables such as the
    /// engine's spanning entries.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// The full FIB: group → entry.
///
/// Two columns at exact capacity, both sorted by group: `groups`,
/// which [`Fib::slot`] binary-searches, and `entries` in the same
/// order. Iteration is sorted by group with no second table (the
/// determinism suite depends on this order), and the handles are
/// positions. An insert or remove shifts the entries behind it: an
/// O(n) memmove, paid on the control plane only.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    groups: Vec<GroupId>,
    entries: Vec<FibEntry>,
}

impl Fib {
    /// Empty FIB.
    pub fn new() -> Self {
        Fib::default()
    }

    /// Entry for `group`, if on-tree.
    pub fn get(&self, group: GroupId) -> Option<&FibEntry> {
        self.slot(group).map(|s| self.at(s))
    }

    /// Mutable entry for `group`.
    pub fn get_mut(&mut self, group: GroupId) -> Option<&mut FibEntry> {
        let s = self.slot(group)?;
        Some(&mut self.entries[s.0])
    }

    /// Resolves `group` to its slot — the once-per-burst half of a
    /// data-plane lookup. The handle is invalidated by any insert or
    /// remove.
    pub fn slot(&self, group: GroupId) -> Option<GroupSlot> {
        self.groups.binary_search(&group).ok().map(GroupSlot)
    }

    /// Direct slot access — the per-packet half of a data-plane lookup.
    pub fn at(&self, slot: GroupSlot) -> &FibEntry {
        &self.entries[slot.0]
    }

    /// Creates (or returns) the entry for `group`.
    pub fn entry(&mut self, group: GroupId) -> &mut FibEntry {
        let i = match self.groups.binary_search(&group) {
            Ok(i) => i,
            Err(i) => {
                // One entry at a time, as `RouterObs` grows its rows:
                // doubling would leave slack a router keeps for as long
                // as it stays on-tree.
                self.groups.reserve_exact(1);
                self.entries.reserve_exact(1);
                self.groups.insert(i, group);
                self.entries.insert(i, FibEntry::default());
                i
            }
        };
        &mut self.entries[i]
    }

    /// Deletes the entry for `group`; returns it if it existed. Both
    /// columns shrink with it, so deleting the last entry frees them —
    /// an off-tree router owns no FIB memory.
    pub fn remove(&mut self, group: GroupId) -> Option<FibEntry> {
        let i = self.groups.binary_search(&group).ok()?;
        self.groups.remove(i);
        let entry = self.entries.remove(i);
        self.groups.shrink_to_fit();
        self.entries.shrink_to_fit();
        Some(entry)
    }

    /// Heap bytes the FIB holds: both columns and every entry's child
    /// and core lists, by capacity.
    pub fn mem_bytes(&self) -> usize {
        let lists: usize = self
            .entries
            .iter()
            .map(|e| {
                e.children.capacity() * size_of::<Child>() + e.cores.capacity() * size_of::<Addr>()
            })
            .sum();
        self.groups.capacity() * size_of::<GroupId>()
            + self.entries.capacity() * size_of::<FibEntry>()
            + lists
    }

    /// Is this router on-tree for `group`?
    pub fn on_tree(&self, group: GroupId) -> bool {
        self.slot(group).is_some()
    }

    /// All on-tree groups, sorted.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.groups.iter().copied()
    }

    /// All (group, entry) pairs, sorted by group.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &FibEntry)> {
        self.groups.iter().copied().zip(&self.entries)
    }

    /// Mutable iteration, sorted by group.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (GroupId, &mut FibEntry)> {
        self.groups.iter().copied().zip(&mut self.entries)
    }

    /// Number of entries — the "state per router" metric of experiment
    /// S93-T1.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no groups are on-tree.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
    fn slot_handles_survive_in_place_edits() {
        let mut fib = Fib::new();
        fib.entry(g()).cores = vec![a(4)];
        let slot = fib.slot(g()).expect("on-tree");
        assert_eq!(fib.at(slot).primary_core(), Some(a(4)));
        // Mutating an entry in place does not move slots.
        fib.get_mut(g()).unwrap().add_child(a(1), IfIndex(0), t(1));
        assert_eq!(fib.at(slot).children.len(), 1);
        assert_eq!(fib.slot(g()), Some(slot));
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
        assert_eq!((fib.groups.capacity(), fib.entries.capacity()), (0, 0));
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

    /// The two columns against a `BTreeMap` model over seeded inserts,
    /// edits and removes of 24 groups. After every step the lookups,
    /// the length and the sorted iteration agree with the model, every
    /// slot reads the entry `get` returns, an insert leaves no spare
    /// capacity, and removing the last entry frees both columns.
    #[test]
    fn columns_match_a_map_model() {
        let mut x: u64 = 0x5EED_F1B0_0000_0043;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..64 {
            let mut fib = Fib::new();
            let mut model: BTreeMap<GroupId, FibEntry> = BTreeMap::new();
            for step in 0..96u64 {
                let g = GroupId::numbered(1 + (next() % 24) as u16);
                match next() % 3 {
                    0 => assert_eq!(fib.remove(g), model.remove(&g), "remove {g}"),
                    // Insert or edit: a new core tags the entry, so a
                    // slot that names the wrong entry shows.
                    _ => {
                        let inserted = !model.contains_key(&g);
                        let core = a((step % 250) as u8 + 1);
                        fib.entry(g).cores.push(core);
                        model.entry(g).or_default().cores.push(core);
                        if inserted {
                            assert_eq!(fib.groups.capacity(), fib.len(), "group column at size");
                            assert_eq!(fib.entries.capacity(), fib.len(), "entry column at size");
                        }
                    }
                }
                assert_eq!(fib.len(), model.len());
                assert_eq!(fib.is_empty(), model.is_empty());
                for n in 1..=24 {
                    let g = GroupId::numbered(n);
                    assert_eq!(fib.get(g), model.get(&g), "get {g}");
                    assert_eq!(fib.on_tree(g), model.contains_key(&g), "on_tree {g}");
                    assert_eq!(fib.slot(g).map(|s| fib.at(s)), fib.get(g), "slot {g}");
                }
                assert!(fib.iter().eq(model.iter().map(|(g, e)| (*g, e))), "sorted iteration");
                assert!(fib.groups().eq(model.keys().copied()));
                if model.is_empty() {
                    assert_eq!((fib.groups.capacity(), fib.entries.capacity()), (0, 0));
                }
            }
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
            "iteration follows group order, not insert order"
        );
    }
}
