//! Doors kept only for the `benchmark/` workspace, which pins its own
//! `Cargo.lock` and calls them by name: six per-kind input wrappers,
//! each one call to [`ShardedRouter::step`], and four per-group reads,
//! each one field of [`ShardedRouter::group_view`]. Nothing else calls
//! them (CI's "One engine door" step greps for it); everything else
//! feeds a router through `step` and reads it through `group_view` or
//! `protocol_phase`. They go when `benchmark/` moves to those doors.

use crate::events::{Input, RouterAction};
use crate::shard::ShardedRouter;
use cbt_netsim::SimTime;
use cbt_topology::IfIndex;
use cbt_wire::{Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage};

/// Per-kind input doors.
#[doc(hidden)]
impl ShardedRouter {
    pub fn handle_control(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        src: Addr,
        msg: ControlMessage,
    ) -> Vec<RouterAction> {
        let mut out = Vec::new();
        self.step(now, Input::Control { iface, src, msg }, &mut out);
        out
    }

    pub fn handle_igmp(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        src: Addr,
        msg: IgmpMessage,
    ) -> Vec<RouterAction> {
        let mut out = Vec::new();
        self.step(now, Input::Igmp { iface, src, msg }, &mut out);
        out
    }

    #[inline]
    pub fn handle_native_data(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        link_src: Addr,
        pkt: DataPacket,
        out: &mut Vec<RouterAction>,
    ) {
        self.step(now, Input::NativeData { iface, link_src, pkt }, out);
    }

    #[inline]
    pub fn handle_cbt_data(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        outer_src: Addr,
        pkt: CbtDataPacket,
        out: &mut Vec<RouterAction>,
    ) {
        self.step(now, Input::CbtData { iface, outer_src, pkt }, out);
    }

    pub fn local_join(&mut self, now: SimTime, group: GroupId) -> Vec<RouterAction> {
        let mut out = Vec::new();
        self.step(now, Input::Join(group), &mut out);
        out
    }

    pub fn local_leave(&mut self, now: SimTime, group: GroupId) -> Vec<RouterAction> {
        let mut out = Vec::new();
        self.step(now, Input::Leave(group), &mut out);
        out
    }
}

/// Per-group reads, each asked of the owning shard without building
/// the whole [`crate::GroupView`].
#[doc(hidden)]
impl ShardedRouter {
    pub fn is_on_tree(&self, group: GroupId) -> bool {
        self.shard_for(group).is_on_tree(group)
    }

    pub fn parent_of(&self, group: GroupId) -> Option<Addr> {
        self.shard_for(group).parent_of(group)
    }

    pub fn has_pending_join(&self, group: GroupId) -> bool {
        self.shard_for(group).has_pending_join(group)
    }

    pub fn has_transient_state(&self, group: GroupId) -> bool {
        self.shard_for(group).has_transient_state(group)
    }
}
