//! Doors kept only for the `benchmark/` workspace, which pins its own
//! `Cargo.lock` and calls them by name: six per-kind input wrappers,
//! each one call to [`ShardedRouter::step`], four per-group reads,
//! each one field of [`ShardedRouter::group_view`], and the old route
//! handle names, aliases of [`RouteHandle`]. Nothing else names them
//! (CI's "One engine door" and "One route handle" steps grep for it);
//! everything else uses `step`, `group_view` and `RouteHandle::new`,
//! and they go when `benchmark/` does.

use crate::{FleetRib, Input, RouteHandle, RouterAction, ShardedRouter};
use cbt_netsim::SimTime;
use cbt_routing::Rib;
use cbt_topology::{IfIndex, NetworkSpec, RouterId};
use cbt_wire::{Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage};
use std::sync::{Arc, RwLock};

#[doc(hidden)]
pub type SharedRib = RouteHandle<Rib>;
#[doc(hidden)]
pub type FleetRoutes = RouteHandle<FleetRib>;
#[doc(hidden)]
pub type SharedFleetRib = Arc<RwLock<FleetRib>>;

/// `net`'s converged table, and a handle factory over it.
#[doc(hidden)]
impl RouteHandle<Rib> {
    pub fn build(net: Arc<NetworkSpec>) -> (Arc<RwLock<Rib>>, impl Fn(RouterId) -> SharedRib) {
        let rib = Arc::new(RwLock::new(Rib::converged(net)));
        (rib.clone(), move |me: RouterId| RouteHandle::new(rib.clone(), me.0))
    }
}

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
