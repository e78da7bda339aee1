//! Failure state applied on top of a [`cbt_topology::NetworkSpec`].

use cbt_topology::{LanId, LinkId, RouterId};
use std::collections::HashSet;

/// The set of currently failed elements.
///
/// A failed *router* stops forwarding and originating entirely; a
/// failed *link* or *LAN* carries no packets. The routing tables (and
/// the simulator's delivery) both consult the same `FailureSet`, so
/// control-plane knowledge and data-plane truth stay in sync exactly
/// the way a converged IGP would keep them.
#[derive(Debug, Clone, Default)]
pub struct FailureSet {
    routers: HashSet<RouterId>,
    links: HashSet<LinkId>,
    lans: HashSet<LanId>,
}

impl FailureSet {
    /// No failures.
    pub fn none() -> Self {
        FailureSet::default()
    }

    /// Marks a router down. Returns `true` if it was up before.
    pub fn fail_router(&mut self, r: RouterId) -> bool {
        self.routers.insert(r)
    }

    /// Marks a router up again.
    pub fn restore_router(&mut self, r: RouterId) -> bool {
        self.routers.remove(&r)
    }

    /// Marks a point-to-point link down.
    pub fn fail_link(&mut self, l: LinkId) -> bool {
        self.links.insert(l)
    }

    /// Restores a point-to-point link.
    pub fn restore_link(&mut self, l: LinkId) -> bool {
        self.links.remove(&l)
    }

    /// Marks a whole LAN segment down.
    pub fn fail_lan(&mut self, l: LanId) -> bool {
        self.lans.insert(l)
    }

    /// Restores a LAN segment.
    pub fn restore_lan(&mut self, l: LanId) -> bool {
        self.lans.remove(&l)
    }

    // The three queries below sit on the simulator's per-event path,
    // where the sets are almost always empty: answer that without
    // hashing the key.

    /// Is this router down?
    pub fn router_down(&self, r: RouterId) -> bool {
        !self.routers.is_empty() && self.routers.contains(&r)
    }

    /// Is this link down?
    pub fn link_down(&self, l: LinkId) -> bool {
        !self.links.is_empty() && self.links.contains(&l)
    }

    /// Is this LAN down?
    pub fn lan_down(&self, l: LanId) -> bool {
        !self.lans.is_empty() && self.lans.contains(&l)
    }

    /// True when nothing at all is failed.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty() && self.links.is_empty() && self.lans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut f = FailureSet::none();
        assert!(f.is_empty());
        assert!(f.fail_router(RouterId(3)));
        assert!(!f.fail_router(RouterId(3)), "double-fail is idempotent");
        assert!(f.router_down(RouterId(3)));
        assert!(!f.router_down(RouterId(4)));
        assert!(!f.is_empty());
        assert!(f.restore_router(RouterId(3)));
        assert!(f.is_empty());
    }

    #[test]
    fn links_and_lans_are_independent_namespaces() {
        let mut f = FailureSet::none();
        f.fail_link(LinkId(1));
        assert!(f.link_down(LinkId(1)));
        assert!(!f.lan_down(LanId(1)), "LanId(1) is not LinkId(1)");
        f.fail_lan(LanId(1));
        f.restore_link(LinkId(1));
        assert!(f.lan_down(LanId(1)));
    }
}
