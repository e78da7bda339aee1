//! The router memory census: the heap bytes each store of an engine
//! holds, by capacity, so a memory figure splits into rows that say
//! where it sits (ROADMAP item 3). `idle_memory.rs` pins a churned
//! engine's rows equal to the allocator's live bytes.

use crate::config::CbtConfig;
use crate::engine::{CbtRouter, IfaceInfo, LanState};
use crate::forward::Span;
use crate::pending::Transient;
use cbt_igmp::btree_bytes;
use cbt_topology::IfIndex;
use cbt_wire::{Addr, GroupId};
use std::sync::Arc;

/// Heap bytes one router (or a sum of routers) holds, store by store.
/// B-tree rows count the fewest nodes that hold their entries
/// ([`cbt_igmp::btree_bytes`]: exact up to 11 entries); every other
/// row is exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    /// FIB columns, with every entry's child and core lists.
    pub fib: usize,
    /// The timer heap.
    pub timers: usize,
    /// The control counter row once a message was counted, and the
    /// lag row once a timer fired late.
    pub obs: usize,
    /// Learned core lists (`core_knowledge`).
    pub cores: usize,
    /// Per-group transient records and their boxed joins.
    pub transients: usize,
    /// Per-LAN tables: election, presence, G-DR roles, proxy-acks.
    pub lans: usize,
    /// Interface table and the other interface addresses.
    pub ifaces: usize,
    /// Groups with members attached to the router itself.
    pub members: usize,
    /// Cached spanning entries of the forward path.
    pub spans: usize,
    /// The route handle's box.
    pub routes: usize,
    /// A sharded front's vector of shards past the first.
    pub shards: usize,
    /// The configuration block, counted once per block a sum meets in
    /// a row: engines booted from equal configurations one after the
    /// other share one.
    pub config: usize,
    /// The address of the block `config` last counted.
    config_block: usize,
}

impl Census {
    /// Every row with its name, in declaration order.
    pub fn rows(&self) -> [(&'static str, usize); 12] {
        [
            ("fib", self.fib),
            ("timers", self.timers),
            ("obs", self.obs),
            ("cores", self.cores),
            ("transients", self.transients),
            ("lans", self.lans),
            ("ifaces", self.ifaces),
            ("members", self.members),
            ("spans", self.spans),
            ("routes", self.routes),
            ("shards", self.shards),
            ("config", self.config),
        ]
    }

    /// The sum of every row.
    pub fn total(&self) -> usize {
        self.rows().iter().map(|&(_, b)| b).sum()
    }

    /// Adds `other` row by row. Its configuration block counts only
    /// when it is not the one this sum counted last, so a fleet booted
    /// from one configuration counts it once.
    pub fn add(&mut self, other: &Census) {
        self.fib += other.fib;
        self.timers += other.timers;
        self.obs += other.obs;
        self.cores += other.cores;
        self.transients += other.transients;
        self.lans += other.lans;
        self.ifaces += other.ifaces;
        self.members += other.members;
        self.spans += other.spans;
        self.routes += other.routes;
        self.shards += other.shards;
        if other.config_block != self.config_block {
            self.config += other.config;
            self.config_block = other.config_block;
        }
    }
}

/// Heap bytes of a configuration block: the `Arc` header, the struct
/// and its managed mappings.
fn config_bytes(cfg: &CbtConfig) -> usize {
    let lists: usize = cfg.managed_mappings.values().map(|c| c.capacity()).sum();
    2 * size_of::<usize>()
        + size_of::<CbtConfig>()
        + btree_bytes::<GroupId, Vec<Addr>>(cfg.managed_mappings.len())
        + lists * size_of::<Addr>()
}

impl LanState {
    fn mem_bytes(&self) -> usize {
        self.election.mem_bytes()
            + self.presence.mem_bytes()
            + btree_bytes::<GroupId, ()>(self.gdr.len())
            + btree_bytes::<GroupId, Addr>(self.proxy.len())
    }
}

impl CbtRouter {
    /// The heap bytes this engine holds, store by store.
    pub fn census(&self) -> Census {
        let spans = self.spans.capacity() * size_of::<Span>()
            + self.spans.iter().map(Span::mem_bytes).sum::<usize>();
        #[cfg(debug_assertions)]
        let spans = spans + self.span_check.mem_bytes();
        Census {
            fib: self.fib.mem_bytes(),
            timers: self.timers.mem_bytes(),
            obs: self.obs.mem_bytes(),
            cores: self.core_knowledge.capacity() * size_of::<(GroupId, Addr)>(),
            transients: btree_bytes::<GroupId, Transient>(self.transients.len())
                + self.transients.values().map(Transient::mem_bytes).sum::<usize>(),
            lans: btree_bytes::<IfIndex, LanState>(self.lans.len())
                + self.lans.values().map(LanState::mem_bytes).sum::<usize>(),
            ifaces: self.ifaces.capacity() * size_of::<IfaceInfo>()
                + btree_bytes::<Addr, ()>(self.other_addrs.len()),
            members: btree_bytes::<GroupId, ()>(self.local_members.len()),
            spans,
            routes: size_of_val(&*self.routes),
            shards: 0,
            config: config_bytes(&self.cfg),
            config_block: Arc::as_ptr(&self.cfg) as usize,
        }
    }
}
