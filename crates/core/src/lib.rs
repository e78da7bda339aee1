//! # cbt — the Core Based Trees multicast protocol engine
//!
//! A from-scratch implementation of the CBT protocol as specified in
//! `draft-ietf-idmr-cbt-spec-03` (the November 1995 revision supplied
//! with this reproduction; see `DESIGN.md` at the workspace root for
//! the relationship to the SIGCOMM '93 architecture paper).
//!
//! The centrepiece is [`engine::CbtRouter`]: a **sans-I/O** state
//! machine for one router. It has one door, [`engine::CbtRouter::step`],
//! which takes one [`events::Input`] at a time — a decoded control, IGMP
//! or data message, a local membership change or a timer tick — and
//! emits [`events::RouterAction`]s (messages to send). It owns no sockets, no
//! clock and no threads, which is why the *same* engine runs under the
//! deterministic simulator (via [`sim::RouterNode`]) and under tokio
//! (via the `cbt-node` crate).
//!
//! What is implemented (spec section in brackets):
//!
//! * D-DR election riding on IGMP querier election (§2.3), and the
//!   group-specific DR (G-DR) via PROXY-ACK (§2.6);
//! * tree joining: ACTIVE_JOIN origination on first membership (§2.5),
//!   hop-by-hop forwarding, transient pending-join state with caching
//!   of concurrent joins, JOIN_ACK retrace, JOIN_NACK (§8.3);
//! * the on-demand core tree: non-primary cores joining the primary
//!   with REJOIN_ACTIVE (§1, 2.5), and core restart discovery from the
//!   core list carried in every join (§6.2);
//! * teardown: QUIT_REQUEST/QUIT_ACK with retries, FLUSH_TREE, and the
//!   periodic IFF-SCAN membership check (§2.7, 9);
//! * keepalives: CBT-ECHO request/reply, optional aggregation by group
//!   mask (§8.4), parent-failure detection and re-attachment with
//!   alternate-core fallback (§6.1), child expiry (§9);
//! * loop detection: ACTIVE_REJOIN → NACTIVE_REJOIN conversion, the
//!   parent-ward walk, primary-core termination with the direct
//!   REJOIN-NACTIVE ack, and the originator's QUIT on self-receipt
//!   [6.3, 8.3.1];
//! * data forwarding in native mode (§4) and CBT mode (§5) including the
//!   on-tree bit (§7), TTL rules, CBT unicast/multicast selection, and
//!   non-member sending through a core (§5.1, 5.3);
//! * every §9 default timer, all configurable via [`config::CbtConfig`].
//!
//! ## Example: a complete deployment in the deterministic simulator
//!
//! ```
//! use cbt::{CbtConfig, CbtWorld};
//! use cbt_netsim::{SimTime, WorldConfig};
//! use cbt_topology::NetworkBuilder;
//! use cbt_wire::GroupId;
//!
//! // receiver —[S0]— R0 —— R1(core) —— R2 —[S1]— sender
//! let mut b = NetworkBuilder::new();
//! let r0 = b.router("R0");
//! let r1 = b.router("R1");
//! let r2 = b.router("R2");
//! let s0 = b.lan("S0");
//! b.attach(s0, r0);
//! let receiver = b.host("A", s0);
//! b.link(r0, r1, 1);
//! b.link(r1, r2, 1);
//! let s1 = b.lan("S1");
//! b.attach(s1, r2);
//! let sender = b.host("B", s1);
//! let net = b.build();
//! let core = net.router_addr(r1);
//!
//! let group = GroupId::numbered(1);
//! let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
//! cw.host(receiver).join_at(SimTime::from_secs(1), group, vec![core]);
//! cw.host(sender).join_at(SimTime::from_secs(1), group, vec![core]);
//! cw.host(sender).send_at(SimTime::from_secs(3), group, b"hi".to_vec(), 16);
//! cw.world.start();
//! cw.world.run_until(SimTime::from_secs(5));
//!
//! assert!(cw.router(r0).sharded().group_view(group).on_tree);
//! assert_eq!(cw.host(receiver).received().len(), 1);
//! assert_eq!(cw.host(receiver).received().get(0).unwrap().payload, b"hi");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod events;
pub mod explore;
pub mod fib;
pub mod forward;
mod inline;
pub mod join;
pub mod keepalive;
pub mod netscale;
pub mod parallelism;
pub mod payload;
mod pending;
mod pinned;
pub mod shard;
pub mod sim;
pub mod teardown;
pub mod timers;

pub use config::CbtConfig;
pub use engine::{CbtRouter, GroupView, ProtocolPhase, RouteHandle, RouteLookup};
pub use events::{Input, RouterAction};
pub use fib::{Fib, FibEntry, MAX_CHILDREN};
pub use netscale::{addr_node, node_addr, FleetRib, P2pNode};
pub use parallelism::Parallelism;
pub use payload::{Deliveries, Delivery, RX_COPYBREAK};
#[doc(hidden)]
pub use pinned::*;
pub use shard::{shard_of, ShardedRouter};
pub use sim::{CbtWorld, HostApp, RouterNode};
