//! # cbt-netsim — deterministic discrete-event network simulator
//!
//! The substrate every experiment runs on. It owns:
//!
//! * **virtual time** ([`time`]) — microsecond-resolution [`SimTime`],
//!   no wall clock anywhere;
//! * a **stable event queue** ([`queue`]) — ties broken by insertion
//!   sequence so identical seeds replay identically;
//! * the **world** ([`world`]) — instantiates a
//!   [`cbt_topology::NetworkSpec`], hosts one [`node::SimNode`]
//!   behaviour per router/host, moves whole IP datagrams between them
//!   over LANs and point-to-point links with per-hop latency, and
//!   honours the shared [`cbt_routing::FailureSet`];
//! * the **delivery plan** ([`plan`]) — who hears a transmission, on
//!   which interface, from which link-layer source: resolved once per
//!   network and shared by the world and the live fabric of `cbt-node`;
//! * **fault injection** ([`fault`]) — seeded probabilistic drop and
//!   byte corruption, smoltcp-style;
//! * the **netscale world** ([`netscale`]) — the scale-over-fidelity
//!   sibling of [`world`]: engines as dense slots on a CSR arena,
//!   point-to-point frame delivery, counters-only tracing; this is
//!   what runs 100k protocol engines in one process;
//! * a **trace** ([`trace`]) — every transmission classified by
//!   protocol (CBT control type, IGMP type, native/CBT-mode data) with
//!   counters; this is the raw material for the control-overhead and
//!   traffic-concentration experiments.
//!
//! The simulator knows nothing about the CBT protocol itself: protocol
//! engines are plugged in as [`node::SimNode`] trait objects. The same
//! engine code also runs under tokio in `cbt-node`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod fault;
pub mod netscale;
pub mod node;
pub mod pcap;
pub mod plan;
pub mod queue;
pub mod time;
pub mod trace;
pub mod world;

pub use bytes::{Bytes, BytesMut};
pub use fault::{FaultClass, FaultPlan};
pub use netscale::{NetscaleWorld, NsNode, NsOutbox, NsTrace};
pub use node::{Entity, Outbox, SimNode, Transmit};
pub use pcap::Capture;
pub use plan::{DeliveryPlan, Receiver, Route};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
pub use trace::{Medium, PacketKind, Trace, TraceEntry};
pub use world::{World, WorldConfig};
