//! # cbt-node — the CBT engine on a live tokio runtime
//!
//! The same sans-I/O machinery that runs under the deterministic
//! simulator ([`cbt::RouterNode`], [`cbt::HostApp`] — both implement
//! `cbt_netsim::SimNode`) driven by **wall-clock** tokio tasks instead
//! of a virtual event queue:
//!
//! * every router and host is its own task;
//! * frames move over an in-process [`fabric`] of bounded inboxes
//!   ([`inbox`]) that reproduces the link/LAN semantics (broadcast
//!   fan-out, link-layer unicast filtering), carrying the same encoded
//!   datagrams a wire would;
//! * timers are `tokio::time::sleep_until` against the node's own
//!   `next_wakeup()`, so `tokio::time::pause()` makes tests instant.
//!
//! This is the "multi-node control-plane simulation" deployment shape:
//! one process, N concurrent routers, the actual protocol timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod config;
pub mod fabric;
pub mod inbox;
pub mod live;

pub use config::Deployment;
pub use fabric::Fabric;
pub use live::{LiveNet, RouterSnapshot};
