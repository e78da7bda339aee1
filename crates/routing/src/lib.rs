//! # cbt-routing — the unicast routing substrate CBT steers by
//!
//! CBT is deliberately unicast-routing-agnostic: a JOIN_REQUEST is sent
//! "to the next-hop on the (unicast) path to the specified core" (§2.5)
//! and that is the *only* question the protocol ever asks its IGP. This
//! crate answers it.
//!
//! It models a converged link-state IGP: every router effectively knows
//! the router-level topology and runs SPF, yielding per-router next-hop
//! tables ([`Rib`]) over the route core [`SpfRoutes`] that the netscale
//! fleet's rib shares; each engine reads one through a `cbt::RouteHandle`.
//! Link/router failures are applied through a
//! [`FailureSet`] and the tables repaired incrementally — that is what
//! drives the §6 reconfiguration experiments. A route resolves to the
//! SPF predecessor out of the lowest-numbered *live* interface toward it
//! (see [`spf_routes`]), so a failed link beside a live parallel LAN is
//! routed around. Transiently *inconsistent* routing (the §6.3 loop
//! scenario) is modelled with explicit per-router overrides
//! ([`Rib::set_override`]), because a correctly converged IGP never
//! produces the loop the spec defends against.
//!
//! The §5.2 tunnel-ranking mechanism ("routing is replaced by ranking
//! each tunnel interface associated with a particular core address") is
//! implemented in [`ranking`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod failure;
pub mod ranking;
pub mod rib;
pub mod spf_routes;

pub use failure::FailureSet;
pub use ranking::{RankedTunnels, TunnelState};
pub use rib::{Hop, Rib};
pub use spf_routes::SpfRoutes;
