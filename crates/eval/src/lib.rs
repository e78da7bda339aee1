//! # cbt-eval — the experiment harness
//!
//! One module per experiment in DESIGN.md's index. Every experiment is
//! a pure function from parameters to a [`Report`] (tables + JSON), so
//! the CLI and the integration tests drive the same code. Impl-1
//! (timer-service scaling) and Impl-2 (live data plane) are retired;
//! their last rows are frozen in EXPERIMENTS.md.
//!
//! | id | module |
//! |---|---|
//! | Spec-E1..E6 | [`experiments::spec`] |
//! | S93-T1 state scaling | [`experiments::state`] |
//! | S93-T2 tree cost | [`experiments::treecost`] |
//! | S93-F1 delay ratio | [`experiments::delay`] |
//! | S93-F2 traffic concentration | [`experiments::traffic`] |
//! | S93-T3 control overhead | [`experiments::overhead`] |
//! | S93-T4 join latency | [`experiments::latency`] |
//! | Abl-1 core placement | [`experiments::placement`] |
//! | Abl-2 multi-core failover | [`experiments::multicore`] |
//! | Impl-3 sharded engine scaling | [`experiments::shardscale`] |
//! | Impl-4 internet-scale routing | [`experiments::netscale`] |
//! | Impl-5 protocol at netscale | [`experiments::protoscale`] |
//! | Impl-6 faults at netscale | [`experiments::soak`] |
//! | Expl-1 fault-interleaving exploration | [`experiments::explore`] |
//!
//! Impl-5 and Impl-6 are scripts over one live-fleet harness,
//! [`fleet::Fleet`]: construction, the membership ledger, the
//! attached / severed / silent predicates, the fault operations and
//! the teardown asserts exist there once. Impl-4 to Impl-6 share one
//! workload shape, [`membership::MembershipParams::netscale`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fleet;
pub mod membership;
pub mod parallel;
pub mod report;
pub mod simrun;
pub mod workload;

pub use report::Report;
