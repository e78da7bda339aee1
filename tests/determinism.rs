//! Determinism regression: the whole point of the zero-copy hot path
//! and the parallel trial runner is that neither may perturb results.
//! A seeded scenario must replay bit-identically (same counters *and*
//! the same event stream, hashed transmission by transmission), and
//! the eval suite's fan-out must merge trials into exactly the order a
//! sequential run produces.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{FaultPlan, SimTime, WorldConfig};
use cbt_topology::{generate, HostId, NetworkSpec, NodeId, RouterId};
use cbt_wire::GroupId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A busy little world: joins, a mid-churn data transmission, and
/// enough fault injection to consume the world's only RNG stream.
fn build_with(seed: u64, cfg: CbtConfig) -> CbtWorld {
    let graph = generate::waxman(generate::WaxmanParams { n: 20, ..Default::default() }, 4);
    let net = NetworkSpec::from_graph_with_stub_lans(&graph);
    let core_addr = net.router_addr(RouterId(0));
    let group = GroupId::numbered(1);
    let mut cw = CbtWorld::build(
        net,
        cfg,
        WorldConfig {
            fault: FaultPlan { drop_chance: 0.08, corrupt_chance: 0.05, ..FaultPlan::default() },
            seed,
            ..Default::default()
        },
    );
    for i in (2..20u32).step_by(3) {
        cw.host(HostId(NodeId(i).0)).join_at(SimTime::from_secs(1), group, vec![core_addr]);
    }
    cw.host(HostId(2)).send_at(SimTime::from_secs(10), group, b"probe".to_vec(), 64);
    cw
}

fn build(seed: u64) -> CbtWorld {
    build_with(seed, CbtConfig::fast())
}

/// Order-sensitive digest of every transmission the trace recorded:
/// any reordering, duplication, or divergence in timing, classification
/// or size changes the hash.
fn event_stream_hash(cw: &CbtWorld) -> u64 {
    let mut h = DefaultHasher::new();
    for e in cw.world.trace().entries() {
        format!("{:?} {:?} {:?} {:?} {:?} {}", e.at, e.from, e.iface, e.medium, e.kind, e.bytes)
            .hash(&mut h);
    }
    h.finish()
}

fn run(seed: u64) -> ((u64, u64), Vec<(cbt_netsim::PacketKind, u64)>, u64) {
    let mut cw = build(seed);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(30));
    (cw.world.trace().totals(), cw.world.trace().kind_counts(), event_stream_hash(&cw))
}

/// Same seed ⇒ same counters, same kind breakdown, same event-stream
/// hash. This is the regression net under the `Bytes` fan-out and the
/// precomputed delivery plans: a single swapped delivery or an extra
/// clone that changes fault-RNG consumption shows up here.
#[test]
fn seeded_scenario_replays_bit_identically() {
    let a = run(42);
    let b = run(42);
    assert_eq!(a.0, b.0, "frame/byte totals must replay");
    assert_eq!(a.1, b.1, "per-kind counters must replay");
    assert_eq!(a.2, b.2, "event-stream hash must replay");
}

/// Different seeds genuinely differ — otherwise the hash above is
/// vacuous.
#[test]
fn different_seeds_diverge() {
    assert_ne!(run(42).2, run(43).2, "fault seeds must matter");
}

/// Order-sensitive digest of the *control-plane* substream only.
fn control_stream_hash(cw: &CbtWorld) -> u64 {
    let mut h = DefaultHasher::new();
    for e in cw.world.trace().entries().iter().filter(|e| e.kind.is_control()) {
        format!("{:?} {:?} {:?} {:?} {:?} {}", e.at, e.from, e.iface, e.medium, e.kind, e.bytes)
            .hash(&mut h);
    }
    h.finish()
}

/// Control-plane fault replay must be immune to data traffic: drop and
/// corruption decisions come from per-class RNG streams with per-class
/// sequence numbers, so adding data transmissions to a run must not
/// shift a single control-plane fault decision. Both the probabilistic
/// plan and a targeted control-seq drop list are pinned — under the
/// old single-stream injector every data frame advanced the shared RNG
/// and the control stream diverged immediately.
#[test]
fn data_traffic_cannot_perturb_control_fault_replay() {
    let plans: [FaultPlan; 2] = [
        FaultPlan { drop_chance: 0.10, corrupt_chance: 0.05, ..FaultPlan::default() },
        FaultPlan::none().with_control_drops(vec![3, 7, 20]),
    ];
    for plan in plans {
        let run = |extra_data: bool| {
            let graph = generate::waxman(generate::WaxmanParams { n: 20, ..Default::default() }, 4);
            let net = NetworkSpec::from_graph_with_stub_lans(&graph);
            let core_addr = net.router_addr(RouterId(0));
            let group = GroupId::numbered(1);
            let mut cw = CbtWorld::build(
                net,
                CbtConfig::fast(),
                WorldConfig { fault: plan.clone(), seed: 11, ..Default::default() },
            );
            for i in (2..20u32).step_by(3) {
                cw.host(HostId(i)).join_at(SimTime::from_secs(1), group, vec![core_addr]);
            }
            if extra_data {
                for k in 0..12u64 {
                    cw.host(HostId(2)).send_at(
                        SimTime::from_micros(8_000_000 + 700_000 * k),
                        group,
                        format!("load{k}").into_bytes(),
                        64,
                    );
                }
            }
            cw.world.start();
            cw.world.run_until(SimTime::from_secs(30));
            (control_stream_hash(&cw), cw.world.trace().data_frames())
        };
        let quiet = run(false);
        let loaded = run(true);
        assert!(loaded.1 > quiet.1, "the loaded run really carried extra data frames");
        assert_eq!(
            quiet.0, loaded.0,
            "control-plane event stream shifted under data load (plan {plan:?})"
        );
    }
}

/// The parallel trial runner must hand back exactly what a sequential
/// in-order map produces, even with more workers than this machine has
/// cores and with trials that finish out of submission order.
#[test]
fn parallel_trials_match_sequential_map() {
    cbt_eval::parallel::set_jobs(4);
    let seeds: Vec<u64> = (0..8).collect();
    let trial = |&seed: &u64| {
        let mut cw = build(seed);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(15));
        let (frames, bytes) = cw.world.trace().totals();
        (seed, frames, bytes, event_stream_hash(&cw))
    };
    let sequential: Vec<_> = seeds.iter().map(trial).collect();
    let parallel = cbt_eval::parallel::run_trials(&seeds, trial);
    assert_eq!(parallel, sequential, "fan-out must merge in seed order with identical results");
}
