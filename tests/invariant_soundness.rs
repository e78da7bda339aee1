//! Soundness of the tree-invariant checker (`cbt::invariants`): the
//! checker must accept every state the engine legitimately reaches.
//! Randomized join/leave/fault schedules (xorshift — no external
//! crates) drive the fleet through chaos; after healing and
//! quiescence, a correct engine plus a sound checker means **zero**
//! violations. A failure here is either a real protocol bug (good —
//! the failing trace replays through the small-scope checker) or a
//! checker false positive (bad — the checker would drown in noise).

use cbt::invariants::{await_quiescence, check_tree_invariants};
use cbt::{CbtConfig, CbtWorld};
use cbt_eval::experiments::explore::{Bounds, Net, Scope, Trace};
use cbt_netsim::{FaultPlan, SimDuration, SimTime, WorldConfig};
use cbt_topology::{generate, HostId, NetworkSpec, RouterId};
use cbt_wire::GroupId;

/// xorshift64* — deterministic, dependency-free randomness.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Random membership schedule on a random-ish topology, under random
/// packet loss, with a random mid-run router outage: whatever survives
/// must check clean after heal + quiescence.
#[test]
fn checker_accepts_every_surviving_random_schedule() {
    for round in 0..6u64 {
        let mut rng = XorShift::new(0xC0FE + round);
        let graph = generate::waxman(generate::WaxmanParams { n: 12, ..Default::default() }, round);
        let net = NetworkSpec::from_graph_with_stub_lans(&graph);
        let n_routers = net.routers.len();
        let n_hosts = net.hosts.len();
        let core_addr = net.router_addr(RouterId(rng.below(n_routers as u64) as u32));
        let group = GroupId::numbered(1);
        let drop_chance = rng.below(12) as f64 / 100.0; // 0–11 %
        let mut cw = CbtWorld::build(
            net,
            CbtConfig::fast(),
            WorldConfig { fault: FaultPlan::drops(drop_chance), seed: round, ..Default::default() },
        );

        // Random joins; roughly a third leave again mid-run.
        let mut members = 0;
        for h in 0..n_hosts as u32 {
            if rng.below(100) < 60 {
                members += 1;
                let t_join = 1_000_000 + rng.below(10_000_000);
                cw.host(HostId(h)).join_at(SimTime::from_micros(t_join), group, vec![core_addr]);
                if rng.below(100) < 33 {
                    let t_leave = t_join + 15_000_000 + rng.below(20_000_000);
                    cw.host(HostId(h)).leave_at(SimTime::from_micros(t_leave), group);
                }
            }
        }
        if members == 0 {
            cw.host(HostId(0)).join_at(SimTime::from_secs(1), group, vec![core_addr]);
        }

        // Chaos phase with a router outage somewhere in the middle.
        cw.world.start();
        let crash = RouterId(rng.below(n_routers as u64) as u32);
        let t_crash = SimTime::from_micros(12_000_000 + rng.below(20_000_000));
        cw.world.run_until(t_crash);
        cw.fail_router(crash);
        cw.world.run_for(SimDuration::from_micros(3_000_000 + rng.below(12_000_000)));
        cw.restart_router(crash, cw.world.now());
        cw.world.run_until(SimTime::from_secs(70));

        // Heal, quiesce, check: the engine survived, so the checker
        // must have nothing to say.
        cw.world.set_fault_plan(FaultPlan::none());
        cw.world.run_until(SimTime::from_secs(130));
        assert!(
            await_quiescence(&mut cw, &[group], SimDuration::from_secs(60)),
            "round {round}: fleet failed to quiesce"
        );
        let violations = check_tree_invariants(&cw, &[group]);
        assert!(
            violations.is_empty(),
            "round {round} (drop {drop_chance}, crash r{}): checker flagged a surviving \
             state: {violations:?}",
            crash.0
        );
    }
}

/// The same property through the small-scope checker: seeded random
/// walks through its transitions, longer and with larger budgets than
/// its exhaustive presets, all heal to a clean verdict on the healthy
/// engine.
#[test]
fn random_walks_replay_clean_through_the_checker() {
    let mut rng = XorShift::new(0xD1CE);
    let bounds = Bounds { depth: 24, faults: 3, membership: 4 };
    for round in 0..10u64 {
        let scope = Scope::ALL[rng.below(Scope::ALL.len() as u64) as usize];
        let spec = scope.spec();
        let mut net = Net::boot(&spec, 1);
        let mut steps = Vec::new();
        for _ in 0..bounds.depth {
            let enabled = net.enabled(&bounds);
            let step = enabled[rng.below(enabled.len() as u64) as usize];
            net.apply(step).expect("an enabled step applies");
            steps.push(step);
        }
        let trace = Trace { scope, steps };
        let v = net.verdict();
        assert!(v.is_clean(), "round {round}: {trace} => {v:?}");
        assert_eq!(trace.replay(1), Ok(v), "round {round}: {trace} replays to its verdict");
    }
}
