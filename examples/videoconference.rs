//! A multi-sender videoconference on the spec's Figure 1 topology —
//! the workload shared trees were designed for.
//!
//! Every member host both receives and sends (as in a conference call).
//! With per-source trees this would cost one tree *per speaker*; CBT
//! carries all twelve speakers over one shared tree. The example prints
//! the delivery matrix and the per-link data load, making the
//! traffic-concentration trade-off (experiment S93-F2) visible on a
//! real protocol run.
//!
//! ```text
//! cargo run --example videoconference
//! ```

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{Medium, SimTime, WorldConfig};
use cbt_topology::figure1;
use cbt_wire::GroupId;

fn main() {
    let fig = figure1();
    let group = GroupId::numbered(1);
    let cores =
        vec![fig.net.router_addr(fig.primary_core()), fig.net.router_addr(fig.secondary_core())];
    println!("topology: draft-ietf-idmr-cbt-spec Figure 1 (11 routers, 15 subnets)");
    println!("cores:    R4 (primary), R9 (secondary)\n");

    let mut cw = CbtWorld::build(fig.net.clone(), CbtConfig::fast(), WorldConfig::default());

    let speakers = [
        ("A", fig.hosts.a),
        ("B", fig.hosts.b),
        ("C", fig.hosts.c),
        ("E", fig.hosts.e),
        ("G", fig.hosts.g),
        ("H", fig.hosts.h),
        ("J", fig.hosts.j),
        ("K", fig.hosts.k),
    ];
    // Everyone joins at t=1, then each speaker says one line, 500 ms
    // apart.
    for (_, h) in speakers {
        cw.host(h).join_at(SimTime::from_secs(1), group, cores.clone());
    }
    for (i, (name, h)) in speakers.iter().enumerate() {
        let at = SimTime::from_secs(4) + cbt_netsim::SimDuration::from_millis(500 * i as u64);
        cw.host(*h).send_at(at, group, format!("<{name} speaking>").into_bytes(), 32);
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(10));

    // Delivery matrix: every speaker hears every other speaker once.
    println!("delivery matrix (rows hear columns):");
    print!("      ");
    for (name, _) in speakers {
        print!("{name:>4}");
    }
    println!();
    for (me, h) in speakers {
        print!("  {me:>4}");
        let heard = cw.host(h).received().clone();
        for (them, other) in speakers {
            if me == them {
                print!("   ·");
                continue;
            }
            let other_addr = cw.host(other).addr();
            let n = heard.iter().filter(|d| d.src == other_addr).count();
            print!("{n:>4}");
        }
        println!();
    }

    // Exactly-once check.
    for (name, h) in speakers {
        let got = cw.host(h).received().len();
        assert_eq!(got, speakers.len() - 1, "{name} heard {got}");
    }
    println!("\nok: every speaker heard every other speaker exactly once.");

    // Traffic concentration: data frames per medium.
    println!("\nper-link data frames (the shared tree concentrates traffic):");
    let mut loads: Vec<(String, u64)> = cw
        .world
        .trace()
        .frames_by_medium()
        .keys()
        .filter_map(|m| {
            let data = cw.world.trace().data_bytes_by_medium().get(m).copied().unwrap_or(0);
            if data == 0 {
                return None;
            }
            let name = match m {
                Medium::Lan(l) => format!("LAN  {}", cw.net.lans[l.0 as usize].name),
                Medium::Link(l) => {
                    let spec = cw.net.links[l.0 as usize];
                    format!(
                        "link {}–{}",
                        cw.net.routers[spec.a.0 as usize].name,
                        cw.net.routers[spec.b.0 as usize].name
                    )
                }
            };
            Some((name, data))
        })
        .collect();
    loads.sort_by_key(|l| std::cmp::Reverse(l.1));
    for (name, bytes) in &loads {
        println!("  {name:16} {bytes:>6} data bytes");
    }
    println!(
        "\nnote how the tree's media all carry comparable load ({}–{} bytes): on a shared tree \
         every speaker's packet crosses every branch — that uniform \"everyone pays\" profile is \
         the traffic concentration trade-off of experiment S93-F2.",
        loads.last().map(|l| l.1).unwrap_or(0),
        loads.first().map(|l| l.1).unwrap_or(0),
    );
}
