//! `cbtd` — stand up a live CBT deployment from a JSON description.
//!
//! ```text
//! cbtd <deployment.json> [--duration-secs N] [--shards N]
//! ```
//!
//! Every router and host in the file becomes a tokio task; the script's
//! joins/leaves/sends run at their wall-clock offsets; at the end the
//! tool prints each router's tree state and each host's deliveries.
//! See `examples/topologies/demo.json` for the schema.
//!
//! `--shards N` (or `CBT_SHARDS=N`; default: available cores) splits
//! every router's group space over N engine shards, each its own tokio
//! task — one `cbtd` node then scales with cores instead of serialising
//! all groups through one task.

use cbt::parallelism::NODE_SHARDS;
use cbt::CbtConfig;
use cbt_node::config::Deployment;
use cbt_node::LiveNet;
use cbt_wire::GroupId;
use std::time::Duration;

#[tokio::main]
async fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: cbtd <deployment.json> [--duration-secs N] [--shards N]");
        std::process::exit(2);
    };
    let duration = args
        .iter()
        .position(|a| a == "--duration-secs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(5);
    let shards_flag = match args
        .iter()
        .position(|a| a == NODE_SHARDS.flag_name())
        .map(|i| args.get(i + 1).map_or_else(String::new, |v| v.clone()))
        .map(|v| NODE_SHARDS.parse_flag(&v))
        .transpose()
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Flag > CBT_SHARDS > available cores — same precedence and error
    // shape as the eval runner's --jobs.
    let shards = match NODE_SHARDS.resolve(shards_flag) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let built = match Deployment::from_json(&text).and_then(|d| d.build()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let group = GroupId::numbered(built.config.group);
    let cores: Vec<_> =
        built.config.cores.iter().map(|c| built.net.router_addr(built.routers[c])).collect();
    println!(
        "cbtd: {} routers, {} LANs, {} links, group {group}, cores {:?}, {shards} shard(s)",
        built.net.routers.len(),
        built.net.lans.len(),
        built.net.links.len(),
        built.config.cores,
    );

    let cfg = CbtConfig { shards, ..CbtConfig::fast() };
    let live = LiveNet::spawn(built.net.clone(), cfg);

    // Drive the script.
    let mut steps = built.config.script.clone();
    steps.sort_by_key(|s| s.at_ms);
    let start = tokio::time::Instant::now();
    for step in &steps {
        tokio::time::sleep_until(start + Duration::from_millis(step.at_ms)).await;
        let h = built.hosts[&step.host];
        match step.action.as_str() {
            "join" => {
                println!("[{:>6} ms] {} joins {group}", step.at_ms, step.host);
                live.host_join(h, group, cores.clone());
            }
            "leave" => {
                println!("[{:>6} ms] {} leaves {group}", step.at_ms, step.host);
                live.host_leave(h, group);
            }
            "send" => {
                println!("[{:>6} ms] {} sends {:?}", step.at_ms, step.host, step.payload);
                live.host_send(h, group, step.payload.clone().into_bytes(), 32);
            }
            _ => unreachable!("validated at build"),
        }
    }

    tokio::time::sleep_until(start + Duration::from_secs(duration)).await;

    println!("\ntree state after {duration}s:");
    let mut names: Vec<_> = built.routers.keys().cloned().collect();
    names.sort();
    let mut fleet = cbt_obs::ObsSnapshot { router: "fleet".into(), ..Default::default() };
    let mut per_router = Vec::new();
    for name in names {
        let r = built.routers[&name];
        match live.router_snapshot(r, group).await {
            Ok(snap) => {
                println!(
                    "  {name}: on_tree={} parent={} children={}",
                    snap.on_tree,
                    snap.parent.map(|a| a.to_string()).unwrap_or_else(|| "—".into()),
                    snap.children.len(),
                );
                let mut obs = snap.obs;
                obs.router = name.clone();
                fleet.merge(&obs);
                per_router.push(obs);
            }
            Err(e) => println!("  {name}: unavailable ({e})"),
        }
    }

    println!("\ncounters:");
    for obs in &per_router {
        for line in obs.to_text().lines() {
            println!("  {line}");
        }
    }
    println!("\ncounters (json):");
    print!("[");
    for (i, obs) in per_router.iter().enumerate() {
        if i > 0 {
            print!(",");
        }
        print!("{}", obs.to_json());
    }
    println!("]");
    println!("fleet: {}", fleet.to_json());
    println!("\ndeliveries:");
    let mut hnames: Vec<_> = built.hosts.keys().cloned().collect();
    hnames.sort();
    for name in hnames {
        match live.host_received(built.hosts[&name]).await {
            Ok(got) => println!(
                "  {name}: {} packet(s) {:?}",
                got.len(),
                got.iter()
                    .map(|d| String::from_utf8_lossy(d.payload).into_owned())
                    .collect::<Vec<_>>()
            ),
            Err(e) => println!("  {name}: unavailable ({e})"),
        }
    }
    live.shutdown();
}
