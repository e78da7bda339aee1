//! Repro of the silent member loss `lan_sim_flood` prototyping found;
//! see `../../KNOWN_FAILURES.md`. Exits 0 either way: the status line
//! says whether the defect still stands.

fn main() {
    let r = cbt_benchmark::known_failures::pending_transit_local_join();
    println!("{}: {} ({})", r.name, r.status, r.detail);
    for gap in [0u64, 500, 1000, 2000, 3000, 4000, 5000, 8000, 20000] {
        println!(
            "gap {gap} us -> {}",
            cbt_benchmark::known_failures::pending_transit_local_join_heard(gap)
        );
    }
}
