//! Naive unicast replication ("star"): the sender transmits one copy
//! per member over the unicast shortest path — the pre-multicast
//! baseline the '93 paper's introduction motivates against.

use crate::spt::spf;
use cbt_topology::{Graph, NodeId};
use std::collections::BTreeMap;

/// Per-edge packet loads when `source` unicasts one packet to each of
/// `members`. Keys are `(a, b)` with `a < b` (undirected load).
pub fn unicast_star_loads(
    g: &Graph,
    source: NodeId,
    members: &[NodeId],
) -> BTreeMap<(NodeId, NodeId), u64> {
    let sp = spf(g, source);
    let mut loads: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    for &m in members {
        if m == source {
            continue;
        }
        let Some(path) = sp.path_to_root(m.0) else { continue };
        for hop in path.windows(2) {
            let (a, b) = (hop[0].min(hop[1]), hop[0].max(hop[1]));
            *loads.entry((NodeId(a), NodeId(b))).or_default() += 1;
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::generate;

    #[test]
    fn line_loads_accumulate_near_source() {
        // 0 — 1 — 2 — 3, members 2 and 3: edge 0–1 carries 2 copies.
        let g = generate::line(4);
        let loads = unicast_star_loads(&g, NodeId(0), &[NodeId(2), NodeId(3)]);
        assert_eq!(loads[&(NodeId(0), NodeId(1))], 2);
        assert_eq!(loads[&(NodeId(1), NodeId(2))], 2);
        assert_eq!(loads[&(NodeId(2), NodeId(3))], 1);
    }

    #[test]
    fn source_as_member_costs_nothing() {
        let g = generate::line(3);
        let loads = unicast_star_loads(&g, NodeId(0), &[NodeId(0)]);
        assert!(loads.is_empty());
    }

    #[test]
    fn total_load_equals_sum_of_distances() {
        let g = generate::grid(4, 4);
        let members: Vec<NodeId> = vec![NodeId(3), NodeId(12), NodeId(15), NodeId(5)];
        let loads = unicast_star_loads(&g, NodeId(0), &members);
        let total: u64 = loads.values().sum();
        let sp = spf(&g, NodeId(0));
        let expect: u64 = members.iter().map(|m| sp.dist(m.0).unwrap()).sum();
        assert_eq!(total, expect, "each copy pays its full path length");
    }

    #[test]
    fn star_always_costs_at_least_tree() {
        // The multicast tree sends once per edge; the star sends once
        // per member per edge: star load ≥ tree cost, with equality
        // only in degenerate cases.
        let g = generate::waxman(Default::default(), 3);
        let members: Vec<NodeId> = (10..30).map(NodeId).collect();
        let star_total: u64 = unicast_star_loads(&g, NodeId(0), &members).values().sum();
        let tree = crate::spt::source_tree(&g, NodeId(0), &members);
        assert!(star_total >= tree.total_weight());
    }
}
