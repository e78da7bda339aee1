//! # cbt-metrics — measurements behind every table and figure
//!
//! Pure functions from trees/graphs/member-sets to the numbers the
//! evaluation reports, plus a tiny fixed-width table renderer so the
//! harness prints paper-style rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod chart;
pub mod delay;
pub mod linkload;
pub mod stat;
pub mod table;

pub use chart::BarChart;
pub use delay::{delay_ratio_stats, tree_distances, DelayStats};
pub use linkload::{load_stats, shared_tree_loads, source_tree_loads, LoadStats};
pub use stat::Summary;
pub use table::Table;

use cbt_topology::Graph;

/// Tree cost: total edge weight of a delivery tree — the S93-T2 metric.
pub fn tree_cost(tree: &Graph) -> u64 {
    tree.total_weight()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::generate;

    #[test]
    fn tree_cost_is_total_weight() {
        let g = generate::line(5);
        assert_eq!(tree_cost(&g), 4);
    }
}
