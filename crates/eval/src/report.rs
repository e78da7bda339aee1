//! Experiment output: named tables plus a machine-readable JSON blob.

use cbt_metrics::{BarChart, Table};

/// The result of one experiment run.
#[derive(Debug)]
pub struct Report {
    /// Experiment id (matches DESIGN.md's index, e.g. "S93-T1").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Named tables (the paper-style rows).
    pub tables: Vec<(String, Table)>,
    /// Rendered figures (terminal bar charts for figure-type results).
    pub charts: Vec<BarChart>,
    /// Everything again, machine-readable.
    pub json: serde_json::Value,
    /// Fleet-wide observability snapshot (drop-reason taxonomy,
    /// per-group protocol counters, latency histograms) for experiments
    /// that run the packet simulator; `Null` otherwise. Exported under
    /// `"obs"` in the JSON written next to the tables.
    pub obs: serde_json::Value,
    /// Free-form findings: the "shape" statements EXPERIMENTS.md quotes.
    pub findings: Vec<String>,
}

impl Report {
    /// New empty report.
    pub fn new(id: &'static str, title: &'static str) -> Self {
        Report {
            id,
            title,
            tables: Vec::new(),
            charts: Vec::new(),
            json: serde_json::Value::Null,
            obs: serde_json::Value::Null,
            findings: Vec::new(),
        }
    }

    /// Attaches a counter snapshot (usually the fleet aggregate from
    /// [`cbt::CbtWorld::obs_snapshot`]). The snapshot's own JSON
    /// exporter is the schema authority; this just re-parses it into
    /// the report's machine-readable value.
    pub fn attach_obs(&mut self, snap: &cbt_obs::ObsSnapshot) -> &mut Self {
        self.obs = serde_json::from_str(&snap.to_json()).unwrap_or(serde_json::Value::Null);
        self
    }

    /// Adds a table.
    pub fn table(&mut self, name: impl Into<String>, t: Table) -> &mut Self {
        self.tables.push((name.into(), t));
        self
    }

    /// Adds a rendered figure.
    pub fn chart(&mut self, c: BarChart) -> &mut Self {
        self.charts.push(c);
        self
    }

    /// Adds a finding sentence.
    pub fn finding(&mut self, s: impl Into<String>) -> &mut Self {
        self.findings.push(s.into());
        self
    }

    /// The JSON document `cbt-eval` writes under `target/eval-results/`.
    pub fn to_file_json(&self) -> String {
        let payload = serde_json::json!({
            "id": self.id,
            "title": self.title,
            "findings": self.findings,
            "data": self.json,
            "obs": self.obs,
            "tables": self
                .tables
                .iter()
                .map(|(n, t)| serde_json::json!({"name": n, "csv": t.to_csv()}))
                .collect::<Vec<_>>(),
        });
        serde_json::to_string_pretty(&payload).expect("a JSON value serialises")
    }

    /// Renders everything for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for (name, t) in &self.tables {
            out.push_str(&format!("\n-- {name} --\n"));
            out.push_str(&t.render());
        }
        for c in &self.charts {
            out.push('\n');
            out.push_str(&c.render(40));
        }
        if let Some(drops) = self.obs.get("drops") {
            out.push_str(&format!("\nFleet drop counters: {drops}\n"));
        }
        if !self.findings.is_empty() {
            out.push_str("\nFindings:\n");
            for f in &self.findings {
                out.push_str(&format!("  * {f}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_everything() {
        let mut r = Report::new("X-1", "demo");
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        r.table("numbers", t);
        r.finding("a beats b");
        let s = r.render();
        assert!(s.contains("X-1"));
        assert!(s.contains("numbers"));
        assert!(s.contains("a beats b"));
    }
}
