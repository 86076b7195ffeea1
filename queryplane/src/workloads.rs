//! The six workloads: what each runs, over which container, and why.

use crate::dataset::{Needs, Scale, COLUMNAR, PLAIN, ZONED};
use scoop_core::ExecutionMode;
use scoop_workload::table1_queries;

/// What one round of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Run the query list once, in order, through `Session::sql`.
    Query {
        mode: ExecutionMode,
        container: &'static str,
        queries: QuerySet,
    },
    /// PUT one object plain and once more through `zoneindex`.
    Ingest,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySet {
    /// ShowMapCons (date filter only) and Showgraphcons (date and city).
    Scan,
    /// All seven Table I queries.
    Table1,
    /// fig5's low-selectivity end: nothing, then half, filtered out.
    LowSelectivity,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the full reasoning.
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "vanilla_scan",
        why: "ingest-then-compute baseline: every byte crosses the wire and is parsed and filtered compute-side; storlets idle",
        kind: Kind::Query { mode: ExecutionMode::Vanilla, container: PLAIN, queries: QuerySet::Scan },
    },
    Workload {
        name: "pushdown_table1",
        why: "the paper's headline case: the storlet CSV filter full-scans at the store, wire and compute parse carry about 2 % of the bytes",
        kind: Kind::Query { mode: ExecutionMode::Pushdown, container: PLAIN, queries: QuerySet::Table1 },
    },
    Workload {
        name: "pushdown_lowsel",
        why: "the paper's worst case (fig5 low selectivity): the storlet is a pass-through, so storlet, wire, parse and executor are all hot",
        kind: Kind::Query { mode: ExecutionMode::Pushdown, container: PLAIN, queries: QuerySet::LowSelectivity },
    },
    Workload {
        name: "zoned_table1",
        why: "Table I over zone-indexed objects: planner and ranged reads do the work, per-query fixed costs show in millisecond queries",
        kind: Kind::Query { mode: ExecutionMode::Pushdown, container: ZONED, queries: QuerySet::Table1 },
    },
    Workload {
        name: "columnar_scan",
        why: "the paper's Parquet arm (fig8): columnar decode and compute-side filtering work, storlets and the CSV engine idle",
        kind: Kind::Query { mode: ExecutionMode::Columnar, container: COLUMNAR, queries: QuerySet::Scan },
    },
    Workload {
        name: "ingest_put",
        why: "the write path of the same layers: plain PUT and zoneindex PUT, so a GET-side gain that costs ingest shows",
        kind: Kind::Ingest,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn needs(&self) -> Needs {
        match self.kind {
            Kind::Ingest => Needs {
                ingest: true,
                ..Needs::default()
            },
            Kind::Query { container, .. } => Needs {
                plain: container == PLAIN,
                zoned: container == ZONED,
                columnar: container == COLUMNAR,
                ingest: false,
            },
        }
    }

    /// The container whose plain bytes the vanilla reference is computed
    /// over. `zoneindex` stores the bytes unchanged, so `zoned` serves as its
    /// own reference; the columnar container was converted from `largemeter`.
    pub fn reference_container(&self) -> Option<&'static str> {
        match self.kind {
            Kind::Ingest => None,
            Kind::Query {
                container: ZONED, ..
            } => Some(ZONED),
            Kind::Query { .. } => Some(PLAIN),
        }
    }
}

/// A query with a short name for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedSql {
    pub name: String,
    pub sql: String,
}

impl QuerySet {
    pub fn queries(self, scale: &Scale) -> Vec<NamedSql> {
        let table1 = || {
            table1_queries().into_iter().map(|q| NamedSql {
                name: q.name.to_string(),
                sql: q.sql,
            })
        };
        match self {
            QuerySet::Table1 => table1().collect(),
            QuerySet::Scan => table1()
                .filter(|q| q.name == "ShowMapCons" || q.name == "Showgraphcons")
                .collect(),
            QuerySet::LowSelectivity => [(1.0, "keep_all"), (0.5, "keep_half")]
                .into_iter()
                .map(|(keep, name)| NamedSql {
                    name: name.to_string(),
                    sql: low_selectivity_sql(scale.meters, keep),
                })
                .collect(),
        }
    }
}

/// An aggregate over all ten columns, so projection prunes nothing and no
/// large result set is built, keeping the stated fraction of the meters
/// (`vid` is zero-padded, so the cut is exact in rows).
fn low_selectivity_sql(meters: usize, keep_fraction: f64) -> String {
    let cutoff = (meters as f64 * keep_fraction).round() as usize;
    format!(
        "SELECT count(vid) as n, min(date) as d0, max(date) as d1, sum(index) as s_index, \
         sum(sumHC) as s_hc, sum(sumHP) as s_hp, min(lat) as lat0, max(long) as long1, \
         min(city) as city0, max(state) as state1, min(region) as region0 \
         FROM largeMeter WHERE vid < 'M{cutoff:05}'"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_sql::catalyst::plan_query;
    use scoop_workload::generator::meter_schema;

    #[test]
    fn names_are_unique_and_findable() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert_eq!(WORKLOADS.iter().filter(|o| o.name == w.name).count(), 1);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn query_sets_have_the_stated_shape() {
        let scale = Scale::FULL;
        assert_eq!(QuerySet::Table1.queries(&scale).len(), 7);
        let scan: Vec<String> = QuerySet::Scan
            .queries(&scale)
            .into_iter()
            .map(|q| q.name)
            .collect();
        assert_eq!(scan, ["ShowMapCons", "Showgraphcons"]);
        let low = QuerySet::LowSelectivity.queries(&scale);
        assert!(low[0].sql.ends_with("vid < 'M00200'"), "{}", low[0].sql);
        assert!(low[1].sql.ends_with("vid < 'M00100'"), "{}", low[1].sql);
    }

    #[test]
    fn low_selectivity_query_reads_every_column_and_pushes_its_filter() {
        let schema = meter_schema();
        let sql = &QuerySet::LowSelectivity.queries(&Scale::FULL)[1].sql;
        let plan = plan_query(&scoop_sql::parse(sql).unwrap(), &schema, true).unwrap();
        assert!(plan.fully_pushed());
        // Every column referenced: the planner sends no projection at all.
        assert_eq!(plan.pushdown.columns, None);
        assert_eq!(plan.scan_schema.len(), schema.len());
    }
}
