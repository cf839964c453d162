//! The catalog: tables, columns, and their statistics.

use crate::stats::ColumnStats;
use cliffguard_workload::{ColumnId, NameResolver, PredOp, TableId};
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::HashMap;

/// Definition of one column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (unique within its table).
    pub name: String,
    /// Average stored width in bytes (uncompressed).
    pub width_bytes: u32,
    /// Value statistics.
    pub stats: ColumnStats,
}

/// Definition of one table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Columns, in declaration order. Global [`ColumnId`]s are assigned
    /// densely across tables in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Row count.
    pub rows: u64,
}

impl TableDef {
    /// Total row width in bytes (the row-store scan unit).
    pub fn row_width(&self) -> u64 {
        self.columns.iter().map(|c| c.width_bytes as u64).sum()
    }
}

/// The database catalog. Owns all schema and statistics information the
/// simulators and designers need, and resolves SQL names for the parser.
///
/// On the wire a catalog is its `tables` plus their `offsets`. Decoding
/// builds the catalog from the tables by [`new`](Self::new)'s rule and
/// refuses what `new` asserts against, and stored `offsets` that disagree
/// with the tables, so every catalog, built or decoded, is complete.
#[derive(Debug, Clone, Serialize)]
pub struct Catalog {
    tables: Vec<TableDef>,
    /// Global column id of each table's first column.
    offsets: Vec<u32>,
    #[serde(skip)]
    by_name: HashMap<String, TableId>,
    /// Per global column id: its table and its position in that table.
    #[serde(skip)]
    slots: Vec<(u32, u32)>,
}

impl Catalog {
    /// Builds a catalog from table definitions.
    ///
    /// # Panics
    ///
    /// If there are no tables, or a table has no columns.
    pub fn new(tables: Vec<TableDef>) -> Self {
        Self::build(tables).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new), reporting what it refuses as an error.
    fn build(tables: Vec<TableDef>) -> Result<Self, String> {
        if tables.is_empty() {
            return Err("catalog needs at least one table".into());
        }
        let mut offsets = Vec::with_capacity(tables.len());
        let mut acc = 0u32;
        for t in &tables {
            if t.columns.is_empty() {
                return Err(format!("table `{}` has no columns", t.name));
            }
            offsets.push(acc);
            acc = u32::try_from(t.columns.len())
                .ok()
                .and_then(|n| acc.checked_add(n))
                .ok_or("catalog has more than u32::MAX columns")?;
        }
        let mut catalog = Self {
            tables,
            offsets,
            by_name: HashMap::new(),
            slots: Vec::new(),
        };
        catalog.rebuild_index();
        Ok(catalog)
    }

    /// Recomputes the derived lookup state (the name map and the
    /// per-column lookup array). Every constructor, decoding included,
    /// already runs it.
    pub fn rebuild_index(&mut self) {
        self.by_name = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.to_ascii_lowercase(), TableId(i as u32)))
            .collect();
        self.slots = self
            .tables
            .iter()
            .enumerate()
            .flat_map(|(t, def)| (0..def.columns.len() as u32).map(move |k| (t as u32, k)))
            .collect();
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of columns across all tables (the paper's `n`).
    pub fn column_count(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// Raw data size in bytes: every table's rows times its row width.
    pub fn data_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.rows * t.row_width()).sum()
    }

    /// Table definition by id.
    pub fn table(&self, t: TableId) -> &TableDef {
        &self.tables[t.index()]
    }

    /// All table ids.
    pub fn tables(&self) -> impl Iterator<Item = TableId> {
        (0..self.tables.len() as u32).map(TableId)
    }

    /// The table owning a global column id.
    pub fn table_of(&self, c: ColumnId) -> TableId {
        TableId(self.slots[c.0 as usize].0)
    }

    /// Column definition by global id.
    pub fn column(&self, c: ColumnId) -> &ColumnDef {
        let (t, k) = self.slots[c.0 as usize];
        &self.tables[t as usize].columns[k as usize]
    }

    /// Global column ids of a table.
    pub fn columns_of(&self, t: TableId) -> impl Iterator<Item = ColumnId> + '_ {
        let start = self.offsets[t.index()];
        (start..start + self.tables[t.index()].columns.len() as u32).map(ColumnId)
    }

    /// Global id of the `k`-th column of table `t`.
    pub fn column_id(&self, t: TableId, k: usize) -> ColumnId {
        ColumnId(self.offsets[t.index()] + k as u32)
    }

    /// Statistics-backed selectivity estimate for a predicate kind on a
    /// column (overrides the parser's static defaults).
    pub fn estimate_selectivity(&self, c: ColumnId, op: PredOp) -> f64 {
        self.column(c).stats.selectivity(op)
    }
}

impl Deserialize for Catalog {
    fn from_value(v: &Value) -> Result<Self, Error> {
        #[derive(Deserialize)]
        struct Wire {
            tables: Vec<TableDef>,
            offsets: Vec<u32>,
        }
        let wire = Wire::from_value(v)?;
        let catalog = Catalog::build(wire.tables).map_err(Error::msg)?;
        if catalog.offsets != wire.offsets {
            return Err(Error::msg("offsets do not match the tables"));
        }
        Ok(catalog)
    }
}

impl NameResolver for Catalog {
    fn resolve_table(&self, name: &str) -> Option<TableId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    fn resolve_column(
        &self,
        table_hint: Option<TableId>,
        in_scope: &[TableId],
        name: &str,
    ) -> Option<ColumnId> {
        let find = |t: TableId| {
            self.tables[t.index()]
                .columns
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(name))
                .map(|k| self.column_id(t, k))
        };
        match table_hint {
            Some(t) => find(t),
            None => in_scope.iter().copied().find_map(find),
        }
    }

    fn table_columns(&self, table: TableId) -> Vec<ColumnId> {
        self.columns_of(table).collect()
    }

    fn default_selectivity(&self, column: ColumnId, op: PredOp) -> f64 {
        self.estimate_selectivity(column, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::new(vec![
            TableDef {
                name: "fact".into(),
                columns: vec![
                    ColumnDef {
                        name: "id".into(),
                        width_bytes: 8,
                        stats: ColumnStats::uniform(1000),
                    },
                    ColumnDef {
                        name: "v".into(),
                        width_bytes: 4,
                        stats: ColumnStats::uniform(10),
                    },
                ],
                rows: 1000,
            },
            TableDef {
                name: "dim".into(),
                columns: vec![ColumnDef {
                    name: "id".into(),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(50),
                }],
                rows: 50,
            },
        ])
    }

    #[test]
    fn dense_global_ids() {
        let c = catalog();
        assert_eq!(c.column_count(), 3);
        assert_eq!(c.column_id(TableId(1), 0), ColumnId(2));
        assert_eq!(c.table_of(ColumnId(2)), TableId(1));
        assert_eq!(c.table_of(ColumnId(1)), TableId(0));
        assert_eq!(c.column(ColumnId(1)).name, "v");
        let cols: Vec<ColumnId> = c.columns_of(TableId(0)).collect();
        assert_eq!(cols, vec![ColumnId(0), ColumnId(1)]);
    }

    #[test]
    fn resolver_impl() {
        let c = catalog();
        assert_eq!(c.resolve_table("FACT"), Some(TableId(0)));
        assert_eq!(
            c.resolve_column(Some(TableId(1)), &[], "id"),
            Some(ColumnId(2))
        );
        // scope search order matters for ambiguous names
        assert_eq!(
            c.resolve_column(None, &[TableId(1), TableId(0)], "id"),
            Some(ColumnId(2))
        );
        assert_eq!(c.table_columns(TableId(0)).len(), 2);
    }

    #[test]
    fn selectivity_from_stats() {
        let c = catalog();
        assert!((c.estimate_selectivity(ColumnId(1), PredOp::Eq) - 0.1).abs() < 1e-12);
        assert!((c.default_selectivity(ColumnId(1), PredOp::Eq) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn row_width_sums_columns() {
        let c = catalog();
        assert_eq!(c.table(TableId(0)).row_width(), 12);
    }

    /// Generated catalogs of a few shapes, Zipf columns included.
    fn generated() -> Vec<Catalog> {
        use crate::datagen::CatalogGenerator;
        use cliffguard_workload::generator::SchemaShape;
        [vec![3], vec![9, 4, 1, 7], vec![12; 12]]
            .into_iter()
            .enumerate()
            .map(|(seed, widths)| {
                CatalogGenerator {
                    seed: seed as u64,
                    ..CatalogGenerator::default()
                }
                .generate(&SchemaShape::new(widths))
            })
            .collect()
    }

    /// The lookup array against a binary search over the tables' first
    /// column ids.
    #[test]
    fn array_lookups_match_the_binary_search() {
        let check = |c: &Catalog| {
            for id in 0..c.column_count() as u32 {
                let col = ColumnId(id);
                let t = match c.offsets.binary_search(&id) {
                    Ok(i) => TableId(i as u32),
                    Err(i) => TableId(i as u32 - 1),
                };
                assert_eq!(c.table_of(col), t);
                let k = (id - c.offsets[t.index()]) as usize;
                assert!(std::ptr::eq(c.column(col), &c.table(t).columns[k]));
            }
        };
        for c in generated() {
            assert_eq!(c.slots.len(), c.column_count());
            check(&c);
            // A serde round trip decodes a complete catalog.
            let back = Catalog::from_value(&c.to_value()).expect("catalog round-trips");
            assert_eq!(back.slots, c.slots);
            check(&back);
        }
    }

    /// Decoding refuses what `new` asserts against, and stored offsets
    /// that disagree with the tables.
    #[test]
    fn decoding_refuses_an_incomplete_catalog() {
        let good = catalog().to_value();
        assert!(Catalog::from_value(&good).is_ok());
        let with = |key: &str, value: Value| {
            let Value::Map(mut m) = good.clone() else {
                panic!("a catalog is a map");
            };
            m.iter_mut().find(|(k, _)| k == key).expect("key present").1 = value;
            Value::Map(m)
        };
        let no_columns = {
            let mut c = catalog();
            c.tables[1].columns.clear();
            c.to_value()
        };
        for (bad, why) in [
            (with("offsets", Value::Seq(vec![])), "offsets do not match"),
            (
                with("offsets", Value::Seq(vec![Value::U64(0), Value::U64(0)])),
                "offsets do not match",
            ),
            (with("offsets", Value::Null), "offsets: expected sequence"),
            (with("tables", Value::Seq(vec![])), "at least one table"),
            (no_columns, "table `dim` has no columns"),
        ] {
            let err = Catalog::from_value(&bad).expect_err(why).to_string();
            assert!(err.contains(why), "{why}: {err}");
        }
    }

    /// The selectivity rule as written before the Zipf memo: every call
    /// sums the terms again.
    fn uncached_selectivity(stats: &ColumnStats, op: PredOp) -> f64 {
        let ndv = stats.ndv as f64;
        let eq = match stats.distribution {
            crate::stats::Distribution::Uniform => 1.0 / ndv,
            crate::stats::Distribution::Zipf(theta) => {
                let n = stats.ndv.min(1024);
                let h: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
                let sq: f64 = (1..=n).map(|i| (i as f64).powf(-2.0 * theta)).sum();
                (sq / (h * h)).clamp(1.0 / ndv, 1.0)
            }
        };
        match op {
            PredOp::Eq => eq.clamp(1e-9, 1.0),
            PredOp::Range => 0.2,
            PredOp::In => (5.0 * eq).clamp(1e-9, 1.0),
            PredOp::Like => 0.1,
        }
    }

    #[test]
    fn zipf_memo_matches_the_uncached_rule_bit_for_bit() {
        let mut zipf = 0;
        for c in generated() {
            for id in 0..c.column_count() as u32 {
                let stats = &c.column(ColumnId(id)).stats;
                zipf += usize::from(matches!(
                    stats.distribution,
                    crate::stats::Distribution::Zipf(_)
                ));
                // The first call may fill the memo, the second reads it.
                for _ in 0..2 {
                    for op in [PredOp::Eq, PredOp::Range, PredOp::Like, PredOp::In] {
                        assert_eq!(
                            c.estimate_selectivity(ColumnId(id), op).to_bits(),
                            uncached_selectivity(stats, op).to_bits(),
                            "column {id} {op:?}"
                        );
                    }
                }
            }
        }
        assert!(zipf > 0, "the catalogs hold no Zipf column");
    }

    #[test]
    #[should_panic(expected = "no columns")]
    fn empty_table_rejected() {
        Catalog::new(vec![TableDef {
            name: "x".into(),
            columns: vec![],
            rows: 0,
        }]);
    }
}
