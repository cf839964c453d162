//! DDL export: render physical designs as the SQL a DBA would deploy.
//!
//! CliffGuard's output in production is a set of `CREATE PROJECTION` /
//! `CREATE INDEX` / `CREATE MATERIALIZED VIEW` statements handed to the
//! administrator ("The final (robust) design is then sent back to the
//! administrator, who may decide to deploy it in the DBMS", Section 2).
//! The projection syntax follows the paper's own Section 3 sketch.
//! [`columnar_script`] renders a whole columnar design, the script
//! `cliffguard design` prints; row-store structures render one at a time.

use crate::columnar::{ColumnarDesign, Projection};
use crate::row::{Index, MatView};
use cliffguard_storage::Catalog;
use std::fmt::Write as _;

/// Renders one projection as Vertica-style DDL.
pub fn projection_ddl(p: &Projection, catalog: &Catalog, name: &str) -> String {
    let table = &catalog.table(p.table).name;
    let cols: Vec<String> = p
        .columns
        .iter()
        .map(|c| catalog.column(c).name.clone())
        .collect();
    let mut ddl = String::new();
    let _ = write!(
        ddl,
        "CREATE PROJECTION {name}\n  AS SELECT {}\n  FROM {table}",
        cols.join(", ")
    );
    if !p.sort_order.is_empty() {
        let sort: Vec<String> = p
            .sort_order
            .iter()
            .map(|&c| catalog.column(c).name.clone())
            .collect();
        let _ = write!(ddl, "\n  ORDER BY {}", sort.join(", "));
    }
    ddl.push(';');
    ddl
}

/// Renders one index as DDL.
pub fn index_ddl(i: &Index, catalog: &Catalog, name: &str) -> String {
    let table = &catalog.table(i.table).name;
    let cols: Vec<String> = i
        .key
        .iter()
        .map(|&c| catalog.column(c).name.clone())
        .collect();
    format!("CREATE INDEX {name} ON {table} ({});", cols.join(", "))
}

/// Renders one materialized view as DDL (aggregates rendered as `MAX`
/// placeholders — the structural model does not track aggregate functions).
pub fn matview_ddl(v: &MatView, catalog: &Catalog, name: &str) -> String {
    let table = &catalog.table(v.table).name;
    let group: Vec<String> = v
        .group_by
        .iter()
        .map(|c| catalog.column(c).name.clone())
        .collect();
    let aggs: Vec<String> = v
        .columns
        .iter()
        .filter(|c| !v.group_by.contains(*c))
        .map(|c| {
            let n = &catalog.column(c).name;
            format!("MAX({n}) AS {n}")
        })
        .collect();
    let mut select = group.clone();
    select.extend(aggs);
    format!(
        "CREATE MATERIALIZED VIEW {name} AS\n  SELECT {}\n  FROM {table}\n  GROUP BY {};",
        select.join(", "),
        group.join(", ")
    )
}

/// Full deployment script for a columnar design.
pub fn columnar_script(d: &ColumnarDesign, catalog: &Catalog) -> String {
    let mut out = String::new();
    for (i, p) in d.projections.iter().enumerate() {
        let table = &catalog.table(p.table).name;
        let _ = writeln!(
            out,
            "{}\n",
            projection_ddl(p, catalog, &format!("{table}_proj_{i}"))
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhysicalDesign;
    use cliffguard_storage::{ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::{ColumnId, ColumnSet, TableId};

    fn catalog() -> Catalog {
        Catalog::new(vec![TableDef {
            name: "sales".into(),
            columns: vec![
                ColumnDef {
                    name: "id".into(),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(1000),
                },
                ColumnDef {
                    name: "region".into(),
                    width_bytes: 4,
                    stats: ColumnStats::uniform(10),
                },
                ColumnDef {
                    name: "amount".into(),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(500),
                },
            ],
            rows: 1000,
        }])
    }

    #[test]
    fn projection_ddl_matches_paper_syntax() {
        let cat = catalog();
        let p = Projection::new(TableId(0), ColumnSet::from_ids(&[1, 2]), vec![ColumnId(1)]);
        let ddl = projection_ddl(&p, &cat, "sales_proj_0");
        assert_eq!(
            ddl,
            "CREATE PROJECTION sales_proj_0\n  AS SELECT region, amount\n  FROM sales\n  ORDER BY region;"
        );
    }

    #[test]
    fn unsorted_projection_omits_order_by() {
        let cat = catalog();
        let p = Projection::new(TableId(0), ColumnSet::from_ids(&[0]), vec![]);
        let ddl = projection_ddl(&p, &cat, "x");
        assert!(!ddl.contains("ORDER BY"));
    }

    #[test]
    fn index_and_view_ddl() {
        let cat = catalog();
        let idx = Index::new(TableId(0), vec![ColumnId(1), ColumnId(0)]);
        assert_eq!(
            index_ddl(&idx, &cat, "i0"),
            "CREATE INDEX i0 ON sales (region, id);"
        );
        let v = MatView::new(
            TableId(0),
            ColumnSet::from_ids(&[1, 2]),
            ColumnSet::from_ids(&[1]),
        );
        let ddl = matview_ddl(&v, &cat, "mv0");
        assert!(ddl.contains("GROUP BY region"));
        assert!(ddl.contains("MAX(amount) AS amount"));
    }

    #[test]
    fn scripts_cover_all_structures() {
        let cat = catalog();
        let cd = ColumnarDesign::from_structures(vec![
            Projection::new(TableId(0), ColumnSet::from_ids(&[1]), vec![ColumnId(1)]),
            Projection::new(TableId(0), ColumnSet::from_ids(&[2]), vec![]),
        ]);
        let s = columnar_script(&cd, &cat);
        assert_eq!(s.matches("CREATE PROJECTION").count(), 2);
    }
}
