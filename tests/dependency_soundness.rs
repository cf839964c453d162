//! Soundness of the dependency predicate, and exactness of the sparse
//! benefit matrix that relies on it.
//!
//! [`PlanningEngine::plan_depends_on`] (behind its table-mask prefilter)
//! decides which queries a structure can move. Delta epochs re-cost only
//! those queries, and [`BenefitMatrix::build`] keeps a cell only for them,
//! so an under-approximating predicate would serve stale latencies and
//! change designs without breaking any determinism test. Both properties
//! run on generated multi-table catalogs and workloads, on both engines:
//!
//! * for every (query, structure `s`) pair the predicate calls
//!   independent and a random design `D`, the query's latency under `D`,
//!   `D ∪ {s}` and `D ∖ {s}` is bit-identical;
//! * the pruned matrix gives the same latencies, gains, costs, greedy and
//!   `IlpSelector` selections, bit for bit, as a dense reference that
//!   evaluates every cell ([`BenefitMatrix::build_unpruned`]).

use cliffguard::prelude::*;
use proptest::prelude::*;

/// SplitMix64: a self-contained, reproducible stream per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A catalog of 2–6 tables, 2–9 columns each.
fn catalog(rng: &mut Rng) -> Catalog {
    let widths: Vec<u32> = (0..2 + rng.below(5))
        .map(|_| 2 + rng.below(8) as u32)
        .collect();
    CatalogGenerator {
        seed: rng.next(),
        ..CatalogGenerator::default()
    }
    .generate(&SchemaShape::new(widths))
}

/// A random column of table `t`.
fn column_of(rng: &mut Rng, c: &Catalog, t: TableId) -> u32 {
    c.column_id(t, rng.below(c.table(t).columns.len())).0
}

/// One query: an anchor, up to two joined tables, selects, filters of
/// every kind, and sometimes grouping and ordering.
fn query(rng: &mut Rng, c: &Catalog) -> Query {
    let anchor = TableId(rng.below(c.table_count()) as u32);
    let mut tables = vec![anchor];
    let mut b = QueryBuilder::new(anchor);
    for _ in 0..rng.below(3) {
        let t = TableId(rng.below(c.table_count()) as u32);
        if !tables.contains(&t) {
            tables.push(t);
            b = b.join(t);
        }
    }
    let pick = |rng: &mut Rng| {
        let t = tables[rng.below(tables.len())];
        column_of(rng, c, t)
    };
    for _ in 0..1 + rng.below(3) {
        let col = pick(rng);
        b = b.select(&[col]);
    }
    for _ in 0..rng.below(4) {
        let col = pick(rng);
        let op = [PredOp::Eq, PredOp::Range, PredOp::Like, PredOp::In][rng.below(4)];
        b = b.filter(col, op, 1e-4 + rng.unit() * 0.5);
    }
    if rng.below(3) == 0 {
        let col = pick(rng);
        b = b.group_by(&[col]);
    } else if rng.below(4) == 0 {
        b = b.aggregate();
    }
    if rng.below(3) == 0 {
        let col = pick(rng);
        b = b.order_by(&[col]);
    }
    b.build()
}

fn workload(rng: &mut Rng, c: &Catalog) -> Workload {
    let n = 4 + rng.below(20);
    Workload::from_queries((0..n).map(|_| (query(rng, c), 1.0 + 20.0 * rng.unit())))
}

/// Structures to probe: the designer's candidates plus random ones, so
/// the pairs include structures no query asked for.
fn columnar_structures(rng: &mut Rng, e: &ColumnarEngine, w: &Workload) -> Vec<Projection> {
    let c = e.catalog();
    let mut out = ColumnarCandidates.candidates(e, w);
    for _ in 0..8 {
        let t = TableId(rng.below(c.table_count()) as u32);
        let cols: Vec<u32> = (0..1 + rng.below(4))
            .map(|_| column_of(rng, c, t))
            .collect();
        let sort: Vec<ColumnId> = cols
            .iter()
            .take(rng.below(cols.len() + 1))
            .map(|&k| ColumnId(k))
            .collect();
        out.push(Projection::new(t, ColumnSet::from_ids(&cols), sort));
    }
    out
}

fn row_structures(rng: &mut Rng, e: &RowEngine, w: &Workload) -> Vec<RowStructure> {
    let c = e.catalog();
    let mut out = RowCandidates.candidates(e, w);
    for _ in 0..8 {
        let t = TableId(rng.below(c.table_count()) as u32);
        let cols: Vec<u32> = (0..1 + rng.below(3))
            .map(|_| column_of(rng, c, t))
            .collect();
        if rng.below(2) == 0 {
            out.push(RowStructure::Index(Index::new(
                t,
                cols.iter().map(|&k| ColumnId(k)).collect(),
            )));
        } else {
            let group = ColumnSet::from_ids(&cols[..1]);
            out.push(RowStructure::MatView(MatView::new(
                t,
                ColumnSet::from_ids(&cols),
                group,
            )));
        }
    }
    out
}

/// The filter both consumers apply: a structure can move a plan only if
/// their table masks meet and the predicate says so.
fn may_depend<E: PlanningEngine>(
    e: &E,
    plan: &E::Plan,
    s: &<E::Design as PhysicalDesign>::Structure,
) -> bool {
    e.plan_tables_mask(plan) & e.structure_tables_mask(s) != 0 && e.plan_depends_on(plan, s)
}

/// Every pair the filter calls independent keeps its latency bits when
/// `s` joins or leaves a random design. Returns the pairs checked.
fn check_independent_pairs<E: PlanningEngine>(
    rng: &mut Rng,
    e: &E,
    w: &Workload,
    structures: &[<E::Design as PhysicalDesign>::Structure],
) -> usize {
    let design: Vec<_> = structures
        .iter()
        .filter(|_| rng.below(4) == 0)
        .cloned()
        .collect();
    let d = E::Design::from_structures(design.clone());
    let mut checked = 0;
    for (q, _) in w.iter() {
        let plan = e.compile_plan(q);
        let base = e.plan_latency_ms(&plan, &d).to_bits();
        for s in structures {
            if may_depend(e, &plan, s) {
                continue;
            }
            let mut with = design.clone();
            with.push(s.clone());
            let without: Vec<_> = design.iter().filter(|x| *x != s).cloned().collect();
            for other in [with, without] {
                let l = e.plan_latency_ms(&plan, &E::Design::from_structures(other));
                prop_assert_eq!(l.to_bits(), base, "independent structure moved a latency");
            }
            checked += 1;
        }
    }
    checked
}

/// The pruned matrix against the dense reference, bit for bit.
fn check_matrix_against_dense<E: PlanningEngine>(
    rng: &mut Rng,
    e: &E,
    w: &Workload,
    candidates: Vec<<E::Design as PhysicalDesign>::Structure>,
) {
    let sparse = BenefitMatrix::build(e, w, candidates.clone());
    let dense = BenefitMatrix::build_unpruned(e, w, candidates);
    prop_assert_eq!(dense.cell_count(), dense.len() * w.len());
    prop_assert!(sparse.cell_count() <= dense.cell_count());
    for c in 0..dense.len() {
        for q in 0..w.len() {
            prop_assert_eq!(
                sparse.latency(c, q).to_bits(),
                dense.latency(c, q).to_bits()
            );
        }
        prop_assert_eq!(
            sparse.standalone_gain(c).to_bits(),
            dense.standalone_gain(c).to_bits()
        );
    }
    // Budgets from nothing up to a third of every candidate's price; the
    // exact search keeps to 12 candidates so each case stays quick.
    let total: u64 = dense.prices.iter().sum();
    let ilp = IlpSelector { max_candidates: 12 };
    for budget in [0, 1 + rng.next() % (total / 8 + 1), total / 3] {
        let greedy = sparse.greedy_select(budget);
        prop_assert_eq!(&greedy, &dense.greedy_select(budget));
        prop_assert_eq!(&greedy, &sparse.greedy_select_eager(budget));
        let exact = ilp.select(&sparse, budget);
        prop_assert_eq!(&exact, &ilp.select(&dense, budget));
        for set in [&greedy, &exact] {
            prop_assert_eq!(
                sparse.cost_of_set(set).to_bits(),
                dense.cost_of_set(set).to_bits()
            );
        }
    }
    let random: Vec<usize> = (0..dense.len()).filter(|_| rng.below(3) == 0).collect();
    prop_assert_eq!(
        sparse.cost_of_set(&random).to_bits(),
        dense.cost_of_set(&random).to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn independent_structures_never_move_a_columnar_latency(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let e = ColumnarEngine::new(catalog(&mut rng));
        let w = workload(&mut rng, e.catalog());
        let structures = columnar_structures(&mut rng, &e, &w);
        check_independent_pairs(&mut rng, &e, &w, &structures);
    }

    #[test]
    fn independent_structures_never_move_a_row_latency(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let e = RowEngine::new(catalog(&mut rng));
        let w = workload(&mut rng, e.catalog());
        let structures = row_structures(&mut rng, &e, &w);
        check_independent_pairs(&mut rng, &e, &w, &structures);
    }

    #[test]
    fn sparse_columnar_matrix_matches_the_dense_reference(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let e = ColumnarEngine::new(catalog(&mut rng));
        let w = workload(&mut rng, e.catalog());
        let candidates = ColumnarCandidates.candidates(&e, &w);
        check_matrix_against_dense(&mut rng, &e, &w, candidates);
    }

    #[test]
    fn sparse_row_matrix_matches_the_dense_reference(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let e = RowEngine::new(catalog(&mut rng));
        let w = workload(&mut rng, e.catalog());
        let candidates = RowCandidates.candidates(&e, &w);
        check_matrix_against_dense(&mut rng, &e, &w, candidates);
    }
}

/// The generators above reach pairs the predicate rules out on both
/// engines, so the properties are not vacuous.
#[test]
fn generated_cases_include_independent_pairs() {
    let (mut columnar, mut row) = (0, 0);
    for seed in 0..8 {
        let mut rng = Rng(seed);
        let e = ColumnarEngine::new(catalog(&mut rng));
        let w = workload(&mut rng, e.catalog());
        let s = columnar_structures(&mut rng, &e, &w);
        columnar += check_independent_pairs(&mut rng, &e, &w, &s);
        let mut rng = Rng(seed);
        let e = RowEngine::new(catalog(&mut rng));
        let w = workload(&mut rng, e.catalog());
        let s = row_structures(&mut rng, &e, &w);
        row += check_independent_pairs(&mut rng, &e, &w, &s);
    }
    assert!(columnar > 100, "only {columnar} independent columnar pairs");
    assert!(row > 100, "only {row} independent row pairs");
}

/// The generated matrices do skip cells and the budgets do buy
/// structures, so the matrix comparison is not vacuous either.
#[test]
fn generated_matrices_skip_cells_and_select_structures() {
    let (mut kept, mut all, mut selected) = (0, 0, 0);
    for seed in 0..8 {
        let mut rng = Rng(seed);
        let e = ColumnarEngine::new(catalog(&mut rng));
        let w = workload(&mut rng, e.catalog());
        let m = BenefitMatrix::build(&e, &w, ColumnarCandidates.candidates(&e, &w));
        kept += m.cell_count();
        all += m.len() * w.len();
        let total: u64 = m.prices.iter().sum();
        selected += m.greedy_select(total / 3).len();
    }
    assert!(kept < all, "no cell skipped: {kept} of {all}");
    assert!(selected > 0, "no budget bought a structure");
}
