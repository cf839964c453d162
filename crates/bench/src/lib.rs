//! The CliffGuard experiment harness: regenerates every table and figure
//! of the paper's evaluation (Section 6 and Appendix A).
//!
//! Each experiment lives in [`experiments`] as a `run(scale, seed)`
//! function returning printable [`Table`]s whose rows/series match what the
//! paper reports. The `experiments` binary drives them
//! (`cargo run --release -p cliffguard-bench --bin experiments -- all`).
//! Performance is measured elsewhere, by the `perf` benchmark in
//! `src/bin/perf/`; this crate only regenerates the paper's numbers.
//!
//! | id     | paper artifact                                            |
//! |--------|-----------------------------------------------------------|
//! | table1 | inter-window δ statistics for R1/S1/S2                    |
//! | fig05  | shared-template fraction vs window lag                    |
//! | fig06  | soundness of δ_euclidean (latency vs distance)            |
//! | fig07  | designer comparison on the columnar engine (R1/S1/S2)     |
//! | fig08  | Γ sweep on R1 (columnar)                                  |
//! | fig09  | Γ sweep on S2 (columnar)                                  |
//! | fig10  | designer comparison on the row engine (R1)                |
//! | fig11  | distance-function ablation                                |
//! | fig12  | sample-size (n) sweep                                     |
//! | fig13  | iteration-count sweep                                     |
//! | fig14  | offline design time vs deployment time                    |
//! | fig15  | designer comparison on the row engine (S1/S2)             |
//! | fig16  | δ_latency monotonicity for ω = 0.1 / 0.2                  |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scale;
mod setup;
mod table;

pub mod experiments;

pub use scale::Scale;
pub use setup::{columnar_setup, row_setup, ColumnarSetup, RowSetup};
pub use table::Table;
