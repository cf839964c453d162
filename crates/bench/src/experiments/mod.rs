//! One module per reproduced table/figure; nothing else runs here.

mod basic;
mod comparison;
mod knobs;

pub use basic::{fig05, fig06, fig16, table1};
pub use comparison::{fig07, fig10, fig14, fig15};
pub use knobs::{fig08, fig09, fig11, fig12, fig13};

use crate::scale::Scale;
use crate::table::Table;

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &[
    "table1", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, scale: Scale, seed: u64) -> Option<Vec<Table>> {
    match id {
        "table1" => Some(table1::run(scale, seed)),
        "fig05" => Some(fig05::run(scale, seed)),
        "fig06" => Some(fig06::run(scale, seed)),
        "fig07" => Some(fig07::run(scale, seed)),
        "fig08" => Some(fig08::run(scale, seed)),
        "fig09" => Some(fig09::run(scale, seed)),
        "fig10" => Some(fig10::run(scale, seed)),
        "fig11" => Some(fig11::run(scale, seed)),
        "fig12" => Some(fig12::run(scale, seed)),
        "fig13" => Some(fig13::run(scale, seed)),
        "fig14" => Some(fig14::run(scale, seed)),
        "fig15" => Some(fig15::run(scale, seed)),
        "fig16" => Some(fig16::run(scale, seed)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_dispatches() {
        // Run the cheapest experiment fully; just check dispatch for the
        // rest (the `experiments` binary runs them all).
        assert!(run_experiment("bogus", Scale::Tiny, 1).is_none());
        let t = run_experiment("table1", Scale::Tiny, 1).unwrap();
        assert!(!t.is_empty());
        for id in ALL_IDS {
            // ids are unique
            assert_eq!(ALL_IDS.iter().filter(|x| x == &id).count(), 1);
        }
    }
}
