//! Replica crash masks, the failure axis of `cliffguard-core`'s replicated
//! designs: a [`FailureMask`] is a bitset of crashed replicas, and the
//! failure-aware objective takes the worst cost over every mask with up
//! to `k` crashes ([`enumerate_masks`], [`worst_over_masks`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod failure;

pub use failure::{
    capacity_inflation, enumerate_masks, is_crashed, survivors, worst_over_masks, FailureMask,
    MAX_REPLICAS,
};
