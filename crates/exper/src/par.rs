//! Scoped-thread parallel map for parameter sweeps.
//!
//! The implementation lives in [`ssp_model::par`]; this module re-exports
//! it for the experiment runners. The fan-out width obeys `SSP_THREADS`
//! and the in-process [`ssp_model::par::set_thread_override`] pin — see the
//! model module docs for the contract parallel callers must keep.

pub use ssp_model::par::{par_map, set_thread_override, thread_count};
