//! End-to-end and per-layer benchmark of the qic workspace.
//!
//! `qicbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload through the public API (`qic::run`, the service,
//! the report emitters and the record codec), checks its outputs, and
//! prints every metric by name with unit and sample count. The last
//! line is one JSON object with the results. See `README.md` beside
//! this crate.

pub mod catalog;
pub mod metrics;
pub mod replay;
pub mod trace;
pub mod workloads;
pub mod yardstick;
