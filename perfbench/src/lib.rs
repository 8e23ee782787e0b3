//! The repository's benchmark: a wall-clock, oracle-checked run of four
//! workloads through `concept_rank::SharedEngine`, and a separate traced
//! run that attributes the time to layers. See `README.md` beside this
//! crate's manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod oracle;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
