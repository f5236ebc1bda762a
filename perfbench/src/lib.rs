//! The benchmark's library: inputs and oracle (`data`, `paper`), the op
//! list (`ops`), the lanes ops are sent through (`lanes`), one run
//! (`run`), and the steadiness command (`steady`). `main.rs` is the
//! command line.

pub mod data;
pub mod db;
pub mod json;
pub mod lanes;
pub mod ops;
pub mod paper;
pub mod report;
pub mod run;
pub mod steady;
