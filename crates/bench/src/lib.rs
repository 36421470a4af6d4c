//! Shared fixtures and reporting helpers for the paper-reproduction
//! binaries, plus the `flexbench` report schema and regression gate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fixtures;
pub mod gate;
pub mod report;
pub mod timing;
