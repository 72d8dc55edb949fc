//! Umbrella crate for the Promising-ARM/RISC-V reproduction.
//!
//! Re-exports the workspace crates under one roof so that the examples and
//! cross-crate integration tests in this repository can depend on a single
//! package. Library users should depend on the individual crates
//! (`promising-core`, `promising-explorer`, …) directly.

#![forbid(unsafe_code)]

pub use promising_axiomatic as axiomatic;
pub use promising_core as core;
pub use promising_explorer as explorer;
pub use promising_flat as flat;
pub use promising_lang as lang;
pub use promising_litmus as litmus;
pub use promising_workloads as workloads;
