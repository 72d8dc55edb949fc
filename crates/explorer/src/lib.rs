//! Exhaustive, sampled, and interactive exploration for
//! Promising-ARM/RISC-V (§7).
//!
//! Every search discipline is a [`SearchModel`] run by the one generic
//! [`Engine`] (see [`engine`]):
//!
//! * [`PromiseFirstModel`] / [`explore_promise_first`] — the paper's
//!   two-phase promise-first search (Theorem 7.1): enumerate final
//!   memories by interleaving only promises, then run every thread
//!   independently.
//! * [`NaiveModel`] / [`explore_naive`] — full interleaving search, the
//!   correctness reference for the promise-first optimisation.
//! * `FlatModel` (in `promising-flat`) — the Flat-lite baseline on the
//!   same engine.
//! * [`Engine::sample`] — seeded random-walk sampling over any of them:
//!   a sound under-approximation for state spaces where exhaustive
//!   search is out of reach.
//! * [`Session`] — rmem-style interactive stepping with undo and traces.
//!
//! ```
//! use promising_core::{parse_program, Config, Machine, Reg, Val};
//! use promising_explorer::explore;
//! use std::sync::Arc;
//!
//! let (program, _) = parse_program(
//!     "store(x, 1)\ndmb.sy\nstore(y, 1)\n---\nr1 = load(y)\nr2 = load(x)",
//! )?;
//! let machine = Machine::new(Arc::new(program), Config::arm());
//! let result = explore(&machine);
//! // the weak outcome r1 = 1 ∧ r2 = 0 is allowed without a reader-side barrier
//! assert!(result
//!     .outcomes
//!     .iter()
//!     .any(|o| o.reg(1, Reg(1)) == Val(1) && o.reg(1, Reg(2)) == Val(0)));
//! # Ok::<(), promising_core::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod frontier;
pub mod interactive;
pub mod naive;
pub mod promise_first;
pub mod stats;

pub use engine::{Engine, Exploration, SearchBudget, SearchModel, SplitMix64};
pub use frontier::{drive, effective_workers, panic_message, Ctx, ShardedVisited, WorkerReport};
pub use interactive::{Session, TraceEntry};
pub use naive::{explore_naive, explore_naive_budget, CertMode, NaiveModel};
pub use promise_first::{explore_promise_first, explore_promise_first_budget, PromiseFirstModel};
pub use promising_core::Outcome;
pub use stats::{Stats, StopReason};

use promising_core::Machine;

/// Explore a machine with the default (promise-first) strategy.
pub fn explore(machine: &Machine) -> Exploration {
    explore_promise_first(machine)
}
