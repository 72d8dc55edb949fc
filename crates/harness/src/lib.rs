//! # promising-harness
//!
//! A Loom-style Rust-closure frontend for the Promising-ARM/RISC-V
//! models: write a litmus test as plain Rust closures over
//! [`Atomic`] handles taking `std::sync::atomic::Ordering`, and the
//! harness *records* the closures' loads, stores, fences and RMWs into
//! a `promising-lang` surface program, compiles it to both ARM and
//! RISC-V via the IMM/RVWMO schemes, and explores it under every
//! operational strategy (promise-first, naive, Flat) — reporting the
//! set of per-thread return-value tuples.
//!
//! ```
//! use promising_harness::{Environment, LogTest};
//! use std::sync::atomic::Ordering;
//!
//! let mut sb = LogTest::named("store-buffering");
//! sb.add(|e: Environment| {
//!     e.a.store(1, Ordering::SeqCst);
//!     e.b.load(Ordering::SeqCst)
//! });
//! sb.add(|e: Environment| {
//!     e.b.store(1, Ordering::SeqCst);
//!     e.a.load(Ordering::SeqCst)
//! });
//! sb.assert_forbidden(&[0, 0]); // SC forbids both threads missing
//! sb.assert_allowed(&[1, 1]);
//! ```
//!
//! ## How recording works
//!
//! Closures never touch real shared memory: each handle operation is
//! recorded, and every value-returning operation (load, RMW) is fed each
//! of its location's *candidate values* in turn, re-executing the
//! closure once per combination (bounded by the value-op cap). Control
//! flow on loaded values is thereby observed, not parsed: the recorded
//! paths are re-assembled into an `if`-tree branching on the fed
//! register, with identical continuations merged and common
//! prefixes/suffixes hoisted so that no spurious control dependency is
//! introduced. Candidate values start at `{0}` and grow to a fixpoint
//! over the values the recorded paths store. See
//! `docs/architecture.md` for the recording model and its soundness
//! caveats (bounded spins, weak CAS modeled strong, non-atomic data).
//!
//! The literature corpus ([`corpus`]) ports classic shapes from the
//! temper memlog suite (stackoverflow answers), Preshing's blog series,
//! "Rust Atomics and Locks", and the C++ seq-cst classics, each with
//! its documented expected outcome set on both architectures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
pub mod corpus;
mod error;
mod logtest;
mod record;

pub use build::RESULT_REG;
pub use error::HarnessError;
pub use logtest::{fmt_outcomes, LogTest, Matrix, MatrixRun, RecordedTest, ARCHES, STRATEGIES};
pub use promising_core::Arch;
pub use promising_litmus::{ModelKind, SearchBudget, StopReason};
pub use record::{Atomic, Environment};
