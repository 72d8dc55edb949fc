//! Litmus tests for Promising-ARM/RISC-V: a textual format (hardware
//! `ARM`/`RISCV` headers and language-level `LANG` headers), the classic
//! named catalogue with architectural expectations plus a C11
//! language-level catalogue, systematic diy-style generators for both
//! layers, and a harness that runs any test under the Promising
//! (promise-first or naive), axiomatic, and Flat-lite models and
//! compares their outcome sets — for language-level tests, across both
//! compiled architectures at once ([`check_lang_conformance`]).
//!
//! ```
//! use promising_litmus::{by_name, evaluate, ModelKind};
//!
//! let test = by_name("MP+dmb.sy+addr").expect("catalogue test");
//! let verdict = evaluate(&test, ModelKind::Promising)?;
//! assert!(!verdict.holds); // the weak outcome is forbidden
//! assert_eq!(verdict.matches_expectation, Some(true));
//! # Ok::<(), promising_litmus::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod format;
pub mod generator;
pub mod harness;
pub mod test;

pub use catalogue::{by_name, catalogue, catalogue_for, lang_by_name, lang_catalogue};
pub use format::{parse_lang_litmus, parse_litmus};
pub use generator::{
    generate_lang_subsample, generate_lang_suite, generate_rmw_subsample, generate_subsample,
    generate_suite, generate_three_thread_suite, links_for, Link, RMW_LINKS,
};
pub use harness::{
    check_agreement, check_lang_conformance, evaluate, evaluate_lang, run_lang_model, run_model,
    run_model_budgeted, run_model_budgeted_with, run_model_isolated, run_model_sampled,
    run_model_sampled_budgeted, run_model_with, Agreement, LangConformance, ModelKind, ModelRun,
    RunError, Verdict, DEFAULT_FUEL,
};
pub use promising_explorer::{SearchBudget, StopReason};
pub use test::{Condition, Expectation, LangTest, LitmusTest, Pred, Quantifier};
