//! # promising-lang
//!
//! A C11-flavoured surface language over the Promising-ARM/RISC-V
//! hardware calculus: loads/stores/RMWs/fences annotated with the C11
//! orderings (`na`/`rlx`/`acq`/`rel`/`acq_rel`/`sc`) instead of hardware
//! access strengths, plus two verified-style compilation schemes
//! lowering each access to the hardware statement layer following the
//! IMM mappings — `ldapr`/`ldar`/`stlr` strengths on ARMv8,
//! fence-bracketed plain accesses on RISC-V, `aq`/`rl` AMO bits on both.
//!
//! Write a litmus shape once, run it on either architecture:
//!
//! ```
//! use promising_lang::{compile_arm, compile_riscv, parse_program};
//!
//! let (p, locs) = parse_program(
//!     "store(x, 1, rlx)\nstore(y, 1, rel)\n---\nr1 = load(y, acq)\nr2 = load(x, rlx)",
//! ).unwrap();
//! let arm = compile_arm(&p);      // str; stlr ‖ ldapr; ldr
//! let riscv = compile_riscv(&p);  // s; fence rw,w; s ‖ l; fence r,rw; l
//! assert_eq!(locs.get("x").unwrap().0, 0);
//! assert!(arm.instruction_count() < riscv.instruction_count());
//! ```
//!
//! The `promising-litmus` crate wires this through the litmus format
//! (`LANG` headers), a language-level catalogue, and a conformance
//! harness checking that both compilations produce identical outcome
//! sets under every engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod parser;

pub use ast::{rmw_surface_name, Ordering, Program, Stmt, Thread};
pub use compile::{
    compile, compile_arm, compile_riscv, compile_thread, try_compile, try_compile_thread, validate,
    CompileError,
};
pub use parser::{parse_program, parse_thread};
