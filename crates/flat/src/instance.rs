//! Instruction instances of the Flat-lite machine.
//!
//! Unlike Promising's single-step instructions, a Flat instruction is an
//! *instance* that is fetched (possibly speculatively), executes in several
//! steps (address/data resolution, satisfy or propagate), and is finally
//! bound. This mirrors the abstract-microarchitectural structure of the
//! Flat model of Pulte et al. [POPL 2018] that the paper benchmarks
//! against.
//!
//! An instance's operation is its source statement, read from the
//! program that every machine state shares, so an [`Instance`] keeps only
//! what changes as it executes: its lifecycle [`InstState`] and, for
//! branches, the speculation guess and squash continuation. Cloning a
//! machine therefore copies no expression tree.

use promising_core::ids::{Reg, Timestamp, Val};
use promising_core::stmt::{Stmt, StmtId};

/// Does an instance of `op` read memory (RMWs count)?
pub(crate) fn is_load(op: &Stmt) -> bool {
    matches!(op, Stmt::Load { .. } | Stmt::Rmw { .. })
}

/// Does an instance of `op` write memory (RMWs count: they may write)?
pub(crate) fn is_store(op: &Stmt) -> bool {
    matches!(op, Stmt::Store { .. } | Stmt::Rmw { .. })
}

/// The registers an instance of `op` writes once bound.
pub(crate) fn written_regs(op: &Stmt) -> impl Iterator<Item = Reg> {
    let regs = match op {
        Stmt::Assign { reg, .. } | Stmt::Load { reg, .. } => [Some(*reg), None],
        Stmt::Store {
            succ,
            exclusive: true,
            ..
        } => [Some(*succ), None],
        Stmt::Rmw { dst, succ, .. } => [Some(*dst), Some(*succ)],
        _ => [None, None],
    };
    regs.into_iter().flatten()
}

/// Where a satisfied load got its value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Src {
    /// From memory at the given timestamp.
    Memory(Timestamp),
    /// Forwarded from the po-earlier store instance at this index.
    Forward(usize),
}

/// The lifecycle state of an instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstState {
    /// Fetched, nothing done yet.
    Pending,
    /// Assignment executed.
    Done {
        /// Computed value.
        val: Val,
    },
    /// Load satisfied (value bound; never restarted in Flat-lite).
    Satisfied {
        /// Source of the value.
        src: Src,
        /// The value read.
        val: Val,
    },
    /// Store propagated to memory.
    Propagated {
        /// Timestamp in memory.
        ts: Timestamp,
    },
    /// Store exclusive failed.
    Failed,
    /// RMW read half bound: read `old` at `tr`, write half still
    /// pending. The read's acquire strength is satisfied here, so
    /// po-later loads blocked only on the acquire may now bind — the
    /// `rmw` edge of the axiomatic model runs read→write, the wrong
    /// direction to order anything po-later after the *write*.
    RmwBound {
        /// Timestamp the read half read from.
        tr: Timestamp,
        /// The old value read.
        old: Val,
    },
    /// RMW retired: read `old` at `tr`, and (unless a CAS compare
    /// failed) wrote at `wrote`.
    RmwDone {
        /// Timestamp the read half read from.
        tr: Timestamp,
        /// The old value read.
        old: Val,
        /// Timestamp of the write (`None`: CAS compare failure, nothing
        /// written).
        wrote: Option<Timestamp>,
    },
    /// Fence or `isb` committed.
    Committed,
    /// Branch resolved.
    Resolved {
        /// Actual direction.
        taken: bool,
    },
}

/// One instruction instance: its statement and everything dynamic about
/// it. Its operation is the statement
/// ([`FlatMachine::op`](crate::FlatMachine::op)).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Instance {
    /// The statement this instance was fetched from.
    pub stmt: StmtId,
    /// Its lifecycle state.
    pub state: InstState,
    /// Branches only: the guessed direction (the actual direction once
    /// a mis-speculation is squashed; `false` for non-branches).
    pub guess: bool,
    /// Branches only: the fetch continuation for the direction *not*
    /// guessed, for squashing on mis-speculation (empty when the branch
    /// was fetched resolved or has been squashed).
    pub alt_cont: Vec<StmtId>,
}

impl Instance {
    /// Fresh pending instance.
    pub fn new(stmt: StmtId) -> Instance {
        Instance {
            stmt,
            state: InstState::Pending,
            guess: false,
            alt_cont: Vec::new(),
        }
    }

    /// Branch instance whose direction was known at fetch.
    pub(crate) fn resolved(stmt: StmtId, taken: bool) -> Instance {
        Instance {
            state: InstState::Resolved { taken },
            guess: taken,
            ..Instance::new(stmt)
        }
    }

    /// Whether the instance has reached a final state (its effects are
    /// bound and it can never change again). A bound-but-unpropagated
    /// RMW is *not* final: its write half is still a pending append.
    pub fn is_bound(&self) -> bool {
        !matches!(self.state, InstState::Pending | InstState::RmwBound { .. })
    }

    /// Whether the instance's *read half* is bound, given its operation
    /// `op`. For loads this is [`is_bound`](Self::is_bound); for RMWs the
    /// read binds at `RmwBound`, before the write half propagates.
    /// Instances without a read half are vacuously satisfied.
    pub fn read_satisfied(&self, op: &Stmt) -> bool {
        match op {
            Stmt::Load { .. } => self.is_bound(),
            Stmt::Rmw { .. } => matches!(
                self.state,
                InstState::RmwBound { .. } | InstState::RmwDone { .. }
            ),
            _ => true,
        }
    }

    /// The value this instance (with operation `op`) wrote to `r`, if it
    /// writes `r` and the value is available yet.
    pub fn written_reg(&self, op: &Stmt, r: Reg) -> Option<Option<Val>> {
        match op {
            Stmt::Assign { reg, .. } if *reg == r => Some(match self.state {
                InstState::Done { val } => Some(val),
                _ => None,
            }),
            Stmt::Load { reg, .. } if *reg == r => Some(match self.state {
                InstState::Satisfied { val, .. } => Some(val),
                _ => None,
            }),
            Stmt::Store {
                succ, exclusive, ..
            } if *exclusive && *succ == r => Some(match self.state {
                // The success value is bound when the store exclusive
                // propagates (success) or fails. This is the conservative
                // reading of ARM's success dependency (see DESIGN.md).
                InstState::Propagated { .. } => Some(Val::SUCCESS),
                InstState::Failed => Some(Val::FAIL),
                _ => None,
            }),
            Stmt::Rmw { dst, .. } if *dst == r => Some(match self.state {
                // The old value is visible as soon as the read half
                // binds — po-later dependents need not wait for the
                // write to land.
                InstState::RmwBound { old, .. } | InstState::RmwDone { old, .. } => Some(old),
                _ => None,
            }),
            Stmt::Rmw { succ, .. } if *succ == r => Some(match self.state {
                InstState::RmwDone { wrote, .. } => Some(if wrote.is_some() {
                    Val::SUCCESS
                } else {
                    Val::FAIL
                }),
                _ => None,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::expr::Expr;
    use promising_core::stmt::{ReadKind, RmwOp, WriteKind};

    #[test]
    fn pending_instances_are_unbound() {
        assert!(!Instance::new(StmtId(0)).is_bound());
        assert!(Instance::resolved(StmtId(0), true).is_bound());
    }

    #[test]
    fn written_reg_distinguishes_not_mine_and_not_ready() {
        let op = Stmt::Assign {
            reg: Reg(0),
            expr: Expr::val(1),
        };
        let mut i = Instance::new(StmtId(0));
        assert_eq!(i.written_reg(&op, Reg(1)), None); // not my register
        assert_eq!(i.written_reg(&op, Reg(0)), Some(None)); // mine, not ready
        i.state = InstState::Done { val: Val(1) };
        assert_eq!(i.written_reg(&op, Reg(0)), Some(Some(Val(1))));
    }

    #[test]
    fn exclusive_store_success_register_binds_at_propagate_or_fail() {
        let op = Stmt::Store {
            succ: Reg(2),
            addr: Expr::val(0),
            data: Expr::val(1),
            kind: WriteKind::Plain,
            exclusive: true,
        };
        let mut i = Instance::new(StmtId(0));
        assert_eq!(i.written_reg(&op, Reg(2)), Some(None));
        i.state = InstState::Failed;
        assert_eq!(i.written_reg(&op, Reg(2)), Some(Some(Val::FAIL)));
        i.state = InstState::Propagated { ts: Timestamp(1) };
        assert_eq!(i.written_reg(&op, Reg(2)), Some(Some(Val::SUCCESS)));
    }

    #[test]
    fn rmw_old_value_binds_at_read_half_success_at_write_half() {
        let op = Stmt::Rmw {
            op: RmwOp::FetchAdd,
            dst: Reg(1),
            succ: Reg(2),
            addr: Expr::val(0),
            expected: None,
            operand: Expr::val(1),
            rk: ReadKind::Acquire,
            wk: WriteKind::Plain,
        };
        let mut i = Instance::new(StmtId(0));
        assert!(!i.read_satisfied(&op));
        i.state = InstState::RmwBound {
            tr: Timestamp(0),
            old: Val(7),
        };
        // Read half bound: old value visible, success still pending,
        // and the instance as a whole is not final.
        assert!(i.read_satisfied(&op));
        assert!(!i.is_bound());
        assert_eq!(i.written_reg(&op, Reg(1)), Some(Some(Val(7))));
        assert_eq!(i.written_reg(&op, Reg(2)), Some(None));
        i.state = InstState::RmwDone {
            tr: Timestamp(0),
            old: Val(7),
            wrote: Some(Timestamp(1)),
        };
        assert!(i.is_bound());
        assert_eq!(i.written_reg(&op, Reg(2)), Some(Some(Val::SUCCESS)));
        assert_eq!(written_regs(&op).collect::<Vec<_>>(), [Reg(1), Reg(2)]);
        assert!(is_load(&op) && is_store(&op));
    }

    #[test]
    fn non_exclusive_store_does_not_write_success() {
        let op = Stmt::Store {
            succ: Reg(2),
            addr: Expr::val(0),
            data: Expr::val(1),
            kind: WriteKind::Plain,
            exclusive: false,
        };
        assert_eq!(Instance::new(StmtId(0)).written_reg(&op, Reg(2)), None);
        assert_eq!(written_regs(&op).count(), 0);
    }
}
