//! The Flat-lite machine: out-of-order instruction execution over a flat
//! list memory, with explicit branch speculation and squash.
//!
//! Nondeterministic transitions (interleaved across threads):
//!
//! * **speculative fetch** past an unresolved branch (two guesses);
//! * **load satisfy** — binds a load to the current coherence-latest write
//!   (or forwards from an unpropagated po-earlier store);
//! * **store propagate** — appends to memory, out of order where the
//!   architecture allows;
//! * **store-exclusive fail**;
//! * **RMW bind / RMW propagate** — the two halves of a
//!   single-instruction atomic: the bind satisfies the read (and the
//!   acquire strength), the propagate appends the write, gated on no
//!   foreign same-location write having landed in between.
//!
//! Everything else (fetch of non-branches, register computation, branch
//! resolution + mis-speculation squash, fence/isb commit) is deterministic
//! and auto-drained after every transition. This gives the baseline the
//! multiple-steps-per-instruction, speculation-and-squash cost structure
//! of the original Flat model.
//!
//! Compared to the architecture (and to Promising), Flat-lite makes two
//! *conservative* simplifications, documented in DESIGN.md: loads wait for
//! the addresses of all po-earlier accesses to resolve (real ARM lets them
//! satisfy speculatively and restarts on coherence violations), and a
//! store exclusive's success register binds only at propagate/fail time
//! (real ARM may assume success early — the §C.1 relaxation). Both make
//! Flat-lite forbid a handful of exotic outcomes that the other two models
//! allow; the litmus harness skips exactly those shapes for Flat.

use crate::instance::{self, InstState, Instance, Src};
use promising_core::config::Arch;
use promising_core::config::Config;
use promising_core::expr::Expr;
use promising_core::fingerprint::{Fingerprint, FpHasher, WordSink};
use promising_core::ids::{Loc, Reg, TId, Timestamp, Val};
use promising_core::memory::{Memory, Msg};
use promising_core::stmt::{
    MayAccess, Program, ReadKind, RmwOp, Stmt, StmtId, WriteKind, SCRATCH_REG_BASE,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// One hardware thread.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FlatThread {
    /// Fetched instruction instances, in fetch (program) order along the
    /// current speculative path.
    pub instances: Vec<Instance>,
    /// Continuation to fetch from next.
    pub fetch_cont: Vec<StmtId>,
    /// Remaining taken-loop fetch budget.
    pub fetch_fuel: u32,
    /// Set when the loop bound was exhausted on a *resolved* path.
    pub stuck: bool,
}

/// A nondeterministic Flat transition.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FlatTransition {
    /// Speculatively fetch past the unresolved branch at the fetch point,
    /// guessing the given direction.
    FetchBranch {
        /// Acting thread.
        tid: TId,
        /// Guessed direction.
        taken: bool,
    },
    /// Satisfy the pending load instance at `idx`.
    Satisfy {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
    /// Propagate the pending store instance at `idx` to memory.
    Propagate {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
    /// Fail the pending store-exclusive instance at `idx`.
    FailStx {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
    /// Bind the read half of the pending RMW instance at `idx`: read the
    /// coherence-latest write, satisfying the acquire strength. A CAS
    /// whose compare fails degrades here to a bare bound read and
    /// retires immediately.
    BindRmw {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
    /// Propagate the write half of the bound RMW instance at `idx`:
    /// append the updated value, guarded by the exclusive-pairing
    /// invariant (no other thread's write to the location between the
    /// bound read and the append).
    PropagateRmw {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
}

impl fmt::Display for FlatTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatTransition::FetchBranch { tid, taken } => {
                write!(
                    f,
                    "{tid}: speculate {}",
                    if *taken { "taken" } else { "not-taken" }
                )
            }
            FlatTransition::Satisfy { tid, idx } => write!(f, "{tid}: satisfy #{idx}"),
            FlatTransition::Propagate { tid, idx } => write!(f, "{tid}: propagate #{idx}"),
            FlatTransition::FailStx { tid, idx } => write!(f, "{tid}: stx-fail #{idx}"),
            FlatTransition::BindRmw { tid, idx } => write!(f, "{tid}: rmw-bind #{idx}"),
            FlatTransition::PropagateRmw { tid, idx } => {
                write!(f, "{tid}: rmw-propagate #{idx}")
            }
        }
    }
}

/// The Flat-lite machine state. The program, whose statements are the
/// instances' operations, is shared by every clone; only the threads'
/// instance lists, fetch state and the memory are per-state.
#[derive(Clone, Debug)]
pub struct FlatMachine {
    config: Arc<Config>,
    program: Arc<Program>,
    threads: Vec<FlatThread>,
    memory: Memory,
}

/// Hashable dynamic state for visited-set deduplication.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum FlatStateKey {
    /// Raw state — per-thread instance lists and fetch state plus the
    /// absolute-timestamp memory (used with `Config::dpor` off).
    Raw {
        /// Per-thread instance lists and fetch state.
        threads: Vec<FlatThread>,
        /// Memory contents.
        memory: Memory,
    },
    /// Canonical per-location word stream
    /// ([`FlatMachine::canonical_words`], used with `Config::dpor` on):
    /// states that differ only in the interleaving order of appends to
    /// *different* locations share one key, merging them in the visited
    /// set.
    Canon(Vec<u64>),
}

impl FlatMachine {
    /// Initial machine.
    pub fn new(program: Arc<Program>, config: Config) -> FlatMachine {
        FlatMachine::with_init(program, config, BTreeMap::new())
    }

    /// Initial machine with litmus initial values.
    pub fn with_init(
        program: Arc<Program>,
        config: Config,
        init: BTreeMap<Loc, Val>,
    ) -> FlatMachine {
        let threads = program
            .threads()
            .iter()
            .map(|code| FlatThread {
                instances: Vec::new(),
                fetch_cont: vec![code.entry()],
                fetch_fuel: config.loop_fuel,
                stuck: false,
            })
            .collect();
        let mut m = FlatMachine {
            config: Arc::new(config),
            program,
            threads,
            memory: Memory::with_init(init),
        };
        m.drain();
        m
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        self.config.as_ref()
    }

    /// The memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The threads.
    pub fn threads(&self) -> &[FlatThread] {
        &self.threads
    }

    /// The operation of thread `tid`'s instance fetched from `stmt`: the
    /// statement itself, shared by every instance fetched from it.
    pub fn op(&self, tid: TId, stmt: StmtId) -> &Stmt {
        self.program.threads()[tid.0].stmt(stmt)
    }

    /// Exact dedup key (stored by the paranoid visited-set mode to
    /// detect fingerprint collisions). With the per-location dynamic POR
    /// layer on (`Config::dpor`), this is the canonical word stream of
    /// [`FlatMachine::canonical_words`], so bisimilar states *compare
    /// equal* — merging them is the point, not a collision.
    pub fn state_key(&self) -> FlatStateKey {
        if self.config.por && self.config.dpor {
            FlatStateKey::Canon(self.canonical_words())
        } else {
            FlatStateKey::Raw {
                threads: self.threads.clone(),
                memory: self.memory.clone(),
            }
        }
    }

    /// Canonical per-location encoding of the dynamic state, as an
    /// unambiguous (length-prefixed) word stream.
    ///
    /// Absolute timestamps are replaced by `(location, per-location
    /// index)` pairs and memory by its per-location message streams, so
    /// two states that differ only in the *interleaving order* of
    /// appends to different locations encode identically. This is sound
    /// because Flat-lite's future behaviour observes memory only through
    /// per-location structure:
    ///
    /// * `latest_write_at_most(loc, |M|)` (load satisfy, RMW read) is the
    ///   last message of `loc`'s stream;
    /// * `atomic(loc, tid, tr, |M|+1)` (store-exclusive success) is
    ///   vacuous when the paired read `tr` was to a different location,
    ///   and otherwise quantifies only over `loc`'s messages after `tr`'s
    ///   per-location position;
    /// * `outcome()` reads per-location final values and register values
    ///   stored directly in instance states;
    /// * enabledness scans, footprints and the POR reduce look only at
    ///   instance states, resolved addresses and the static may-access
    ///   sets.
    ///
    /// Hence the timestamp order-isomorphism matching messages per
    /// location in stream order is a bisimulation relating two such
    /// states, and deduplicating them preserves the outcome set — this
    /// is the per-location append independence of the dynamic POR layer,
    /// realised as state merging rather than transition pruning. (The
    /// *promising* machine cannot do this: its scalar views cover
    /// timestamp prefixes, so the interleaving order of disjoint appends
    /// is observable there.)
    ///
    /// Instance operations are functions of their source statement except
    /// for branches, exactly as in [`FlatMachine::fingerprint`], so
    /// `(stmt, state)` per instance plus the branch extras is complete.
    ///
    /// # Retired-prefix summarisation
    ///
    /// On top of the timestamp renaming, each thread's maximal fully
    /// *bound* instance prefix is collapsed to what the thread's future
    /// can still observe of it. Every nondeterministic-transition guard
    /// ([`FlatMachine::load_source`], [`FlatMachine::store_ready`],
    /// [`FlatMachine::rmw_ready`]) passes bound instances through with
    /// no effect (a bound store is `Propagated`/`Failed`, so it is never
    /// a forwarding source and satisfies every `need_done` arm; bound
    /// loads/RMWs/fences pass every `is_bound` arm; bound addresses
    /// always evaluate), so a retired prefix influences the future only
    /// through three channels, which the encoding keeps:
    ///
    /// * **register values** — `reg_value`/`eval_at`/`outcome` read the
    ///   nearest po-earlier writer via `written_reg`; the prefix
    ///   collapses to its final register map. User-visible registers
    ///   keep explicit zero entries (`outcome` reports a register iff
    ///   some instance wrote it); scratch registers drop value-0 entries
    ///   (`reg_value` falls back to 0 and `outcome` ignores them);
    /// * **the exclusive-pairing bank** — [`FlatMachine::stx_pairing`]
    ///   walks back to the first exclusive-relevant instance; once that
    ///   walk enters a bound prefix its answer is frozen (every arm is
    ///   final on bound instances), so the prefix collapses to that one
    ///   `Option<Timestamp>`;
    /// * **forwarded sources** — a bound load's `Src::Forward(k)` whose
    ///   source store has propagated at `ts` is observationally
    ///   `Src::Memory(ts)` (`stx_pairing` resolves both identically and
    ///   nothing else reads a bound load's source), so such sources are
    ///   canonicalised to the memory form and suffix-internal forward
    ///   indices are rebased.
    ///
    /// Two states with equal words are therefore bisimilar: equal
    /// suffixes, fetch state, register summaries, banks and per-location
    /// memory streams induce identical enabled transitions with
    /// identical effects, and equal outcomes on termination. This is
    /// what cracks the append-bound retry loops: a retired CAS-retry
    /// iteration leaves only its final register values behind, so
    /// executions that failed the same number of times against
    /// different (dead) old values of the contended word merge.
    pub fn canonical_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.canonical_words_into(&mut out);
        out
    }

    /// Stream the canonical encoding of [`FlatMachine::canonical_words`]
    /// into `out` without materialising a buffer — the dedup hot path
    /// sinks it straight into an [`FpHasher`], so fingerprinting a state
    /// under `Config::dpor` no longer allocates a per-state word vector.
    pub fn canonical_words_into<W: WordSink>(&self, out: &mut W) {
        // ts -> (loc+1, per-location index); ts 0 (the initial write,
        // distinguished) -> (0, 0).
        let mut next: BTreeMap<Loc, u64> = BTreeMap::new();
        let mut canon: Vec<(u64, u64)> = Vec::with_capacity(self.memory.len());
        let mut streams: BTreeMap<Loc, Vec<&Msg>> = BTreeMap::new();
        for (_, m) in self.memory.iter() {
            let idx = next.entry(m.loc).or_insert(0);
            canon.push((m.loc.0 + 1, *idx));
            *idx += 1;
            streams.entry(m.loc).or_default().push(m);
        }
        let canon_ts = |ts: Timestamp| -> (u64, u64) {
            if ts.is_initial() {
                (0, 0)
            } else {
                canon[ts.0 as usize - 1]
            }
        };
        let ts = |out: &mut W, t: Timestamp| {
            let (a, b) = canon_ts(t);
            out.word(a);
            out.word(b);
        };
        out.word(self.threads.len() as u64);
        for (t, code) in self.threads.iter().zip(self.program.threads()) {
            out.word(t.stuck as u64);
            out.word(t.fetch_fuel as u64);
            out.word(t.fetch_cont.len() as u64);
            for s in &t.fetch_cont {
                out.word(s.0 as u64);
            }
            // Maximal fully-bound prefix: collapsed to its final
            // register map and exclusive-pairing bank (see the doc
            // comment — bound instances are invisible to every
            // transition guard beyond those two channels).
            let live = t
                .instances
                .iter()
                .position(|i| !i.is_bound())
                .unwrap_or(t.instances.len());
            let mut regs: BTreeMap<Reg, Val> = BTreeMap::new();
            for inst in &t.instances[..live] {
                let op = code.stmt(inst.stmt);
                for r in instance::written_regs(op) {
                    let v = inst
                        .written_reg(op, r)
                        .flatten()
                        .expect("bound instance has its register value");
                    regs.insert(r, v);
                }
            }
            // Scratch registers are invisible to `outcome` and read back
            // as 0 when unwritten, so value-0 entries are the unwritten
            // state; user registers must keep them (`outcome` reports a
            // register iff written).
            regs.retain(|r, v| r.0 < SCRATCH_REG_BASE || v.0 != 0);
            out.word(regs.len() as u64);
            for (r, v) in &regs {
                out.word(r.0 as u64);
                out.word(v.0 as u64);
            }
            // The prefix's exclusive-pairing bank: the answer
            // `stx_pairing` gives once its backward walk crosses into
            // the bound prefix (every arm is final there).
            let mut bank: Option<Timestamp> = None;
            for j in (0..live).rev() {
                let jinst = &t.instances[j];
                match code.stmt(jinst.stmt) {
                    Stmt::Store {
                        exclusive: true, ..
                    } => break, // interposed: bank stays empty
                    Stmt::Rmw { .. } => {
                        if let InstState::RmwDone {
                            tr, wrote: None, ..
                        } = jinst.state
                        {
                            bank = Some(tr);
                        }
                        break;
                    }
                    Stmt::Load {
                        exclusive: true, ..
                    } => {
                        if let InstState::Satisfied { src, .. } = jinst.state {
                            bank = match src {
                                Src::Memory(t) => Some(t),
                                Src::Forward(k) => match t.instances[k].state {
                                    InstState::Propagated { ts } => Some(ts),
                                    _ => None,
                                },
                            };
                        }
                        break;
                    }
                    _ => {}
                }
            }
            match bank {
                None => out.word(0),
                Some(t) => {
                    out.word(1);
                    ts(out, t);
                }
            }
            out.word((t.instances.len() - live) as u64);
            for inst in &t.instances[live..] {
                out.word(inst.stmt.0 as u64);
                match code.stmt(inst.stmt) {
                    Stmt::Assign { .. } => out.word(0),
                    Stmt::Load { .. } => out.word(1),
                    Stmt::Store { .. } => out.word(2),
                    Stmt::Fence(_) => out.word(3),
                    Stmt::Isb => out.word(4),
                    Stmt::Rmw { .. } => out.word(6),
                    Stmt::Seq(..) | Stmt::Skip => unreachable!("never fetched"),
                    Stmt::If { .. } | Stmt::While { .. } => {
                        out.word(5);
                        out.word(inst.guess as u64);
                        out.word(inst.alt_cont.len() as u64);
                        for s in &inst.alt_cont {
                            out.word(s.0 as u64);
                        }
                    }
                }
                match inst.state {
                    InstState::Pending => out.word(0),
                    InstState::Done { val } => {
                        out.word(1);
                        out.word(val.0 as u64);
                    }
                    InstState::Satisfied { src, val } => {
                        out.word(2);
                        match src {
                            Src::Memory(t) => {
                                out.word(0);
                                ts(out, t);
                            }
                            // A forwarded source that has since
                            // propagated is observationally a memory
                            // source (`stx_pairing` resolves both to the
                            // same timestamp; nothing else reads a bound
                            // load's source) — canonicalise it so the
                            // distinction doesn't split states.
                            Src::Forward(k) => match t.instances[k].state {
                                InstState::Propagated { ts: pt } => {
                                    out.word(0);
                                    ts(out, pt);
                                }
                                _ => {
                                    debug_assert!(
                                        k >= live,
                                        "unpropagated forward source must be unbound"
                                    );
                                    out.word(1);
                                    out.word((k - live) as u64);
                                }
                            },
                        }
                        out.word(val.0 as u64);
                    }
                    InstState::Propagated { ts: t } => {
                        out.word(3);
                        ts(out, t);
                    }
                    InstState::Failed => out.word(4),
                    InstState::Committed => out.word(5),
                    InstState::Resolved { taken } => {
                        out.word(6);
                        out.word(taken as u64);
                    }
                    InstState::RmwDone { tr, old, wrote } => {
                        out.word(7);
                        ts(out, tr);
                        out.word(old.0 as u64);
                        match wrote {
                            None => out.word(0),
                            Some(t) => {
                                out.word(1);
                                ts(out, t);
                            }
                        }
                    }
                    InstState::RmwBound { tr, old } => {
                        out.word(8);
                        ts(out, tr);
                        out.word(old.0 as u64);
                    }
                }
            }
        }
        out.word(self.memory.init_values().len() as u64);
        for (l, v) in self.memory.init_values() {
            out.word(l.0);
            out.word(v.0 as u64);
        }
        out.word(streams.len() as u64);
        for (l, msgs) in &streams {
            out.word(l.0);
            out.word(msgs.len() as u64);
            for m in msgs {
                out.word(m.val.0 as u64);
                out.word(m.tid.0 as u64);
            }
        }
    }

    /// A 128-bit fingerprint of the dynamic state for visited-set
    /// deduplication (see [`promising_core::fingerprint`]).
    ///
    /// With the per-location dynamic POR layer on (`Config::dpor`), the
    /// fingerprint hashes the canonical word stream
    /// ([`FlatMachine::canonical_words`]) so bisimilar states merge;
    /// otherwise it hashes the raw state with absolute timestamps.
    ///
    /// Instance operations are functions of their source statement except
    /// for branches (speculation guess + squash continuation), so the
    /// encoding covers `(stmt, state)` per instance plus the branch
    /// extras — much cheaper than hashing the cloned expression trees.
    pub fn fingerprint(&self) -> Fingerprint {
        if self.config.por && self.config.dpor {
            let mut h = FpHasher::new();
            self.canonical_words_into(&mut h);
            return h.finish128();
        }
        let mut h = FpHasher::new();
        h.write_len(self.threads.len());
        for (t, code) in self.threads.iter().zip(self.program.threads()) {
            h.write_bool(t.stuck);
            h.write_u32(t.fetch_fuel);
            h.write_len(t.fetch_cont.len());
            for s in &t.fetch_cont {
                h.write_u32(s.0);
            }
            h.write_len(t.instances.len());
            for inst in &t.instances {
                h.write_u32(inst.stmt.0);
                match code.stmt(inst.stmt) {
                    Stmt::Assign { .. } => h.write_u64(0),
                    Stmt::Load { .. } => h.write_u64(1),
                    Stmt::Store { .. } => h.write_u64(2),
                    Stmt::Fence(_) => h.write_u64(3),
                    Stmt::Isb => h.write_u64(4),
                    Stmt::Rmw { .. } => h.write_u64(6),
                    Stmt::Seq(..) | Stmt::Skip => unreachable!("never fetched"),
                    Stmt::If { .. } | Stmt::While { .. } => {
                        h.write_u64(5);
                        h.write_bool(inst.guess);
                        h.write_len(inst.alt_cont.len());
                        for s in &inst.alt_cont {
                            h.write_u32(s.0);
                        }
                    }
                }
                match inst.state {
                    InstState::Pending => h.write_u64(0),
                    InstState::Done { val } => {
                        h.write_u64(1);
                        h.write_i64(val.0);
                    }
                    InstState::Satisfied { src, val } => {
                        h.write_u64(2);
                        match src {
                            Src::Memory(ts) => {
                                h.write_u64(0);
                                h.write_u32(ts.0);
                            }
                            Src::Forward(idx) => {
                                h.write_u64(1);
                                h.write_len(idx);
                            }
                        }
                        h.write_i64(val.0);
                    }
                    InstState::Propagated { ts } => {
                        h.write_u64(3);
                        h.write_u32(ts.0);
                    }
                    InstState::Failed => h.write_u64(4),
                    InstState::Committed => h.write_u64(5),
                    InstState::Resolved { taken } => {
                        h.write_u64(6);
                        h.write_bool(taken);
                    }
                    InstState::RmwDone { tr, old, wrote } => {
                        h.write_u64(7);
                        h.write_u32(tr.0);
                        h.write_i64(old.0);
                        match wrote {
                            None => h.write_bool(false),
                            Some(ts) => {
                                h.write_bool(true);
                                h.write_u32(ts.0);
                            }
                        }
                    }
                    InstState::RmwBound { tr, old } => {
                        h.write_u64(8);
                        h.write_u32(tr.0);
                        h.write_i64(old.0);
                    }
                }
            }
        }
        self.memory.feed(&mut h);
        h.finish128()
    }

    /// Whether some thread exhausted the loop bound on a resolved path.
    pub fn any_stuck(&self) -> bool {
        self.threads.iter().any(|t| t.stuck)
    }

    /// All threads fully done: nothing to fetch, every instance bound.
    pub fn terminated(&self) -> bool {
        self.threads.iter().all(|t| {
            !t.stuck && t.fetch_cont.is_empty() && t.instances.iter().all(Instance::is_bound)
        })
    }

    /// The observable outcome of a terminated machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not terminated.
    pub fn outcome(&self) -> promising_core::Outcome {
        assert!(self.terminated(), "outcome of a non-final Flat state");
        let regs = self
            .threads
            .iter()
            .zip(self.program.threads())
            .map(|(t, code)| {
                let mut map: BTreeMap<Reg, Val> = BTreeMap::new();
                for inst in &t.instances {
                    let op = code.stmt(inst.stmt);
                    for r in instance::written_regs(op).filter(|r| r.0 < SCRATCH_REG_BASE) {
                        let v = inst
                            .written_reg(op, r)
                            .flatten()
                            .expect("bound instance has its value");
                        map.insert(r, v);
                    }
                }
                map
            })
            .collect();
        let memory = self
            .memory
            .locations()
            .into_iter()
            .map(|l| (l, self.memory.final_value(l)))
            .collect();
        promising_core::Outcome { regs, memory }
    }

    /// The value of register `r` as seen by the instance at `idx` (the
    /// nearest po-earlier writer), `None` if not yet available.
    fn reg_value(&self, tid: TId, idx: usize, r: Reg) -> Option<Val> {
        let code = &self.program.threads()[tid.0];
        for inst in self.threads[tid.0].instances[..idx].iter().rev() {
            if let Some(v) = inst.written_reg(code.stmt(inst.stmt), r) {
                return v;
            }
        }
        Some(Val(0))
    }

    /// Evaluate `e` at instance position `idx`, `None` if some input
    /// register is unavailable.
    fn eval_at(&self, tid: TId, idx: usize, e: &Expr) -> Option<Val> {
        match e {
            Expr::Const(v) => Some(*v),
            Expr::Reg(r) => self.reg_value(tid, idx, *r),
            Expr::Binop(op, a, b) => {
                let va = self.eval_at(tid, idx, a)?;
                let vb = self.eval_at(tid, idx, b)?;
                Some(op.apply(va, vb))
            }
        }
    }

    /// The resolved address of the memory access at `idx`, if available.
    fn addr_of(&self, tid: TId, idx: usize) -> Option<Loc> {
        let addr = match self.op(tid, self.threads[tid.0].instances[idx].stmt) {
            Stmt::Load { addr, .. } | Stmt::Store { addr, .. } | Stmt::Rmw { addr, .. } => addr,
            _ => return None,
        };
        self.eval_at(tid, idx, addr).map(Loc::from)
    }

    // ---- deterministic micro-steps (auto-drained) --------------------

    /// Run all deterministic steps to a fixpoint: fetch, assignment
    /// execution, branch resolution (with squash), fence/isb commit.
    fn drain(&mut self) {
        loop {
            let mut progressed = false;
            for tid in (0..self.threads.len()).map(TId) {
                progressed |= self.fetch_deterministic(tid);
                progressed |= self.execute_assigns(tid);
                progressed |= self.resolve_branches(tid);
                progressed |= self.commit_fences(tid);
            }
            if !progressed {
                break;
            }
        }
    }

    /// Fetch instructions as long as no unresolved-branch choice is needed.
    fn fetch_deterministic(&mut self, tid: TId) -> bool {
        let code = &self.program.threads()[tid.0];
        let mut progressed = false;
        loop {
            let t = &mut self.threads[tid.0];
            if t.stuck {
                return progressed;
            }
            // normalize seq/skip
            while let Some(&top) = t.fetch_cont.last() {
                match code.stmt(top) {
                    Stmt::Seq(a, b) => {
                        t.fetch_cont.pop();
                        t.fetch_cont.push(*b);
                        t.fetch_cont.push(*a);
                    }
                    Stmt::Skip => {
                        t.fetch_cont.pop();
                    }
                    _ => break,
                }
            }
            let Some(&top) = t.fetch_cont.last() else {
                return progressed;
            };
            let idx = t.instances.len();
            let stmt = code.stmt(top);
            // a branch resolvable now is fetched down the right path
            // without a guess; otherwise a speculation choice is needed
            let taken = match stmt {
                Stmt::If { cond, .. } | Stmt::While { cond, .. } => {
                    match self.eval_at(tid, idx, cond) {
                        Some(v) => v.as_bool(),
                        None => return progressed,
                    }
                }
                _ => false,
            };
            let t = &mut self.threads[tid.0];
            match stmt {
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    t.fetch_cont.pop();
                    t.fetch_cont
                        .push(if taken { *then_branch } else { *else_branch });
                    t.instances.push(Instance::resolved(top, taken));
                }
                Stmt::While { body, .. } => {
                    if taken {
                        if t.fetch_fuel == 0 {
                            t.stuck = true;
                            return progressed;
                        }
                        t.fetch_fuel -= 1;
                        t.fetch_cont.push(*body);
                    } else {
                        t.fetch_cont.pop();
                    }
                    t.instances.push(Instance::resolved(top, taken));
                }
                _ => {
                    t.fetch_cont.pop();
                    t.instances.push(Instance::new(top));
                }
            }
            progressed = true;
        }
    }

    fn execute_assigns(&mut self, tid: TId) -> bool {
        let mut progressed = false;
        for idx in 0..self.threads[tid.0].instances.len() {
            let inst = &self.threads[tid.0].instances[idx];
            if inst.state != InstState::Pending {
                continue;
            }
            if let Stmt::Assign { expr, .. } = self.op(tid, inst.stmt) {
                if let Some(val) = self.eval_at(tid, idx, expr) {
                    self.threads[tid.0].instances[idx].state = InstState::Done { val };
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// Resolve speculatively-fetched branches whose inputs are now
    /// available; squash on mis-speculation.
    fn resolve_branches(&mut self, tid: TId) -> bool {
        let mut progressed = false;
        for idx in 0..self.threads[tid.0].instances.len() {
            let inst = &self.threads[tid.0].instances[idx];
            let (InstState::Pending, Stmt::If { cond, .. } | Stmt::While { cond, .. }) =
                (inst.state, self.op(tid, inst.stmt))
            else {
                continue;
            };
            let Some(v) = self.eval_at(tid, idx, cond) else {
                continue;
            };
            let taken = v.as_bool();
            let t = &mut self.threads[tid.0];
            t.instances[idx].state = InstState::Resolved { taken };
            progressed = true;
            if taken != t.instances[idx].guess {
                // mis-speculation: discard everything younger and
                // refetch down the other path.
                debug_assert!(
                    t.instances[idx + 1..].iter().all(|i| !matches!(
                        i.state,
                        InstState::Propagated { .. } | InstState::RmwDone { wrote: Some(_), .. }
                    )),
                    "speculative stores must never propagate"
                );
                t.instances.truncate(idx + 1);
                let branch = &mut t.instances[idx];
                t.fetch_cont = std::mem::take(&mut branch.alt_cont);
                branch.guess = taken;
                break; // nothing younger is left to resolve
            }
        }
        progressed
    }

    fn commit_fences(&mut self, tid: TId) -> bool {
        let code = &self.program.threads()[tid.0];
        let mut progressed = false;
        for idx in 0..self.threads[tid.0].instances.len() {
            let t = &self.threads[tid.0];
            if t.instances[idx].state != InstState::Pending {
                continue;
            }
            let ready = match code.stmt(t.instances[idx].stmt) {
                Stmt::Fence(f) => {
                    // The read pre-set is satisfied by an RMW's bound
                    // read half (`read_satisfied`); the write pre-set
                    // needs its write half landed (`is_bound`). For
                    // plain loads the two predicates coincide.
                    t.instances[..idx].iter().all(|j| {
                        let jop = code.stmt(j.stmt);
                        (!f.pre.includes_reads()
                            || !instance::is_load(jop)
                            || j.read_satisfied(jop))
                            && (!f.pre.includes_writes()
                                || !instance::is_store(jop)
                                || j.is_bound())
                    })
                }
                Stmt::Isb => {
                    // all po-earlier branches resolved and access addresses
                    // determined (the ctrl/addr half-barriers of ρ7); an
                    // RMW's desugared loop exit is a branch on its success
                    // flag, so unbound RMWs block like unresolved branches
                    t.instances[..idx].iter().enumerate().all(|(j, jinst)| {
                        match code.stmt(jinst.stmt) {
                            Stmt::If { .. } | Stmt::While { .. } | Stmt::Rmw { .. } => {
                                jinst.is_bound()
                            }
                            Stmt::Load { .. } | Stmt::Store { .. } => {
                                self.addr_of(tid, j).is_some()
                            }
                            _ => true,
                        }
                    })
                }
                _ => continue,
            };
            if ready {
                self.threads[tid.0].instances[idx].state = InstState::Committed;
                progressed = true;
            }
        }
        progressed
    }

    // ---- nondeterministic transitions --------------------------------

    /// The satisfy-blocking scan for load `idx`: returns the permitted
    /// source, or `None` if blocked.
    fn load_source(&self, tid: TId, idx: usize) -> Option<(Src, Val)> {
        let t = &self.threads[tid.0];
        let code = &self.program.threads()[tid.0];
        let inst = &t.instances[idx];
        let Stmt::Load { kind: rk, .. } = code.stmt(inst.stmt) else {
            return None;
        };
        let loc = self.addr_of(tid, idx)?;

        // nearest po-earlier unpropagated same-address store (forwarding
        // candidate), and the blocking scan.
        let mut fwd: Option<usize> = None;
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            let jop = code.stmt(jinst.stmt);
            match jop {
                Stmt::Load { kind: jrk, .. } => {
                    let jloc = self.addr_of(tid, j)?; // unresolved addr blocks
                    if *jrk >= ReadKind::WeakAcquire && !jinst.is_bound() {
                        return None; // acquire orders later reads
                    }
                    if jloc == loc && !jinst.is_bound() && fwd.is_none() {
                        return None; // same-address loads bind in order
                    }
                }
                Stmt::Store { kind: wk, .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    if *rk >= ReadKind::Acquire
                        && *wk >= WriteKind::Release
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None; // [RL]; po; [AQ]
                    }
                    if jloc == loc && fwd.is_none() {
                        match jinst.state {
                            InstState::Propagated { .. } | InstState::Failed => {}
                            _ => {
                                // unpropagated same-address store: must
                                // forward from it (if data ready)
                                fwd = Some(j);
                            }
                        }
                    }
                }
                Stmt::Rmw {
                    rk: jrk, wk: jwk, ..
                } => {
                    // an RMW is both a read and a write for the blocking
                    // rules; it never forwards (conservative, like pending
                    // store exclusives). The acquire strength lives on the
                    // read half: once that is bound (`RmwBound`) po-later
                    // loads may satisfy — the axiomatic `rmw` edge runs
                    // read→write, so nothing orders a later load after the
                    // RMW's *write*.
                    let jloc = self.addr_of(tid, j)?;
                    if *jrk >= ReadKind::WeakAcquire && !jinst.read_satisfied(jop) {
                        return None; // acquire read orders later reads
                    }
                    if *rk >= ReadKind::Acquire && *jwk >= WriteKind::Release && !jinst.is_bound() {
                        return None; // [RL]; po; [AQ]: needs the write half
                    }
                    if jloc == loc && !jinst.is_bound() && fwd.is_none() {
                        return None; // same-address accesses bind in order
                    }
                }
                Stmt::Fence(f) => {
                    if f.post.includes_reads() && !jinst.is_bound() {
                        return None;
                    }
                }
                Stmt::Isb => {
                    if !jinst.is_bound() {
                        return None;
                    }
                }
                Stmt::If { .. }
                | Stmt::While { .. }
                | Stmt::Assign { .. }
                | Stmt::Seq(..)
                | Stmt::Skip => {}
            }
        }

        match fwd {
            Some(j) => {
                let jinst = &t.instances[j];
                let Stmt::Store {
                    data, exclusive, ..
                } = code.stmt(jinst.stmt)
                else {
                    unreachable!("forward source is a store");
                };
                // A pending store exclusive may still fail, so its value
                // must never be forwarded (conservative vs ρ13 — see
                // DESIGN.md); the load waits for it to propagate or fail.
                if *exclusive {
                    return None;
                }
                let val = self.eval_at(tid, j, data)?;
                Some((Src::Forward(j), val))
            }
            None => {
                let ts = self
                    .memory
                    .latest_write_at_most(loc, self.memory.max_timestamp());
                let val = self.memory.read(loc, ts).expect("latest write reads back");
                Some((Src::Memory(ts), val))
            }
        }
    }

    /// The propagate-blocking scan for store `idx`: returns the value to
    /// write, or `None` if blocked. Does not check exclusivity success —
    /// see [`FlatMachine::stx_pairing`].
    fn store_ready(&self, tid: TId, idx: usize) -> Option<(Loc, Val)> {
        let t = &self.threads[tid.0];
        let code = &self.program.threads()[tid.0];
        let inst = &t.instances[idx];
        let Stmt::Store { data, kind: wk, .. } = code.stmt(inst.stmt) else {
            return None;
        };
        let loc = self.addr_of(tid, idx)?;
        let val = self.eval_at(tid, idx, data)?;
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            let jop = code.stmt(jinst.stmt);
            match jop {
                Stmt::If { .. } | Stmt::While { .. } => {
                    if !jinst.is_bound() {
                        return None; // no speculative writes
                    }
                }
                Stmt::Load { kind: rk, .. } => {
                    let jloc = self.addr_of(tid, j)?; // address-po
                    let need_bound = jloc == loc
                        || *rk >= ReadKind::WeakAcquire
                        || *wk >= WriteKind::WeakRelease;
                    if need_bound && !jinst.is_bound() {
                        return None;
                    }
                }
                Stmt::Store { .. } => {
                    let jloc = self.addr_of(tid, j)?; // address-po
                    let need_done = jloc == loc || *wk >= WriteKind::WeakRelease;
                    if need_done
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None;
                    }
                }
                Stmt::Rmw {
                    op: jrmw, rk: jrk, ..
                } => {
                    let jloc = self.addr_of(tid, j)?;
                    // Write-half edges — same-address ordering, release
                    // pre-views, and RISC-V's ρ12 (the success register
                    // feeds vCAP, and success is decided by the write) —
                    // need the RMW retired. Read-half edges — the acquire
                    // strength of the read (vwNew) and a CAS's compare
                    // guard feeding vCAP as a ctrl from the read — are
                    // discharged as soon as the read binds (`RmwBound`).
                    let need_done = jloc == loc
                        || *wk >= WriteKind::WeakRelease
                        || self.config.arch == Arch::RiscV;
                    if need_done && !jinst.is_bound() {
                        return None;
                    }
                    let need_read = *jrk >= ReadKind::WeakAcquire || *jrmw == RmwOp::Cas;
                    if need_read && !jinst.read_satisfied(jop) {
                        return None;
                    }
                }
                Stmt::Fence(f) => {
                    if f.post.includes_writes() && !jinst.is_bound() {
                        return None;
                    }
                }
                Stmt::Isb | Stmt::Assign { .. } | Stmt::Seq(..) | Stmt::Skip => {}
            }
        }
        Some((loc, val))
    }

    /// Evaluate `e` at instance position `idx` with register `dst` bound
    /// to `old` — the RMW's operand/expected expressions see the old
    /// value in the destination register, exactly as the promising and
    /// axiomatic models evaluate them after the read half.
    fn eval_at_with(&self, tid: TId, idx: usize, e: &Expr, dst: Reg, old: Val) -> Option<Val> {
        match e {
            Expr::Const(v) => Some(*v),
            Expr::Reg(r) if *r == dst => Some(old),
            Expr::Reg(r) => self.reg_value(tid, idx, *r),
            Expr::Binop(op, a, b) => {
                let va = self.eval_at_with(tid, idx, a, dst, old)?;
                let vb = self.eval_at_with(tid, idx, b, dst, old)?;
                Some(op.apply(va, vb))
            }
        }
    }

    /// The read-bind blocking scan for RMW instance `idx`: the
    /// load-satisfy conditions for a read of strength `rk`, with no
    /// forwarding (conservative, like pending store exclusives — every
    /// po-earlier same-address store must have propagated or failed).
    /// The bind may be speculative: unresolved branches do not block it
    /// (a squash truncates the bound read with no memory effect),
    /// matching the speculative load-exclusive of the desugared LL/SC
    /// build. The CAS `expected` input must resolve (the compare is
    /// decided at bind); the `operand` is only needed at propagate.
    /// Returns the target location, or `None` if blocked.
    fn rmw_bind_ready(&self, tid: TId, idx: usize) -> Option<Loc> {
        let t = &self.threads[tid.0];
        let code = &self.program.threads()[tid.0];
        let inst = &t.instances[idx];
        let Stmt::Rmw {
            dst, expected, rk, ..
        } = code.stmt(inst.stmt)
        else {
            return None;
        };
        let loc = self.addr_of(tid, idx)?;
        if let Some(exp) = expected {
            // dst binds to the old value at bind time
            self.eval_at_with(tid, idx, exp, *dst, Val(0))?;
        }
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            let jop = code.stmt(jinst.stmt);
            match jop {
                Stmt::Load { kind: jrk, .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    if *jrk >= ReadKind::WeakAcquire && !jinst.is_bound() {
                        return None; // acquire orders later reads
                    }
                    if jloc == loc && !jinst.is_bound() {
                        return None; // same-address reads bind in order
                    }
                }
                Stmt::Store { kind: jwk, .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    if *rk >= ReadKind::Acquire
                        && *jwk >= WriteKind::Release
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None; // [RL]; po; [AQ]
                    }
                    if jloc == loc
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None; // no forwarding into an RMW
                    }
                }
                Stmt::Rmw {
                    rk: jrk, wk: jwk, ..
                } => {
                    let jloc = self.addr_of(tid, j)?;
                    if *jrk >= ReadKind::WeakAcquire && !jinst.read_satisfied(jop) {
                        return None; // acquire read orders later reads
                    }
                    if *rk >= ReadKind::Acquire && *jwk >= WriteKind::Release && !jinst.is_bound() {
                        return None; // [RL]; po; [AQ]: needs the write half
                    }
                    if jloc == loc && !jinst.is_bound() {
                        return None; // same-address accesses bind in order
                    }
                }
                Stmt::Fence(f) => {
                    if f.post.includes_reads() && !jinst.is_bound() {
                        return None;
                    }
                }
                Stmt::Isb => {
                    if !jinst.is_bound() {
                        return None;
                    }
                }
                Stmt::If { .. }
                | Stmt::While { .. }
                | Stmt::Assign { .. }
                | Stmt::Seq(..)
                | Stmt::Skip => {}
            }
        }
        Some(loc)
    }

    /// The write-propagate blocking scan for the bound RMW instance at
    /// `idx`: the store-propagate conditions for a write of strength
    /// `wk` (unresolved branches block — no speculative writes).
    /// Returns the target location and the updated value to append, or
    /// `None` if blocked. Does not check the exclusive-pairing
    /// invariant — the caller gates on [`Memory::atomic`] over the
    /// bound read timestamp; an interposed foreign write leaves the
    /// propagate permanently disabled (the pairing has failed, the
    /// machine cannot terminate down that branch, and any
    /// interposition-free interleaving remains reachable by binding
    /// later).
    fn rmw_propagate_ready(&self, tid: TId, idx: usize) -> Option<(Loc, Val)> {
        let t = &self.threads[tid.0];
        let code = &self.program.threads()[tid.0];
        let inst = &t.instances[idx];
        let Stmt::Rmw {
            op,
            dst,
            operand,
            wk,
            ..
        } = code.stmt(inst.stmt)
        else {
            return None;
        };
        let InstState::RmwBound { old, .. } = inst.state else {
            return None;
        };
        let loc = self.addr_of(tid, idx)?;
        let opv = self.eval_at_with(tid, idx, operand, *dst, old)?;
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            let jop = code.stmt(jinst.stmt);
            match jop {
                Stmt::If { .. } | Stmt::While { .. } => {
                    if !jinst.is_bound() {
                        return None; // no speculative writes
                    }
                }
                Stmt::Load { kind: jrk, .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    let need_bound = jloc == loc
                        || *jrk >= ReadKind::WeakAcquire
                        || *wk >= WriteKind::WeakRelease;
                    if need_bound && !jinst.is_bound() {
                        return None;
                    }
                }
                Stmt::Store { .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    let need_done = jloc == loc || *wk >= WriteKind::WeakRelease;
                    if need_done
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None;
                    }
                }
                Stmt::Rmw {
                    op: jrmw, rk: jrk, ..
                } => {
                    let jloc = self.addr_of(tid, j)?;
                    let need_done = jloc == loc
                        || *wk >= WriteKind::WeakRelease
                        || self.config.arch == Arch::RiscV;
                    if need_done && !jinst.is_bound() {
                        return None;
                    }
                    let need_read = *jrk >= ReadKind::WeakAcquire || *jrmw == RmwOp::Cas;
                    if need_read && !jinst.read_satisfied(jop) {
                        return None;
                    }
                }
                Stmt::Fence(f) => {
                    if f.post.includes_writes() && !jinst.is_bound() {
                        return None;
                    }
                }
                Stmt::Isb | Stmt::Assign { .. } | Stmt::Seq(..) | Stmt::Skip => {}
            }
        }
        Some((loc, op.apply(old, opv)))
    }

    /// Find the paired load exclusive for store exclusive `idx` (ρ11): the
    /// most recent po-earlier load exclusive with no interposing store
    /// exclusive. Returns its read timestamp if it is bound.
    fn stx_pairing(&self, tid: TId, idx: usize) -> Option<Timestamp> {
        let t = &self.threads[tid.0];
        let code = &self.program.threads()[tid.0];
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            match code.stmt(jinst.stmt) {
                Stmt::Store {
                    exclusive: true, ..
                } => return None, // interposed
                Stmt::Rmw { .. } => {
                    // a successful RMW consumes the pairing bank (like an
                    // interposed store exclusive); a CAS compare failure
                    // leaves its read charged in the bank. A bound-but-
                    // unpropagated RMW's fate is undecided: the walk
                    // answers `None` until its write half resolves.
                    return match jinst.state {
                        InstState::RmwDone {
                            tr, wrote: None, ..
                        } => Some(tr),
                        _ => None,
                    };
                }
                Stmt::Load {
                    exclusive: true, ..
                } => {
                    return match jinst.state {
                        InstState::Satisfied { src, .. } => match src {
                            Src::Memory(ts) => Some(ts),
                            Src::Forward(k) => match t.instances[k].state {
                                InstState::Propagated { ts } => Some(ts),
                                _ => None, // wait for the source to propagate
                            },
                        },
                        _ => None,
                    };
                }
                _ => {}
            }
        }
        None
    }

    // ---- partial-order-reduction metadata ----------------------------

    /// The resolved target location of the memory access instance at
    /// `idx` (load, store, or RMW), if its address is available — the
    /// location a `Satisfy`/`Propagate`/`BindRmw`/`PropagateRmw`
    /// transition on it touches. Used by the POR footprints.
    pub fn access_target(&self, tid: TId, idx: usize) -> Option<Loc> {
        self.addr_of(tid, idx)
    }

    /// Over-approximation of the locations thread `tid` may still
    /// *append* to from this state: resolved addresses of its unbound
    /// store/RMW instances (an unresolved address means
    /// [`MayAccess::Any`]), plus the static may-write sets of everything
    /// it can still fetch — the remaining fetch continuation and, for
    /// every unresolved branch, the alternative continuation a squash
    /// would refetch.
    pub fn thread_future_writes(&self, tid: TId) -> MayAccess {
        self.thread_future_accesses(tid, false)
    }

    /// Over-approximation of the locations thread `tid` may still *read*
    /// from this state (unbound loads/RMWs + fetchable code), in the same
    /// way as [`FlatMachine::thread_future_writes`].
    pub fn thread_future_reads(&self, tid: TId) -> MayAccess {
        self.thread_future_accesses(tid, true)
    }

    fn thread_future_accesses(&self, tid: TId, reads: bool) -> MayAccess {
        let t = &self.threads[tid.0];
        let code = &self.program.threads()[tid.0];
        let stmt_set = |id: StmtId| {
            if reads {
                code.may_read(id)
            } else {
                code.may_write(id)
            }
        };
        let mut out = MayAccess::none();
        for &id in &t.fetch_cont {
            out.absorb(stmt_set(id));
        }
        for (idx, inst) in t.instances.iter().enumerate() {
            if inst.is_bound() {
                continue;
            }
            let op = code.stmt(inst.stmt);
            let relevant = match op {
                Stmt::Load { .. } => reads,
                Stmt::Store { .. } => !reads,
                // A bound-but-unpropagated RMW is a pending *append* but
                // no longer a future read — its read half has already
                // bound. The DPOR persistent sets rely on the write side
                // staying conservative here.
                Stmt::Rmw { .. } => !reads || !inst.read_satisfied(op),
                Stmt::If { .. } | Stmt::While { .. } => {
                    // unresolved: a squash would refetch the other path
                    for &id in &inst.alt_cont {
                        out.absorb(stmt_set(id));
                    }
                    false
                }
                _ => false,
            };
            if relevant {
                match self.addr_of(tid, idx) {
                    Some(loc) => out.absorb(&MayAccess::Locs(BTreeSet::from([loc]))),
                    None => out = MayAccess::Any,
                }
            }
        }
        out
    }

    /// Enumerate the enabled nondeterministic transitions.
    pub fn enabled(&self) -> Vec<FlatTransition> {
        let mut out = Vec::new();
        // the timestamp an append would take, for the pairing gates
        let fresh = Timestamp(self.memory.max_timestamp().0 + 1);
        for tid in (0..self.threads.len()).map(TId) {
            let t = &self.threads[tid.0];
            if t.stuck {
                continue;
            }
            // speculation choice at the fetch point?
            if let Some(&top) = t.fetch_cont.last() {
                let code = &self.program.threads()[tid.0];
                match code.stmt(top) {
                    Stmt::If { .. } => {
                        out.push(FlatTransition::FetchBranch { tid, taken: true });
                        out.push(FlatTransition::FetchBranch { tid, taken: false });
                    }
                    Stmt::While { .. } => {
                        if t.fetch_fuel > 0 {
                            out.push(FlatTransition::FetchBranch { tid, taken: true });
                        }
                        out.push(FlatTransition::FetchBranch { tid, taken: false });
                    }
                    _ => {}
                }
            }
            for idx in 0..t.instances.len() {
                let inst = &t.instances[idx];
                if let InstState::RmwBound { tr, .. } = inst.state {
                    // write-propagate of a bound RMW, gated by the
                    // exclusive-pairing invariant: no foreign write to
                    // the location may have landed since the bound read
                    // (if one has, the pairing failed and the propagate
                    // stays disabled).
                    if let Some((loc, _)) = self.rmw_propagate_ready(tid, idx) {
                        if self.memory.atomic(loc, tid, tr, fresh) {
                            out.push(FlatTransition::PropagateRmw { tid, idx });
                        }
                    }
                    continue;
                }
                if inst.state != InstState::Pending {
                    continue;
                }
                match self.op(tid, inst.stmt) {
                    Stmt::Load { .. } if self.load_source(tid, idx).is_some() => {
                        out.push(FlatTransition::Satisfy { tid, idx });
                    }
                    Stmt::Rmw { .. } if self.rmw_bind_ready(tid, idx).is_some() => {
                        out.push(FlatTransition::BindRmw { tid, idx });
                    }
                    Stmt::Store { exclusive, .. } => {
                        if *exclusive {
                            out.push(FlatTransition::FailStx { tid, idx });
                        }
                        if let Some((loc, _)) = self.store_ready(tid, idx) {
                            // a store exclusive also needs its pairing
                            // intact: no foreign write since the paired read
                            if !*exclusive
                                || self
                                    .stx_pairing(tid, idx)
                                    .is_some_and(|tr| self.memory.atomic(loc, tid, tr, fresh))
                            {
                                out.push(FlatTransition::Propagate { tid, idx });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Apply a transition (must be enabled) and auto-drain.
    ///
    /// # Panics
    ///
    /// Panics if the transition is not enabled in this state.
    pub fn apply(&mut self, tr: &FlatTransition) {
        match tr {
            FlatTransition::FetchBranch { tid, taken } => {
                let code = &self.program.threads()[tid.0];
                let t = &mut self.threads[tid.0];
                let top = *t.fetch_cont.last().expect("fetch point exists");
                let mut alt = t.fetch_cont.clone();
                match code.stmt(top) {
                    Stmt::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        let (go, other) = if *taken {
                            (then_branch, else_branch)
                        } else {
                            (else_branch, then_branch)
                        };
                        alt.pop();
                        alt.push(*other);
                        t.fetch_cont.pop();
                        t.fetch_cont.push(*go);
                    }
                    Stmt::While { body, .. } => {
                        if *taken {
                            alt.pop(); // alternative: exit the loop
                            t.fetch_fuel -= 1;
                            t.fetch_cont.push(*body);
                        } else {
                            t.fetch_cont.pop(); // alternative: enter the loop
                            alt.push(*body);
                        }
                    }
                    other => panic!("fetch point is not a branch: {other:?}"),
                }
                t.instances.push(Instance {
                    guess: *taken,
                    alt_cont: alt,
                    ..Instance::new(top)
                });
            }
            FlatTransition::Satisfy { tid, idx } => {
                let (src, val) = self
                    .load_source(*tid, *idx)
                    .expect("satisfy transition enabled");
                self.threads[tid.0].instances[*idx].state = InstState::Satisfied { src, val };
            }
            FlatTransition::Propagate { tid, idx } => {
                let (loc, val) = self
                    .store_ready(*tid, *idx)
                    .expect("propagate transition enabled");
                let ts = self.memory.push(Msg::new(loc, val, *tid));
                self.threads[tid.0].instances[*idx].state = InstState::Propagated { ts };
            }
            FlatTransition::FailStx { tid, idx } => {
                self.threads[tid.0].instances[*idx].state = InstState::Failed;
            }
            FlatTransition::BindRmw { tid, idx } => {
                let loc = self
                    .rmw_bind_ready(*tid, *idx)
                    .expect("bind transition enabled");
                let stmt = self.threads[tid.0].instances[*idx].stmt;
                let Stmt::Rmw { dst, expected, .. } = self.op(*tid, stmt) else {
                    unreachable!("rmw transition targets an rmw instance");
                };
                // bind the read half to the coherence-latest write; the
                // compare (CAS) is decided here, against the bound old
                // value — a failed compare degrades to a bare bound read
                // and retires immediately, nothing written.
                let tr = self
                    .memory
                    .latest_write_at_most(loc, self.memory.max_timestamp());
                let old = self.memory.read(loc, tr).expect("latest write reads back");
                let compare_failed = match expected {
                    None => false,
                    Some(exp) => {
                        let ev = self
                            .eval_at_with(*tid, *idx, exp, *dst, old)
                            .expect("rmw_bind_ready resolved the inputs");
                        old != ev
                    }
                };
                self.threads[tid.0].instances[*idx].state = if compare_failed {
                    InstState::RmwDone {
                        tr,
                        old,
                        wrote: None,
                    }
                } else {
                    InstState::RmwBound { tr, old }
                };
            }
            FlatTransition::PropagateRmw { tid, idx } => {
                let (loc, val) = self
                    .rmw_propagate_ready(*tid, *idx)
                    .expect("propagate transition enabled");
                let InstState::RmwBound { tr, old } = self.threads[tid.0].instances[*idx].state
                else {
                    unreachable!("rmw propagate targets a bound rmw");
                };
                // the enabledness gate checked `Memory::atomic(loc, tid,
                // tr, fresh)`, so the append lands adjacent to the bound
                // read in the location's stream — the pairing invariant.
                let tw = self.memory.push(Msg::new(loc, val, *tid));
                self.threads[tid.0].instances[*idx].state = InstState::RmwDone {
                    tr,
                    old,
                    wrote: Some(tw),
                };
            }
        }
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::stmt::CodeBuilder;

    /// `r1 = load(x); r2 = load(y); if (r1 == 1) { r3 = 5; store(z, 1) }
    /// else { if (r2 == 1) skip else skip }`: the outer branch must be
    /// guessed while `r1` is pending, and its else path stops at the
    /// inner branch (pending on `r2`), so fetch after a squash cannot
    /// run past the restored continuation.
    fn speculating_thread() -> FlatMachine {
        let mut b = CodeBuilder::new();
        let l1 = b.load(Reg(1), Expr::val(0));
        let l2 = b.load(Reg(2), Expr::val(1));
        let a = b.assign(Reg(3), Expr::val(5));
        let s = b.store(Expr::val(2), Expr::val(1));
        let then_branch = b.seq(&[a, s]);
        let (skip1, skip2) = (b.skip(), b.skip());
        let inner = b.if_else(Expr::reg(Reg(2)).eq(Expr::val(1)), skip1, skip2);
        let outer = b.if_else(Expr::reg(Reg(1)).eq(Expr::val(1)), then_branch, inner);
        let code = b.finish_seq(&[l1, l2, outer]);
        FlatMachine::new(Arc::new(Program::new(vec![code])), Config::arm())
    }

    #[test]
    fn misspeculation_squash_restores_alt_cont() {
        let mut m = speculating_thread();
        let tid = TId(0);
        m.apply(&FlatTransition::FetchBranch { tid, taken: true });
        let t = &m.threads()[0];
        // loads, the guessed branch, then the speculated assign and store
        assert_eq!(t.instances.len(), 5);
        assert_eq!(t.instances[3].state, InstState::Done { val: Val(5) });
        let alt = t.instances[2].alt_cont.clone();
        assert!(!alt.is_empty());
        // r1 reads 0: the taken guess was wrong
        m.apply(&FlatTransition::Satisfy { tid, idx: 0 });
        let t = &m.threads()[0];
        assert_eq!(t.instances.len(), 3, "younger instances truncated");
        assert_eq!(t.fetch_cont, alt, "refetch from the other path");
        let branch = &t.instances[2];
        assert_eq!(branch.state, InstState::Resolved { taken: false });
        assert!(!branch.guess);
        assert!(branch.alt_cont.is_empty());
    }

    #[test]
    fn correct_guess_resolves_in_place() {
        let mut m = speculating_thread();
        let tid = TId(0);
        m.apply(&FlatTransition::FetchBranch { tid, taken: false });
        let before = m.threads()[0].instances.clone();
        m.apply(&FlatTransition::Satisfy { tid, idx: 0 });
        let t = &m.threads()[0];
        assert_eq!(t.instances.len(), before.len(), "nothing squashed");
        let branch = &t.instances[2];
        assert_eq!(branch.state, InstState::Resolved { taken: false });
        assert!(!branch.guess);
        assert_eq!(branch.alt_cont, before[2].alt_cont);
    }
}
