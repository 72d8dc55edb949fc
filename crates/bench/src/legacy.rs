//! The pre-optimisation ("clone-heavy") exploration strategies, kept as a
//! measurable baseline for the perf-trajectory snapshots.
//!
//! These reproduce the seed implementation's cost model, which the
//! structural-sharing rework removed from the real explorers:
//!
//! * every transition **deep-clones** the whole machine
//!   ([`Machine::deep_clone`] forces copies of every `Arc`-shared
//!   component, as `Machine::clone` did before the rework);
//! * visited sets and memo tables are keyed by **exact state clones**
//!   (full `O(state)` hash and compare per lookup) instead of 128-bit
//!   fingerprints;
//! * certification memo tables are **per-call** — nothing is shared
//!   across sibling branches.
//!
//! Correctness is unchanged — `table2 --legacy` cross-checks the outcome
//! sets against the optimised explorers on every row it completes.

use promising_core::ids::TId;
use promising_core::stmt::SCRATCH_REG_BASE;
use promising_core::Reg;
use promising_core::Val;
use promising_core::{
    apply_step, enabled_steps, Machine, Memory, Msg, StepEvent, ThreadInstance, Timestamp,
    Transition, TransitionKind,
};
use promising_explorer::{Exploration, Outcome, Stats, StopReason};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

type RegMap = BTreeMap<Reg, Val>;

/// How many explored nodes between wall-clock deadline checks in the
/// legacy engines (the deadline is a measurement guard, not part of the
/// reproduced cost model).
const LEGACY_DEADLINE_CHECK_PERIOD: u64 = 256;

/// The seed's `find_and_certify` with its original cost model: a
/// per-call memo keyed by *exact* `(thread, memory)` clones, a deep
/// per-node clone of both thread and memory, and the certified-first-
/// steps re-expansion the seed's promise enumeration always paid for.
/// Sets `cut` (with an under-approximate result) past `deadline`.
fn legacy_promisable(
    m: &Machine,
    tid: TId,
    deadline: Option<Instant>,
    cut: &mut bool,
) -> BTreeSet<Msg> {
    let code = &m.program().threads()[tid.0];
    let mut engine = LegacyCertEngine {
        m,
        code,
        tid,
        base_ts: m.memory().max_timestamp(),
        memo: HashMap::new(),
        deadline,
        cut: false,
        ticks: 0,
    };
    let depth = m.config().cert_depth;
    let (_, promisable) = engine.explore(m.thread(tid), m.memory(), depth);
    // The seed's callers went through the full `find_and_certify`, which
    // also derived the certified first steps from the warm memo.
    let config = m.config();
    let mut first_steps = Vec::new();
    enabled_steps(
        config,
        code,
        tid,
        m.thread(tid),
        m.memory(),
        &mut first_steps,
    );
    for kind in first_steps {
        if engine.cut {
            break;
        }
        let mut th = m.thread(tid).clone();
        th.unshare();
        let mut mem = m.memory().clone();
        mem.unshare();
        apply_step(config, code, tid, &kind, &mut th, &mut mem).expect("enabled step must apply");
        let _ = engine.explore(&th, &mem, depth.saturating_sub(1));
    }
    *cut |= engine.cut;
    promisable
}

struct LegacyCertEngine<'a> {
    m: &'a Machine,
    code: &'a promising_core::ThreadCode,
    tid: TId,
    base_ts: Timestamp,
    memo: HashMap<(ThreadInstance, Memory), (bool, BTreeSet<Msg>)>,
    deadline: Option<Instant>,
    cut: bool,
    ticks: u64,
}

impl LegacyCertEngine<'_> {
    fn out_of_time(&mut self) -> bool {
        if self.cut {
            return true;
        }
        let Some(at) = self.deadline else {
            return false;
        };
        self.ticks += 1;
        if self.ticks >= LEGACY_DEADLINE_CHECK_PERIOD {
            self.ticks = 0;
            if Instant::now() >= at {
                self.cut = true;
                return true;
            }
        }
        false
    }

    fn explore(
        &mut self,
        thread: &ThreadInstance,
        memory: &Memory,
        depth: u32,
    ) -> (bool, BTreeSet<Msg>) {
        // Exact memo key, stored as private copies (deep hash + compare
        // per lookup, as the seed's memo paid).
        let key = {
            let mut th = thread.clone();
            th.unshare();
            let mut mem = memory.clone();
            mem.unshare();
            (th, mem)
        };
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        if self.out_of_time() || depth == 0 {
            return (thread.state.prom.is_empty(), BTreeSet::new());
        }
        let mut reached = thread.state.prom.is_empty();
        let mut qualified = BTreeSet::new();
        let config = self.m.config();
        let mut steps = Vec::new();
        enabled_steps(config, self.code, self.tid, thread, memory, &mut steps);
        for kind in steps {
            if self.cut {
                break;
            }
            let mut th = thread.clone();
            th.unshare();
            let mut mem = memory.clone();
            mem.unshare();
            let ev = apply_step(config, self.code, self.tid, &kind, &mut th, &mut mem)
                .expect("enabled step must apply");
            let (sub_reached, sub_qualified) = self.explore(&th, &mem, depth - 1);
            if !sub_reached {
                continue;
            }
            reached = true;
            qualified.extend(sub_qualified);
            if kind.appends_write() {
                let (loc, val, pre_view) = match ev {
                    StepEvent::DidWrite {
                        loc, val, pre_view, ..
                    } => (loc, val, pre_view),
                    StepEvent::DidRmw {
                        loc, new, pre_view, ..
                    } => (loc, new, pre_view),
                    _ => unreachable!("appends_write steps report their write"),
                };
                let coh_before = thread.state.coh(loc);
                if pre_view.join(coh_before).timestamp() <= self.base_ts {
                    qualified.insert(Msg::new(loc, val, self.tid));
                }
            }
        }
        let result = (reached, qualified);
        if !self.cut {
            self.memo.insert(key, result.clone());
        }
        result
    }
}

/// The seed's promise-first search (§7) with the pre-rework cost model.
pub fn explore_promise_first_legacy(machine: &Machine, deadline: Option<Duration>) -> Exploration {
    let start = Instant::now();
    let mut stats = Stats::default();
    let mut outcomes = BTreeSet::new();

    // Promise-mode search over (memory, promise-sets) states, exact keys.
    let mut visited: HashSet<(Vec<BTreeSet<Timestamp>>, Memory)> = HashSet::new();
    let mut stack = vec![machine.deep_clone()];
    visited.insert(promise_key(machine));

    // Cache of promisable sets, keyed by the acting thread's promise set
    // and the (exact) memory.
    let mut promise_cache: HashMap<(TId, BTreeSet<Timestamp>, Memory), BTreeSet<Msg>> =
        HashMap::new();

    let deadline_at = deadline.map(|d| start + d);

    'search: while let Some(m) = stack.pop() {
        stats.states += 1;
        if let Some(at) = deadline_at {
            if Instant::now() >= at {
                stats.note_stop(StopReason::DeadlineExceeded);
                break;
            }
        }

        // Phase-2 check: is this memory final (all threads completable)?
        let mut per_thread: Vec<Rc<BTreeSet<RegMap>>> = Vec::with_capacity(m.num_threads());
        let mut all_complete = true;
        let mut cut = false;
        for tid in (0..m.num_threads()).map(TId) {
            let set = thread_outcomes(&m, tid, &mut stats, deadline_at, &mut cut);
            if cut {
                break;
            }
            if set.is_empty() {
                all_complete = false;
                break;
            }
            per_thread.push(set);
        }
        if cut {
            stats.note_stop(StopReason::DeadlineExceeded);
            break;
        }
        if all_complete {
            stats.final_memories += 1;
            let memory: BTreeMap<_, _> = m
                .memory()
                .locations()
                .into_iter()
                .map(|l| (l, m.memory().final_value(l)))
                .collect();
            let mut regs_product: Vec<Vec<RegMap>> = vec![Vec::new()];
            for set in &per_thread {
                let mut next = Vec::with_capacity(regs_product.len() * set.len());
                for prefix in &regs_product {
                    for regs in set.iter() {
                        let mut p = prefix.clone();
                        p.push(regs.clone());
                        next.push(p);
                    }
                }
                regs_product = next;
            }
            for regs in regs_product {
                outcomes.insert(Outcome {
                    regs,
                    memory: memory.clone(),
                });
            }
        }

        // Expand: all certified promises of all threads.
        for tid in (0..m.num_threads()).map(TId) {
            let key = (tid, prom_set(&m, tid), m.memory().clone());
            let promisable = match promise_cache.get(&key) {
                Some(p) => p.clone(),
                None => {
                    stats.certifications += 1;
                    let mut cut = false;
                    let p = legacy_promisable(&m, tid, deadline_at, &mut cut);
                    if cut {
                        stats.note_stop(StopReason::DeadlineExceeded);
                        break 'search;
                    }
                    promise_cache.insert(key, p.clone());
                    p
                }
            };
            for msg in promisable {
                let mut next = m.deep_clone();
                next.apply(&Transition::new(tid, TransitionKind::Promise { msg }))
                    .expect("certified promise applies");
                stats.transitions += 1;
                let k = promise_key(&next);
                if visited.insert(k) {
                    stack.push(next);
                }
            }
        }
    }

    // Serial search: all compute time is wall time.
    stats.cpu_time = start.elapsed();
    stats.wall_time = stats.cpu_time;
    Exploration { outcomes, stats }
}

fn promise_key(m: &Machine) -> (Vec<BTreeSet<Timestamp>>, Memory) {
    let mut mem = m.memory().clone();
    mem.unshare(); // exact keys stored as private copies, as the seed did
    (
        (0..m.num_threads())
            .map(|tid| prom_set(m, TId(tid)))
            .collect(),
        mem,
    )
}

/// A thread's promise set as the `BTreeSet` the seed's exact keys held.
fn prom_set(m: &Machine, tid: TId) -> BTreeSet<Timestamp> {
    m.thread(tid).state.prom.iter().copied().collect()
}

/// Phase 2 with a fresh exact-keyed memo per (state, thread), as the
/// seed's `thread_outcomes` had. Sets `cut` past `deadline`.
fn thread_outcomes(
    m: &Machine,
    tid: TId,
    stats: &mut Stats,
    deadline: Option<Instant>,
    cut: &mut bool,
) -> Rc<BTreeSet<RegMap>> {
    let code = &m.program().threads()[tid.0];
    let mut memory = m.memory().clone();
    let mut dfs = LegacyThreadDfs {
        m,
        tid,
        code,
        memo: HashMap::new(),
        deadline,
        cut: false,
        ticks: 0,
    };
    let mem_len = memory.len();
    let result = dfs.run(m.thread(tid), &mut memory, stats);
    *cut |= dfs.cut;
    debug_assert_eq!(memory.len(), mem_len, "phase 2 must not append writes");
    result
}

struct LegacyThreadDfs<'a> {
    m: &'a Machine,
    tid: TId,
    code: &'a promising_core::ThreadCode,
    memo: HashMap<ThreadInstance, Rc<BTreeSet<RegMap>>>,
    deadline: Option<Instant>,
    cut: bool,
    ticks: u64,
}

impl LegacyThreadDfs<'_> {
    fn out_of_time(&mut self) -> bool {
        if self.cut {
            return true;
        }
        let Some(at) = self.deadline else {
            return false;
        };
        self.ticks += 1;
        if self.ticks >= LEGACY_DEADLINE_CHECK_PERIOD {
            self.ticks = 0;
            if Instant::now() >= at {
                self.cut = true;
                return true;
            }
        }
        false
    }

    fn run(
        &mut self,
        thread: &ThreadInstance,
        memory: &mut Memory,
        stats: &mut Stats,
    ) -> Rc<BTreeSet<RegMap>> {
        if let Some(hit) = self.memo.get(thread) {
            return Rc::clone(hit);
        }
        if self.out_of_time() {
            return Rc::new(BTreeSet::new());
        }
        let mut out = BTreeSet::new();
        if thread.is_done() {
            if !thread.state.has_promises() && thread.state.stuck.is_none() {
                out.insert(observable_regs(thread));
            }
        } else if thread.state.stuck.is_some() {
            stats.bound_hits += 1;
        } else {
            let mut steps = Vec::new();
            enabled_steps(
                self.m.config(),
                self.code,
                self.tid,
                thread,
                memory,
                &mut steps,
            );
            for kind in steps {
                if kind.appends_write() {
                    continue; // non-promise mode: no new writes
                }
                if self.cut {
                    break;
                }
                let mut th = thread.clone();
                th.unshare(); // deep per-step clone, as the seed's clone was
                apply_step(self.m.config(), self.code, self.tid, &kind, &mut th, memory)
                    .expect("enabled step applies");
                stats.transitions += 1;
                let sub = self.run(&th, memory, stats);
                out.extend(sub.iter().cloned());
            }
        }
        let rc = Rc::new(out);
        if !self.cut {
            self.memo.insert(thread.clone(), Rc::clone(&rc));
        }
        rc
    }
}

fn observable_regs(thread: &ThreadInstance) -> RegMap {
    thread
        .state
        .regs
        .iter()
        .filter(|(r, _, _)| r.0 < SCRATCH_REG_BASE)
        .map(|(r, v, _)| (r, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::{Arch, Config};
    use promising_explorer::explore_promise_first;
    use promising_workloads::{by_spec, init_for};

    #[test]
    fn legacy_agrees_with_optimised_on_workloads() {
        for spec in ["SLA-1", "PCS-1-1", "STC-100-010-000"] {
            let w = by_spec(spec).expect("spec parses");
            let m = promising_core::Machine::with_init(
                w.program.clone(),
                w.config(Arch::Arm),
                init_for(&w),
            );
            let legacy = explore_promise_first_legacy(&m, None);
            let fast = explore_promise_first(&m);
            assert_eq!(legacy.outcomes, fast.outcomes, "{spec}");
            assert_eq!(
                legacy.stats.final_memories, fast.stats.final_memories,
                "{spec}"
            );
        }
    }

    #[test]
    fn legacy_agrees_on_litmus_mp() {
        let (program, _) = promising_core::parse_program(
            "store(x, 1)\ndmb.sy\nstore(y, 1)\n---\nr1 = load(y)\nr2 = load(x)",
        )
        .expect("parses");
        let m = promising_core::Machine::new(std::sync::Arc::new(program), Config::arm());
        let legacy = explore_promise_first_legacy(&m, None);
        let fast = explore_promise_first(&m);
        assert_eq!(legacy.outcomes, fast.outcomes);
    }
}
