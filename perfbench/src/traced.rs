//! Outside-in layer timing: a [`SearchModel`] that delegates every hook
//! to a public model and times the ones that carry the model's work.
//!
//! The engine calls hooks from its worker threads, and most hooks get no
//! per-worker scratch, so each thread keeps its times in a thread-local
//! accumulator. `drain_cache` runs once per worker, on that worker's
//! thread, when its search ends; it merges the accumulator into the
//! model's shared total. The root fingerprint is taken on the calling
//! thread before the workers start, so [`Traced::hooks`] drains that
//! thread too.

use promising_core::{Config, Fingerprint, Footprint};
use promising_explorer::{SearchModel, Stats};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Busy time per hook, plus the call count `per_call_us` needs.
#[derive(Clone, Copy, Default, Debug)]
pub struct Hooks {
    pub expand: Duration,
    pub outcome: Duration,
    pub apply: Duration,
    pub apply_calls: u64,
    pub fingerprint: Duration,
    pub reduce: Duration,
    pub is_final: Duration,
}

impl Hooks {
    /// Time spent inside the model, summed over hooks.
    pub fn total(&self) -> Duration {
        self.expand + self.outcome + self.apply + self.fingerprint + self.reduce + self.is_final
    }

    pub fn add(&mut self, o: &Hooks) {
        self.expand += o.expand;
        self.outcome += o.outcome;
        self.apply += o.apply;
        self.apply_calls += o.apply_calls;
        self.fingerprint += o.fingerprint;
        self.reduce += o.reduce;
        self.is_final += o.is_final;
    }
}

thread_local! {
    static LOCAL: Cell<Hooks> = Cell::new(Hooks::default());
}

fn take_local() -> Hooks {
    LOCAL.with(Cell::take)
}

fn timed<R>(slot: fn(&mut Hooks) -> &mut Duration, f: impl FnOnce() -> R) -> R {
    let begun = Instant::now();
    let r = f();
    let took = begun.elapsed();
    LOCAL.with(|cell| {
        let mut h = cell.get();
        *slot(&mut h) += took;
        cell.set(h);
    });
    r
}

/// `inner` with every work-carrying hook timed.
pub struct Traced<M> {
    inner: M,
    merged: Mutex<Hooks>,
}

impl<M: SearchModel> Traced<M> {
    /// Wrap `inner`. Clears the calling thread's accumulator, so times
    /// left by an earlier search on this thread are not counted.
    pub fn new(inner: M) -> Traced<M> {
        take_local();
        Traced {
            inner,
            merged: Mutex::new(Hooks::default()),
        }
    }

    /// The hook times of the finished search, all threads merged.
    pub fn hooks(&self) -> Hooks {
        let mut merged = self.merged.lock().expect("hook totals lock poisoned");
        merged.add(&take_local());
        *merged
    }
}

impl<M: SearchModel> SearchModel for Traced<M> {
    type State = M::State;
    type Transition = M::Transition;
    type Exact = M::Exact;
    type Out = M::Out;
    type Cache = M::Cache;

    const DEADLOCK_ON_EMPTY: bool = M::DEADLOCK_ON_EMPTY;

    fn config(&self) -> &Config {
        self.inner.config()
    }

    fn root(&self, stats: &mut Stats) -> M::State {
        self.inner.root(stats)
    }

    fn cache(&self) -> M::Cache {
        self.inner.cache()
    }

    fn walk_cache(&self) -> M::Cache {
        self.inner.walk_cache()
    }

    fn fingerprint(&self, s: &M::State) -> Fingerprint {
        timed(|h| &mut h.fingerprint, || self.inner.fingerprint(s))
    }

    fn exact_key(&self, s: &M::State) -> M::Exact {
        self.inner.exact_key(s)
    }

    fn approx_state_bytes(&self, s: &M::State) -> usize {
        self.inner.approx_state_bytes(s)
    }

    fn outcome(
        &self,
        s: &M::State,
        cache: &mut M::Cache,
        stats: &mut Stats,
        deadline: Option<Instant>,
        out: &mut BTreeSet<M::Out>,
    ) {
        timed(
            |h| &mut h.outcome,
            || self.inner.outcome(s, cache, stats, deadline, out),
        )
    }

    fn is_final(&self, s: &M::State, stats: &mut Stats) -> bool {
        timed(|h| &mut h.is_final, || self.inner.is_final(s, stats))
    }

    fn expand(
        &self,
        s: &M::State,
        cache: &mut M::Cache,
        stats: &mut Stats,
        deadline: Option<Instant>,
    ) -> Vec<M::Transition> {
        timed(
            |h| &mut h.expand,
            || self.inner.expand(s, cache, stats, deadline),
        )
    }

    fn apply(&self, s: &M::State, t: &M::Transition, stats: &mut Stats) -> M::State {
        let next = timed(|h| &mut h.apply, || self.inner.apply(s, t, stats));
        LOCAL.with(|cell| {
            let mut h = cell.get();
            h.apply_calls += 1;
            cell.set(h);
        });
        next
    }

    fn footprint(&self, s: &M::State, t: &M::Transition) -> Footprint {
        self.inner.footprint(s, t)
    }

    fn independent(&self, s: &M::State, a: &M::Transition, b: &M::Transition) -> bool {
        self.inner.independent(s, a, b)
    }

    fn reduce(&self, s: &M::State, transitions: &mut Vec<M::Transition>) {
        timed(|h| &mut h.reduce, || self.inner.reduce(s, transitions))
    }

    fn drain_cache(&self, cache: &mut M::Cache, stats: &mut Stats) {
        self.inner.drain_cache(cache, stats);
        let local = take_local();
        self.merged
            .lock()
            .expect("hook totals lock poisoned")
            .add(&local);
    }
}
