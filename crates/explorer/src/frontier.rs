//! The exploration frontier: per-worker locked queues with stealing, a
//! sharded visited set with batched probes, and a driver that runs the
//! search serially or on scoped worker threads.
//!
//! Every exhaustive strategy in this workspace (naive, promise-first, and
//! Flat-lite's interleaving search) is the same loop: pop a state, expand
//! it, deduplicate successors against a visited set, push the fresh ones.
//! [`drive`] owns that loop; a strategy supplies three closures:
//!
//! * `init` — build the per-worker accumulator (stats, outcomes, memo
//!   tables; may contain non-`Send` data such as `Rc`, since it never
//!   leaves its worker thread);
//! * `step` — expand one state, pushing successors via [`Ctx::push`] and
//!   signalling global cancellation via [`Ctx::stop`] (deadlines);
//! * `finish` — reduce the accumulator plus the driver's [`WorkerReport`]
//!   to a `Send` result, merged by the caller (e.g. via `Stats::absorb`).
//!
//! With `workers == 1` the driver runs a plain LIFO stack with no
//! synchronisation — the serial path pays nothing for the abstraction.
//! With more workers each thread owns a `Mutex<VecDeque>`: the owner
//! appends a whole step's successors under one lock and pops the back
//! (LIFO, depth-first locality), while idle workers *steal* from the
//! front — the oldest, shallowest states, which are the biggest subtrees
//! and amortise the steal best.
//!
//! Termination is a single counter: `active` = states queued anywhere +
//! expansions in flight. Obtaining a state does not change it (the state
//! goes from "queued" to "in flight"); finishing a step adds the number
//! of successors pushed and subtracts one for the state consumed, so
//! `active == 0` is exactly "nothing queued, nobody mid-step" with no
//! two-counter interleaving window. Idle workers that find every queue
//! empty park on a condvar; producers bump a work epoch *after* making
//! new work visible and wake sleepers, with a short timed wait as a
//! belt-and-suspenders backstop.
//!
//! Order independence: expanding a state depends only on that state, and
//! the visited set only ever *suppresses* re-expansion of an
//! already-seen state, so the set of expanded states — and therefore the
//! outcome set — is identical for any pop/steal order and worker count.

use crate::engine::SplitMix64;
use promising_core::{Fingerprint, FpBuildHasher};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Lock a mutex, resuming it if a panicking worker poisoned it. Every
/// structure guarded here (visited-set shards, the worker queues)
/// is kept consistent *within* each critical section — a panic can only
/// strike between data-structure operations (inside `exact()` in
/// paranoid mode, say), never mid-rehash — so the stored data is still
/// valid and the remaining workers can keep draining instead of
/// cascading panics off a poisoned lock.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Render a panic payload as text: the `&str`/`String` payloads produced
/// by `panic!` and `assert!` are shown verbatim; anything else (a
/// `panic_any` value) falls back to a placeholder naming the type
/// opaquely. Used to surface worker panics and to record `Panicked`
/// verdicts in the batch runner.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Sentinel for "no exact key stored" (non-paranoid entries).
const NO_KEY: u32 = u32::MAX;

/// One visited-set shard: the fingerprint map plus this shard's exact
/// keys (paranoid mode only). Keys live out-of-line, indexed by the map
/// value, so the hot map slot is `(Fingerprint, u32)` regardless of how
/// large the exact state key type is.
struct Shard<K> {
    map: HashMap<Fingerprint, u32, FpBuildHasher>,
    keys: Vec<K>,
}

/// A visited set keyed by 128-bit state fingerprints, striped over
/// independently locked shards so parallel workers rarely contend.
/// [`ShardedVisited::insert_batch`] additionally groups a whole batch of
/// probes by shard and takes each shard lock once per batch.
///
/// In paranoid mode ([`promising_core::Config::paranoid`]) each entry
/// additionally stores the exact state key `K` in its shard; inserting
/// a *different* state with the same fingerprint panics, turning a
/// silent dedup error into a loud test failure.
pub struct ShardedVisited<K> {
    shards: Vec<Mutex<Shard<K>>>,
    paranoid: bool,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
}

impl<K: Eq + std::fmt::Debug> ShardedVisited<K> {
    /// A visited set sized for `workers` parallel writers.
    pub fn new(paranoid: bool, workers: usize) -> ShardedVisited<K> {
        let shards = if workers <= 1 {
            1
        } else {
            (workers * 8).next_power_of_two().min(256)
        };
        ShardedVisited {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::default(),
                        keys: Vec::new(),
                    })
                })
                .collect(),
            paranoid,
            mask: shards as u64 - 1,
        }
    }

    /// The shard index for a fingerprint. The fingerprint is uniform;
    /// any bit range selects a shard. Use high bits — the identity
    /// hasher folds low bits into the bucket index within the shard.
    fn shard_ix(&self, fp: Fingerprint) -> usize {
        ((((fp.0 >> 64) as u64) >> 32) & self.mask) as usize
    }

    /// Insert into a locked shard; shared by the scalar and batched
    /// entry points.
    fn insert_locked(
        &self,
        shard: &mut Shard<K>,
        fp: Fingerprint,
        exact: impl FnOnce() -> K,
    ) -> bool {
        let Shard { map, keys } = shard;
        match map.entry(fp) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if self.paranoid {
                    let stored = &keys[*e.get() as usize];
                    let fresh = exact();
                    assert!(
                        *stored == fresh,
                        "state fingerprint collision at {fp}:\n  stored: {stored:?}\n  fresh:  {fresh:?}"
                    );
                }
                false
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let ix = if self.paranoid {
                    assert!(keys.len() < NO_KEY as usize, "visited shard full");
                    keys.push(exact());
                    (keys.len() - 1) as u32
                } else {
                    NO_KEY
                };
                v.insert(ix);
                true
            }
        }
    }

    /// Insert a state, returning `true` if it was new. `exact` is only
    /// evaluated in paranoid mode.
    ///
    /// # Panics
    ///
    /// In paranoid mode, panics if `fp` is already present with a
    /// *different* exact key — a fingerprint collision.
    pub fn insert(&self, fp: Fingerprint, exact: impl FnOnce() -> K) -> bool {
        let mut guard = lock_recover(&self.shards[self.shard_ix(fp)]);
        self.insert_locked(&mut guard, fp, exact)
    }

    /// Insert a batch of states, taking each shard lock at most once for
    /// the whole batch (one lock total on the serial single-shard
    /// layout). `fresh` is cleared and refilled with one newness flag
    /// per item, in input order; `exact` is only evaluated in paranoid
    /// mode, and only for the items actually probed.
    ///
    /// Equivalent to calling [`ShardedVisited::insert`] per item (the
    /// visited set only ever suppresses re-expansion, so batching probes
    /// cannot change which states are new — only how many times the
    /// shard locks are taken).
    ///
    /// # Panics
    ///
    /// In paranoid mode, panics on the first fingerprint collision in
    /// the batch.
    pub fn insert_batch<T>(
        &self,
        items: &[T],
        fp_of: impl Fn(&T) -> Fingerprint,
        exact: impl Fn(&T) -> K,
        fresh: &mut Vec<bool>,
    ) {
        fresh.clear();
        fresh.resize(items.len(), false);
        if items.is_empty() {
            return;
        }
        if self.mask == 0 {
            // Serial layout: the whole batch is one critical section.
            let mut guard = lock_recover(&self.shards[0]);
            for (i, it) in items.iter().enumerate() {
                fresh[i] = self.insert_locked(&mut guard, fp_of(it), || exact(it));
            }
            return;
        }
        // Group by shard without sorting: pick the first unprocessed
        // item's shard, handle every batch item on that shard under one
        // lock, repeat. Quadratic in distinct shards per batch, which is
        // tiny (a batch is one expansion's successors).
        let mut done = vec![false; items.len()];
        for i in 0..items.len() {
            if done[i] {
                continue;
            }
            let s = self.shard_ix(fp_of(&items[i]));
            let mut guard = lock_recover(&self.shards[s]);
            for (j, it) in items.iter().enumerate().skip(i) {
                if !done[j] && self.shard_ix(fp_of(it)) == s {
                    done[j] = true;
                    fresh[j] = self.insert_locked(&mut guard, fp_of(it), || exact(it));
                }
            }
        }
    }

    /// Number of distinct states recorded.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    /// Whether no state has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the visited structure itself: map
    /// slots at capacity plus the exact-key vectors. Heap data owned by
    /// the keys is *not* chased — the engine charges that per state via
    /// `SearchModel::approx_state_bytes`.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let g = lock_recover(s);
                g.map.capacity() * (std::mem::size_of::<(Fingerprint, u32)>() + 1)
                    + g.keys.capacity() * std::mem::size_of::<K>()
            })
            .sum()
    }
}

/// Per-step context: successor buffer and the global cancellation flag.
pub struct Ctx<'a, S> {
    out: Vec<S>,
    stop: &'a AtomicBool,
}

impl<S> Ctx<'_, S> {
    /// Schedule a successor state for expansion.
    pub fn push(&mut self, s: S) {
        self.out.push(s);
    }

    /// Cancel the whole search (deadline hit); workers drain and exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// What the driver observed about one worker's run, handed to `finish`
/// beside the strategy's own accumulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkerReport {
    /// States this worker obtained by stealing from a sibling's queue
    /// (zero on the serial path).
    pub steals: u64,
}

/// The shared state of a parallel run: the per-worker queues and the
/// termination/parking machinery.
struct StealPool<S> {
    /// One queue per worker: the owner pushes and pops the back, thieves
    /// take the front.
    queues: Vec<Mutex<VecDeque<S>>>,
    /// States queued anywhere + expansions in flight. Obtaining a state
    /// leaves it unchanged; retiring a step adds `successors - 1`.
    /// Exactly zero ⟺ the search is drained.
    active: AtomicI64,
    done: AtomicBool,
    /// Bumped after new work becomes visible; parked workers recheck it.
    epoch: AtomicU64,
    sleepers: AtomicU64,
    park: Mutex<()>,
    ready: Condvar,
}

impl<S> StealPool<S> {
    fn wake_all(&self) {
        drop(lock_recover(&self.park));
        self.ready.notify_all();
    }

    /// Credit `pushed` successors to `active` — MUST run before the
    /// successors become stealable, else a thief that steals and retires
    /// one first could drive `active` to zero and latch `done` while
    /// work still exists.
    fn credit(&self, pushed: i64) {
        if pushed > 0 {
            self.active.fetch_add(pushed, Ordering::SeqCst);
        }
    }

    /// Retire one finished step whose `pushed` successors were already
    /// credited and published.
    fn retire(&self, pushed: i64) {
        let now = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        if now == 0 {
            self.done.store(true, Ordering::SeqCst);
            self.wake_all();
        } else if pushed > 0 {
            self.epoch.fetch_add(1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                self.wake_all();
            }
        }
    }

    /// Get the next state for worker `me`: local LIFO pop, then
    /// randomized stealing; park when every queue is empty. `None`
    /// means the search is over (drained or cancelled).
    fn fetch(
        &self,
        me: usize,
        rng: &mut SplitMix64,
        stop: &AtomicBool,
        report: &mut WorkerReport,
    ) -> Option<S> {
        let n = self.queues.len();
        loop {
            if stop.load(Ordering::Relaxed) || self.done.load(Ordering::SeqCst) {
                return None;
            }
            // Record the epoch before probing: a producer bumps it after
            // making work visible, so "no work found at epoch e" + "epoch
            // still e under the park lock" justifies sleeping.
            let epoch = self.epoch.load(Ordering::SeqCst);
            if let Some(s) = lock_recover(&self.queues[me]).pop_back() {
                return Some(s);
            }
            let offset = rng.below(n);
            for k in 0..n {
                let v = (offset + k) % n;
                if v == me {
                    continue;
                }
                if let Some(s) = lock_recover(&self.queues[v]).pop_front() {
                    report.steals += 1;
                    return Some(s);
                }
            }
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            let g = lock_recover(&self.park);
            if self.epoch.load(Ordering::SeqCst) == epoch
                && !self.done.load(Ordering::SeqCst)
                && !stop.load(Ordering::Relaxed)
            {
                // The timed wait is a backstop against a lost wakeup
                // (and lets stop-flag cancellation propagate promptly);
                // the epoch/notify protocol is the primary signal.
                let (g, _) = self
                    .ready
                    .wait_timeout(g, Duration::from_millis(1))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                drop(g);
            } else {
                drop(g);
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Unwind guard around a `step` call: if the step panics, the worker
/// would otherwise leave `active` counting its in-flight expansion
/// forever and strand its parked siblings. The guard's `Drop` (reached
/// only on unwind — the normal path defuses it with `mem::forget`)
/// raises the stop flag and wakes everyone so the panic propagates out
/// of `thread::scope` instead of hanging the process.
struct AbortOnPanic<'a, S> {
    pool: &'a StealPool<S>,
    stop: &'a AtomicBool,
}

impl<S> Drop for AbortOnPanic<'_, S> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.pool.wake_all();
    }
}

/// Run the exploration loop over `roots`.
///
/// Returns one `finish` result per worker (a single-element vector on the
/// serial path). See the module docs for the closure contract.
pub fn drive<S, L, R>(
    roots: Vec<S>,
    workers: usize,
    init: impl Fn() -> L + Sync,
    step: impl Fn(&mut L, S, &mut Ctx<'_, S>) + Sync,
    finish: impl Fn(L, WorkerReport) -> R + Sync,
) -> Vec<R>
where
    S: Send,
    R: Send,
{
    let stop = AtomicBool::new(false);

    if workers <= 1 {
        let mut local = init();
        let mut stack = roots;
        let mut ctx = Ctx {
            out: Vec::new(),
            stop: &stop,
        };
        while let Some(s) = stack.pop() {
            if ctx.stopped() {
                break;
            }
            step(&mut local, s, &mut ctx);
            stack.append(&mut ctx.out);
        }
        return vec![finish(local, WorkerReport::default())];
    }

    let n_roots = roots.len() as i64;
    // Seed the queues round-robin.
    let mut queues: Vec<VecDeque<S>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (i, s) in roots.into_iter().enumerate() {
        queues[i % workers].push_back(s);
    }
    let pool = StealPool {
        queues: queues.into_iter().map(Mutex::new).collect(),
        active: AtomicI64::new(n_roots),
        done: AtomicBool::new(n_roots == 0),
        epoch: AtomicU64::new(0),
        sleepers: AtomicU64::new(0),
        park: Mutex::new(()),
        ready: Condvar::new(),
    };

    std::thread::scope(|scope| {
        let pool = &pool;
        let stop = &stop;
        let handles: Vec<_> = (0..workers)
            .map(|ix| {
                let init = &init;
                let step = &step;
                let finish = &finish;
                scope.spawn(move || {
                    let mut local = init();
                    // Victim selection only — outcome sets are identical
                    // for every steal order, so any fixed seed is fine.
                    let mut rng = SplitMix64::new(0x5EED ^ (ix as u64) << 17);
                    let mut report = WorkerReport::default();
                    let mut ctx = Ctx {
                        out: Vec::new(),
                        stop,
                    };
                    while let Some(s) = pool.fetch(ix, &mut rng, stop, &mut report) {
                        let guard = AbortOnPanic { pool, stop };
                        step(&mut local, s, &mut ctx);
                        std::mem::forget(guard);

                        let pushed = ctx.out.len() as i64;
                        pool.credit(pushed);
                        lock_recover(&pool.queues[ix]).extend(ctx.out.drain(..));
                        pool.retire(pushed);
                    }
                    // Unblock parked siblings so termination propagates.
                    pool.wake_all();
                    finish(local, report)
                })
            })
            .collect();

        // Join every worker before deciding the run's fate: siblings of a
        // panicking worker drain normally (AbortOnPanic raised the stop
        // flag), so nothing is left running. If any worker panicked,
        // re-raise ONE panic that names the first failing worker and
        // carries its payload text — the per-test isolation layer
        // (`catch_unwind` in the harness) turns that into a `Panicked`
        // verdict instead of a dead campaign.
        let mut results = Vec::with_capacity(workers);
        let mut first_panic: Option<(usize, String)> = None;
        for (ix, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => results.push(r),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some((ix, panic_message(payload.as_ref())));
                    }
                }
            }
        }
        if let Some((ix, msg)) = first_panic {
            panic!("exploration worker {ix} of {workers} panicked: {msg}");
        }
        results
    })
}

/// The effective worker count for a machine configuration: the
/// configured value, with `0` mapped to the available parallelism.
pub fn effective_workers(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        configured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::FpHasher;

    fn fp_of(n: u64) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_u64(n);
        h.finish128()
    }

    /// Exhaustively explore the binary tree of depths below `depth`,
    /// counting nodes; every worker count must agree.
    fn count_tree(workers: usize) -> (u64, usize) {
        let visited: ShardedVisited<u64> = ShardedVisited::new(true, workers);
        let root = 1u64;
        assert!(visited.insert(fp_of(root), || root));
        let results = drive(
            vec![root],
            workers,
            || 0u64,
            |count, node, ctx| {
                *count += 1;
                for child in [node * 2, node * 2 + 1] {
                    if child < 128 && visited.insert(fp_of(child), || child) {
                        ctx.push(child);
                    }
                }
            },
            |count, _report| count,
        );
        (results.iter().sum(), visited.len())
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (serial, serial_seen) = count_tree(1);
        assert_eq!(serial, 127);
        assert_eq!(serial_seen, 127);
        for workers in [2, 4, 8] {
            assert_eq!(count_tree(workers), (serial, serial_seen));
        }
    }

    #[test]
    fn parallel_drive_hands_out_every_state_exactly_once() {
        // A complete binary tree of 2^17 - 1 nodes, explored with no
        // visited set: every node is pushed exactly once, so the record
        // of expanded nodes must be exactly the node set. A state lost
        // between queues or handed to two workers breaks the equality.
        const NODES: u64 = (1 << 17) - 1;
        let records = drive(
            vec![1u64],
            4,
            Vec::new,
            |seen: &mut Vec<u64>, node, ctx| {
                seen.push(node);
                for child in [node * 2, node * 2 + 1] {
                    if child <= NODES {
                        ctx.push(child);
                    }
                }
            },
            |seen, _| seen,
        );
        let mut all: Vec<u64> = records.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (1..=NODES).collect::<Vec<u64>>());
    }

    #[test]
    fn wide_fanout_counts_every_state() {
        // One root fans out to many successors pushed under one lock;
        // every leaf must be expanded exactly once, on any worker count.
        let fanout = 1_500u64;
        for workers in [1, 2, 4] {
            let visited: ShardedVisited<u64> = ShardedVisited::new(false, workers);
            assert!(visited.insert(fp_of(0), || 0));
            let results = drive(
                vec![0u64],
                workers,
                || 0u64,
                |count, node, ctx| {
                    *count += 1;
                    if node == 0 {
                        for child in 1..=fanout {
                            if visited.insert(fp_of(child), || child) {
                                ctx.push(child);
                            }
                        }
                    }
                },
                |count, _| count,
            );
            assert_eq!(results.iter().sum::<u64>(), fanout + 1, "workers={workers}");
            assert_eq!(visited.len(), fanout as usize + 1);
        }
    }

    #[test]
    fn steals_are_reported_when_one_worker_seeds_all_work() {
        // A single root expanded by one worker produces a deep chain of
        // wide fan-outs; with several workers and one producer, siblings
        // can only ever obtain work by stealing.
        // The reports must account for the split.
        let visited: ShardedVisited<u64> = ShardedVisited::new(false, 4);
        assert!(visited.insert(fp_of(1), || 1));
        let reports = drive(
            vec![1u64],
            4,
            || 0u64,
            |count, node, ctx| {
                *count += 1;
                // Burn a little time so thieves have something to race.
                std::hint::black_box((0..50).sum::<u64>());
                for child in [node * 7 + 1, node * 7 + 2, node * 7 + 3] {
                    if child < 100_000 && visited.insert(fp_of(child), || child) {
                        ctx.push(child);
                    }
                }
            },
            |count, report| (count, report.steals),
        );
        let total: u64 = reports.iter().map(|(c, _)| c).sum();
        assert_eq!(total as usize, visited.len());
        // Steal counts are scheduling-dependent; the invariant is that
        // they are *reported* (the sum is meaningful) — on a loaded
        // 1-CPU host every steal may legitimately be zero.
        let steals: u64 = reports.iter().map(|(_, s)| s).sum();
        assert!(steals <= total);
    }

    #[test]
    fn revisits_are_suppressed() {
        let visited: ShardedVisited<u64> = ShardedVisited::new(false, 1);
        assert!(visited.insert(fp_of(7), || 7));
        assert!(!visited.insert(fp_of(7), || 7));
        assert_eq!(visited.len(), 1);
    }

    #[test]
    fn batch_insert_agrees_with_scalar_insert() {
        for workers in [1, 4] {
            let scalar: ShardedVisited<u64> = ShardedVisited::new(true, workers);
            let batched: ShardedVisited<u64> = ShardedVisited::new(true, workers);
            let mut fresh = Vec::new();
            // Two batches with internal and cross-batch duplicates.
            let batches: [&[u64]; 2] = [&[1, 2, 3, 2, 4], &[4, 5, 1, 6]];
            for items in batches {
                let tagged: Vec<(Fingerprint, u64)> =
                    items.iter().map(|&v| (fp_of(v), v)).collect();
                batched.insert_batch(&tagged, |it| it.0, |it| it.1, &mut fresh);
                let scalar_fresh: Vec<bool> = items
                    .iter()
                    .map(|&v| scalar.insert(fp_of(v), || v))
                    .collect();
                assert_eq!(fresh, scalar_fresh, "workers={workers}");
            }
            assert_eq!(batched.len(), scalar.len());
            assert_eq!(batched.len(), 6);
            assert!(batched.bytes() > 0);
        }
    }

    #[test]
    fn batch_insert_handles_empty_batches() {
        let v: ShardedVisited<u64> = ShardedVisited::new(false, 4);
        let mut fresh = vec![true; 3];
        v.insert_batch(
            &[] as &[(Fingerprint, u64)],
            |it| it.0,
            |it| it.1,
            &mut fresh,
        );
        assert!(fresh.is_empty());
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "fingerprint collision")]
    fn paranoid_mode_detects_collisions() {
        let visited: ShardedVisited<u64> = ShardedVisited::new(true, 1);
        assert!(visited.insert(fp_of(1), || 1));
        // Same fingerprint, different exact key: must panic.
        visited.insert(fp_of(1), || 2);
    }

    #[test]
    #[should_panic(expected = "fingerprint collision")]
    fn paranoid_mode_detects_collisions_in_batches() {
        let visited: ShardedVisited<u64> = ShardedVisited::new(true, 1);
        let mut fresh = Vec::new();
        // Same fingerprint, different exact keys, same batch.
        let items = [(fp_of(1), 1u64), (fp_of(1), 2u64)];
        visited.insert_batch(&items, |it| it.0, |it| it.1, &mut fresh);
    }

    #[test]
    fn stop_cancels_parallel_search() {
        let visited: ShardedVisited<u64> = ShardedVisited::new(false, 4);
        let results = drive(
            vec![1u64],
            4,
            || 0u64,
            |count, node, ctx| {
                *count += 1;
                if *count > 10 {
                    ctx.stop();
                    return;
                }
                for child in [node * 2, node * 2 + 1] {
                    if visited.insert(fp_of(child), || child) {
                        ctx.push(child);
                    }
                }
            },
            |count, _| count,
        );
        // Unbounded tree: only cancellation lets this return.
        assert!(results.iter().sum::<u64>() > 0);
    }

    #[test]
    fn effective_workers_resolves_zero() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn worker_panic_surfaces_payload_and_worker_index() {
        // A panicking step (e.g. a paranoid-mode collision assert) must
        // cancel the pool and propagate — naming the failing worker and
        // carrying the original payload — not strand parked siblings or
        // die with an anonymous "worker panicked".
        let err = std::panic::catch_unwind(|| {
            drive(
                vec![1u64, 2, 3, 4],
                4,
                || (),
                |_, node, ctx| {
                    if node == 3 {
                        panic!("injected step failure");
                    }
                    ctx.push(node + 4);
                },
                |(), _| (),
            )
        })
        .expect_err("a worker panicked; drive must re-raise");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("exploration worker"), "{msg}");
        assert!(msg.contains("of 4 panicked"), "{msg}");
        assert!(msg.contains("injected step failure"), "{msg}");
    }

    #[test]
    fn visited_set_recovers_from_poisoned_shards() {
        // Paranoid-mode collision asserts panic while holding a shard
        // lock; subsequent inserts on that shard must keep working (the
        // map itself is still consistent — the panic fires between map
        // operations).
        let visited: std::sync::Arc<ShardedVisited<u64>> =
            std::sync::Arc::new(ShardedVisited::new(true, 1));
        assert!(visited.insert(fp_of(1), || 1));
        let v = std::sync::Arc::clone(&visited);
        let poisoner = std::thread::spawn(move || {
            v.insert(fp_of(1), || 2); // collision: panics holding the lock
        });
        assert!(poisoner.join().is_err(), "collision assert must fire");
        // The single shard is now poisoned; inserts still succeed.
        assert!(visited.insert(fp_of(2), || 2));
        assert!(!visited.insert(fp_of(2), || 2));
        assert_eq!(visited.len(), 2);
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let err = std::panic::catch_unwind(|| panic!("plain {}", "text")).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "plain text");
        let err = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "<non-string panic payload>");
    }
}
