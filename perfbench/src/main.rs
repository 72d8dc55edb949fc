//! Time-to-verdict benchmark for the Promising-ARM/RISC-V workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run builds a workload's inputs, then repeats *passes* over them
//! until `--seconds` are used up. A pass runs every row (or test) of the
//! workload once, in an order shuffled by `--seed`. Every search is
//! checked against the pinned digests and counts in `pins.tsv` and the
//! workload's own correctness predicate. The last line of standard
//! output is one JSON object. With `--trace 0` it carries the end-to-end
//! metrics, with `--trace 1` the per-layer split, which comes from passes
//! run through [`traced::Traced`] alternated with untraced ones. Any
//! failed check makes the exit status nonzero. See `README.md` in this
//! directory for the metrics and why each workload exists.

mod traced;

use promising_core::{Arch, Config, FpHasher, Machine, Outcome};
use promising_explorer::{
    CertMode, Engine, Exploration, NaiveModel, PromiseFirstModel, SearchModel, SplitMix64, Stats,
    StopReason,
};
use promising_flat::{FlatMachine, FlatModel};
use promising_litmus::{
    catalogue, generate_lang_suite, generate_suite, generate_three_thread_suite, lang_catalogue,
    LitmusTest, DEFAULT_FUEL,
};
use promising_workloads::{by_spec, init_for, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traced::{Hooks, Traced};

/// Promise-first rows. STC costs ~1 ms; it is here so that every Flat
/// row's digest meets a live promise-first digest through the pins.
const PF_ROWS: &[&str] = &["SLC-2", "TL-1", "SLR-2", "STC-100-010-010"];
/// Flat-lite rows: many cheap states, no certification.
const FLAT_ROWS: &[&str] = &["SLC-2", "SLR-2", "STC-100-010-010"];
/// Set-up is timed in windows, one before the first pass and one after
/// each pass, so that it samples the host over the whole run as the
/// passes do. A window repeats the build at least this many times and
/// for at least this long, and its value is the median of the repeats;
/// `setup_s` is the mean over windows.
const SETUP_WINDOW: (usize, Duration) = (3, Duration::from_millis(30));
/// The pinned outcome digests and exact counts.
const PINS: &str = include_str!("../pins.tsv");

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Strategy {
    Promising,
    Naive,
    Flat,
}

impl Strategy {
    fn name(self) -> &'static str {
        match self {
            Strategy::Promising => "promising",
            Strategy::Naive => "promising-naive",
            Strategy::Flat => "flat",
        }
    }
}

/// A built machine, ready to search.
enum Job {
    Promising(Machine),
    Naive(Machine),
    Flat(FlatMachine),
}

impl Job {
    fn strategy(&self) -> Strategy {
        match self {
            Job::Promising(_) => Strategy::Promising,
            Job::Naive(_) => Strategy::Naive,
            Job::Flat(_) => Strategy::Flat,
        }
    }

    fn workers(&self) -> usize {
        match self {
            Job::Promising(m) | Job::Naive(m) => m.config().workers,
            Job::Flat(m) => m.config().workers,
        }
    }

    /// Run the search, through [`Traced`] when `traced` is set.
    fn search(&self, traced: bool) -> (Exploration, Option<Hooks>) {
        match self {
            Job::Promising(m) => explore(PromiseFirstModel::new(m), traced),
            Job::Naive(m) => explore(NaiveModel::new(m, CertMode::Online), traced),
            Job::Flat(m) => explore(FlatModel::new(m), traced),
        }
    }
}

fn explore<M: SearchModel<Out = Outcome>>(model: M, traced: bool) -> (Exploration, Option<Hooks>) {
    if traced {
        let engine = Engine::new(Traced::new(model));
        let e = engine.run();
        let hooks = engine.model().hooks();
        (e, Some(hooks))
    } else {
        (Engine::new(model).run(), None)
    }
}

/// What a row or test must satisfy beyond its pins.
enum Check {
    /// A Table-2 row: the workload's correctness predicate.
    Row(Workload),
    /// A corpus test: the recorded expectation, and agreement between
    /// the models it runs under.
    Test(LitmusTest),
}

/// One row or test: its searches and its checks.
struct Item {
    name: String,
    jobs: Vec<Job>,
    check: Check,
}

/// A workload as the benchmark runs it.
struct Bench {
    name: &'static str,
    /// Workload name the pins are filed under.
    pins_of: &'static str,
    /// Whether every count must match its pin. At 2 workers only the
    /// digest, `states` and `transitions` are pinned.
    all_counts: bool,
    /// The litmus corpus: pins are aggregated over all tests, and the
    /// per-model harness times are reported.
    corpus: bool,
    items: Vec<Item>,
}

const WORKLOADS: &[&str] = &[
    "pf-table2",
    "flat-table2",
    "flat-table2-w2",
    "litmus-corpus",
];

fn build(name: &str) -> Option<Bench> {
    let rows = |rows: &[&str], workers: usize, job: fn(&Workload, usize) -> Job| {
        rows.iter()
            .map(|spec| {
                let w = by_spec(spec).expect("row names a known workload");
                Item {
                    name: spec.to_string(),
                    jobs: vec![job(&w, workers)],
                    check: Check::Row(w),
                }
            })
            .collect()
    };
    let pf = |w: &Workload, workers: usize| {
        let config = w.config(Arch::Arm).with_workers(workers);
        Job::Promising(Machine::with_init(w.program.clone(), config, init_for(w)))
    };
    let flat = |w: &Workload, workers: usize| {
        let config = w.config_unshared(Arch::Arm).with_workers(workers);
        Job::Flat(FlatMachine::with_init(
            w.program.clone(),
            config,
            init_for(w),
        ))
    };
    let (name, pins_of, all_counts, items) = match name {
        "pf-table2" => ("pf-table2", "pf-table2", true, rows(PF_ROWS, 1, pf)),
        "flat-table2" => ("flat-table2", "flat-table2", true, rows(FLAT_ROWS, 1, flat)),
        "flat-table2-w2" => (
            "flat-table2-w2",
            "flat-table2",
            false,
            rows(FLAT_ROWS, 2, flat),
        ),
        "litmus-corpus" => ("litmus-corpus", "litmus-corpus", true, corpus_items()),
        _ => return None,
    };
    Some(Bench {
        name,
        pins_of,
        all_counts,
        corpus: name == "litmus-corpus",
        items,
    })
}

/// The `litmus_batch` corpus: the generated two- and three-thread
/// suites and the named catalogue for both architectures, plus the
/// language catalogue and generated language suite compiled to both.
fn corpus_items() -> Vec<Item> {
    let mut tests = Vec::new();
    let named = catalogue();
    for arch in [Arch::Arm, Arch::RiscV] {
        tests.extend(generate_suite(arch));
        tests.extend(generate_three_thread_suite(arch));
        tests.extend(named.iter().filter(|t| t.arch == arch).cloned());
    }
    let mut lang = lang_catalogue();
    let have: BTreeSet<String> = lang.iter().map(|t| t.name.clone()).collect();
    lang.extend(
        generate_lang_suite()
            .into_iter()
            .filter(|t| !have.contains(&t.name)),
    );
    for t in &lang {
        for arch in [Arch::Arm, Arch::RiscV] {
            tests.push(t.compile(arch));
        }
    }
    tests
        .into_iter()
        .map(|t| {
            let fuel = t.loop_fuel.unwrap_or(DEFAULT_FUEL);
            let config = Config::for_arch(t.arch)
                .with_loop_fuel(fuel)
                .with_workers(1);
            let m = Machine::with_init(t.program.clone(), config.clone(), t.init.clone());
            let mut jobs = vec![Job::Promising(m.clone()), Job::Naive(m)];
            // Flat-lite is documented to be conservative on these
            // shapes; the harness leaves it out of agreement checks too.
            if !t.flat_conservative {
                jobs.push(Job::Flat(FlatMachine::with_init(
                    t.program.clone(),
                    config,
                    t.init.clone(),
                )));
            }
            Item {
                name: format!("{} [{}]", t.name, t.arch.name()),
                jobs,
                check: Check::Test(t),
            }
        })
        .collect()
}

/// The exact, repeatable facts of one search (or of a workload's worth
/// of searches of one strategy, for aggregated pins).
#[derive(Clone, PartialEq, Eq, Debug)]
struct Pin {
    digest: String,
    states: u64,
    transitions: u64,
    certifications: u64,
    final_memories: u64,
    por_pruned: u64,
    cert_hits: u64,
    cert_misses: u64,
}

impl Pin {
    const FIELDS: usize = 8;

    fn of(digest: String, s: &Stats) -> Pin {
        Pin {
            digest,
            states: s.states,
            transitions: s.transitions,
            certifications: s.certifications,
            final_memories: s.final_memories,
            por_pruned: s.por_pruned,
            cert_hits: s.cert_hits,
            cert_misses: s.cert_misses,
        }
    }

    fn parse(fields: &[&str]) -> Option<Pin> {
        let n = |i: usize| fields[i].parse().ok();
        (fields.len() == Pin::FIELDS).then_some(())?;
        Some(Pin {
            digest: fields[0].to_string(),
            states: n(1)?,
            transitions: n(2)?,
            certifications: n(3)?,
            final_memories: n(4)?,
            por_pruned: n(5)?,
            cert_hits: n(6)?,
            cert_misses: n(7)?,
        })
    }

    fn line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.digest,
            self.states,
            self.transitions,
            self.certifications,
            self.final_memories,
            self.por_pruned,
            self.cert_hits,
            self.cert_misses
        )
    }

    /// Whether `self` (measured) matches `pin`: everything, or at more
    /// than one worker the digest and the state and transition counts.
    fn matches(&self, pin: &Pin, all_counts: bool) -> bool {
        if all_counts {
            self == pin
        } else {
            (&self.digest, self.states, self.transitions)
                == (&pin.digest, pin.states, pin.transitions)
        }
    }
}

type PinKey = (String, String, Strategy);

/// A `pins.tsv` line: how a mismatch reports the measured values.
fn pin_line(key: &PinKey, pin: &Pin) -> String {
    format!("{}\t{}\t{}\t{}", key.0, key.1, key.2.name(), pin.line())
}

fn load_pins() -> Result<BTreeMap<PinKey, Pin>, String> {
    let mut pins = BTreeMap::new();
    for (i, line) in PINS.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let strategy = match f.get(2) {
            Some(&"promising") => Strategy::Promising,
            Some(&"promising-naive") => Strategy::Naive,
            Some(&"flat") => Strategy::Flat,
            _ => return Err(format!("pins.tsv line {}: bad strategy", i + 1)),
        };
        let pin = Pin::parse(&f[3..]).ok_or(format!("pins.tsv line {}: bad fields", i + 1))?;
        pins.insert((f[0].to_string(), f[1].to_string(), strategy), pin);
    }
    // Flat and promise-first must give the same outcomes on every Flat
    // row; each run then checks its digests against these pins.
    for row in FLAT_ROWS {
        let digest = |w: &str, s| {
            pins.get(&(w.to_string(), row.to_string(), s))
                .map(|p: &Pin| &p.digest)
        };
        let flat = digest("flat-table2", Strategy::Flat);
        if flat.is_some() && flat != digest("pf-table2", Strategy::Promising) {
            return Err(format!(
                "pins.tsv: flat and promise-first digests differ on {row}"
            ));
        }
    }
    Ok(pins)
}

/// One finished search.
struct Search {
    item: usize,
    strategy: Strategy,
    workers: usize,
    took: Duration,
    /// `None` when the search panicked.
    result: Option<(Exploration, Option<Hooks>)>,
}

/// One pass over every item of a workload.
struct Pass {
    wall: Duration,
    searches: Vec<Search>,
}

fn run_pass(bench: &Bench, order: &[usize], traced: bool) -> Pass {
    let mut searches = Vec::with_capacity(order.len() * 3);
    let begun = Instant::now();
    for &ix in order {
        for job in &bench.items[ix].jobs {
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| job.search(traced))).ok();
            searches.push(Search {
                item: ix,
                strategy: job.strategy(),
                workers: job.workers(),
                took: t0.elapsed(),
                result,
            });
        }
    }
    Pass {
        wall: begun.elapsed(),
        searches,
    }
}

/// What a run keeps of a checked pass.
struct Summary {
    traced: bool,
    wall: f64,
    layer: BTreeMap<&'static str, f64>,
}

/// Check every search of `pass`; returns how many failed, and prints
/// why to standard error.
fn check_pass(bench: &Bench, pins: &BTreeMap<PinKey, Pin>, pass: &Pass) -> u64 {
    let mut failed = vec![false; pass.searches.len()];
    let mut fail = |i: usize, why: String| {
        if !failed[i] {
            eprintln!("FAIL {}: {why}", bench.name);
        }
        failed[i] = true;
    };
    let mut by_item: BTreeMap<usize, Vec<(usize, String)>> = BTreeMap::new();
    for (i, s) in pass.searches.iter().enumerate() {
        let item = &bench.items[s.item];
        let label = format!("{} under {}", item.name, s.strategy.name());
        let Some((e, _)) = &s.result else {
            fail(i, format!("{label}: search panicked"));
            continue;
        };
        if e.stats.stop != StopReason::Completed {
            fail(i, format!("{label}: stopped with {}", e.stats.stop.name()));
        }
        match &item.check {
            Check::Row(w) => {
                if let Some(v) = w.violations(&e.outcomes).first() {
                    fail(i, format!("{label}: incorrect state {v}"));
                }
            }
            Check::Test(t) => {
                if t.verdict(&e.outcomes).1 == Some(false) {
                    fail(i, format!("{label}: verdict contradicts the expectation"));
                }
            }
        }
        let digest = e.outcomes_digest();
        if !bench.corpus {
            let key = (bench.pins_of.to_string(), item.name.clone(), s.strategy);
            let got = Pin::of(digest.clone(), &e.stats);
            if !pins
                .get(&key)
                .is_some_and(|pin| got.matches(pin, bench.all_counts))
            {
                fail(
                    i,
                    format!(
                        "{label}: differs from its pin; measured\n{}",
                        pin_line(&key, &got)
                    ),
                );
            }
        }
        by_item.entry(s.item).or_default().push((i, digest));
    }
    // The models a corpus test runs under must agree with each other.
    for (item, digests) in &by_item {
        if digests.iter().any(|(_, d)| *d != digests[0].1) {
            for &(i, _) in digests {
                fail(i, format!("{}: models disagree", bench.items[*item].name));
            }
        }
    }
    // Aggregated pins: one digest and one count total per strategy over
    // the whole corpus, in item order, so the pass order cannot move it.
    if bench.corpus {
        let mut per_strategy: BTreeMap<Strategy, (FpHasher, Stats, Vec<usize>)> = BTreeMap::new();
        for (&item, digests) in &by_item {
            for (i, digest) in digests {
                let s = &pass.searches[*i];
                let (e, _) = s
                    .result
                    .as_ref()
                    .expect("only finished searches have digests");
                let (h, total, ixs) = per_strategy.entry(s.strategy).or_default();
                h.write_len(item);
                for b in digest.bytes() {
                    h.write_u32(b as u32);
                }
                total.absorb(&e.stats);
                ixs.push(*i);
            }
        }
        for (strategy, (h, total, ixs)) in per_strategy {
            let got = Pin::of(format!("{:032x}", h.finish128().0), &total);
            let key = (bench.pins_of.to_string(), "*".to_string(), strategy);
            if pins.get(&key) != Some(&got) {
                eprintln!(
                    "FAIL {}: {} totals differ from their pin; measured\n{}",
                    bench.name,
                    strategy.name(),
                    pin_line(&key, &got)
                );
                for i in ixs {
                    failed[i] = true;
                }
            }
        }
    }
    failed.iter().filter(|&&f| f).count() as u64
}

/// One set-up window: rebuild `bench` repeatedly and return the median
/// time of a build.
fn time_setup(workload: &str, bench: &mut Bench) -> f64 {
    let mut xs = Vec::new();
    let begun = Instant::now();
    while xs.len() < SETUP_WINDOW.0 || begun.elapsed() < SETUP_WINDOW.1 {
        let t0 = Instant::now();
        *bench = std::hint::black_box(build(workload).expect("workload was built once"));
        xs.push(t0.elapsed().as_secs_f64());
    }
    median(&xs)
}

/// The order of a pass: the items shuffled by the seed and pass index.
fn shuffled(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64::for_trace(seed, pass);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer values of one pass.
fn layer_values(bench: &Bench, pass: &Pass) -> BTreeMap<&'static str, f64> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, x: f64| *v.entry(k).or_insert(0.0) += x;
    let (mut flat_apply_calls, mut cert_hits, mut cert_looks) = (0u64, 0u64, 0u64);
    for s in &pass.searches {
        let Some((e, hooks)) = &s.result else {
            continue;
        };
        let st = &e.stats;
        let cpu = st.cpu_time.as_secs_f64();
        add("states", st.states as f64);
        add("transitions", st.transitions as f64);
        add("por_pruned", st.por_pruned as f64);
        add("frontier.steals", st.steals as f64);
        add(
            "frontier.idle_s",
            (s.workers as f64 * st.wall_time.as_secs_f64() - cpu).max(0.0),
        );
        match s.strategy {
            Strategy::Promising => {
                add("pf.certifications", st.certifications as f64);
                add("pf.final_memories", st.final_memories as f64);
                add("corpus.promising_s", s.took.as_secs_f64());
            }
            Strategy::Naive => {
                cert_hits += st.cert_hits;
                cert_looks += st.cert_hits + st.cert_misses;
                add("corpus.naive_s", s.took.as_secs_f64());
            }
            Strategy::Flat => add("corpus.flat_s", s.took.as_secs_f64()),
        }
        let Some(h) = hooks else { continue };
        add("cpu_s", cpu);
        add("engine.self_s", (cpu - h.total().as_secs_f64()).max(0.0));
        let secs = Duration::as_secs_f64;
        match s.strategy {
            Strategy::Promising => {
                add("pf.certify.busy_s", secs(&h.expand));
                add("pf.phase2.busy_s", secs(&h.outcome));
                add("pf.apply.busy_s", secs(&h.apply));
                add("pf.fingerprint.busy_s", secs(&h.fingerprint));
            }
            Strategy::Flat => {
                add("flat.apply.busy_s", secs(&h.apply));
                add("flat.fingerprint.busy_s", secs(&h.fingerprint));
                add("flat.reduce.busy_s", secs(&h.reduce));
                add("flat.enabled.busy_s", secs(&h.expand));
                flat_apply_calls += h.apply_calls;
            }
            Strategy::Naive => add("naive.certify.busy_s", secs(&h.expand)),
        }
    }
    if !bench.corpus {
        v.retain(|k, _| !k.starts_with("corpus."));
    }
    let get = |v: &BTreeMap<_, f64>, k| v.get(k).copied().unwrap_or(0.0);
    let per_call = if flat_apply_calls > 0 {
        get(&v, "flat.apply.busy_s") / flat_apply_calls as f64 * 1e6
    } else {
        0.0
    };
    v.insert("flat.apply.per_call_us", per_call);
    let fresh = get(&v, "states") / get(&v, "transitions").max(1.0);
    v.insert("dedup.fresh_ratio", fresh);
    v.insert(
        "naive.cert_hit_ratio",
        cert_hits as f64 / cert_looks.max(1) as f64,
    );
    v.insert(
        "engine.states_per_s",
        get(&v, "states") / pass.wall.as_secs_f64(),
    );
    v
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them,
/// with its unit, and whether it is read from traced passes (hook
/// times) or untraced ones (harness-level times).
const LAYER_METRICS: &[(&str, &str, bool)] = &[
    ("pf.certify.busy_s", "s", true),
    ("pf.certifications", "count", true),
    ("pf.phase2.busy_s", "s", true),
    ("pf.final_memories", "count", true),
    ("pf.apply.busy_s", "s", true),
    ("pf.fingerprint.busy_s", "s", true),
    ("flat.apply.busy_s", "s", true),
    ("flat.apply.per_call_us", "us", true),
    ("flat.fingerprint.busy_s", "s", true),
    ("flat.reduce.busy_s", "s", true),
    ("flat.enabled.busy_s", "s", true),
    ("por_pruned", "count", true),
    ("engine.self_s", "s", true),
    ("engine.states_per_s", "1/s", false),
    ("states", "count", true),
    ("transitions", "count", true),
    ("dedup.fresh_ratio", "ratio", true),
    ("frontier.idle_s", "s", false),
    ("frontier.steals", "count", false),
    ("corpus.naive_s", "s", false),
    ("naive.certify.busy_s", "s", true),
    ("naive.cert_hit_ratio", "ratio", true),
    ("corpus.promising_s", "s", false),
    ("corpus.flat_s", "s", false),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let pins = match load_pins() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut bench) = build(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };

    // Set-up: building the rows' programs and machines, or the whole
    // corpus. The first build above warms the allocator and the code.
    let mut setup = vec![time_setup(&args.workload, &mut bench)];

    // Passes until the measuring time is used up: untraced only, or
    // untraced and traced alternating (at least one of each).
    let budget = Duration::from_secs_f64(args.seconds);
    let begun = Instant::now();
    // Only a summary of each pass is kept once it is checked; keeping
    // the passes would make peak memory grow with the pass count.
    let mut passes: Vec<Summary> = Vec::new();
    let mut per_search: BTreeMap<(usize, Strategy), Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed, mut longest) = (0u64, 0u64, Duration::ZERO);
    loop {
        let traced = args.trace && !passes.len().is_multiple_of(2);
        let order = shuffled(bench.items.len(), args.seed, passes.len() as u64);
        let pass = run_pass(&bench, &order, traced);
        attempted += pass.searches.len() as u64;
        failed += check_pass(&bench, &pins, &pass);
        if !traced {
            for s in &pass.searches {
                let took = s.took.as_secs_f64() * 1e6;
                per_search
                    .entry((s.item, s.strategy))
                    .or_default()
                    .push(took);
            }
        }
        let wall = pass.wall.as_secs_f64();
        eprintln!(
            "pass {}{}: {wall:.4} s",
            passes.len(),
            if traced { " (traced)" } else { "" },
        );
        passes.push(Summary {
            traced,
            wall,
            layer: layer_values(&bench, &pass),
        });
        longest = longest.max(pass.wall);
        drop(pass);
        setup.push(time_setup(&args.workload, &mut bench));
        // A traced run stops only after a traced pass, so it always
        // holds pairs, and budgets for a whole pair.
        let (pair_done, next) = if args.trace {
            (passes.len().is_multiple_of(2), 2 * longest)
        } else {
            (true, longest)
        };
        if pair_done && begun.elapsed() + next > budget {
            break;
        }
    }

    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall)
            .collect()
    };
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let layer = |traced: bool| -> Vec<&BTreeMap<&'static str, f64>> {
            passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| &p.layer)
                .collect()
        };
        let (plain, with_hooks) = (layer(false), layer(true));
        for &(name, unit, from_traced) in LAYER_METRICS {
            let src = if from_traced { &with_hooks } else { &plain };
            let xs: Vec<f64> = src
                .iter()
                .map(|v| v.get(name).copied().unwrap_or(0.0))
                .collect();
            metrics.push((name, median(&xs), unit));
        }
        let overhead = median(&walls(true)) / median(&walls(false)) - 1.0;
        metrics.push(("trace.overhead_frac", overhead, "ratio"));
        print_shares(&with_hooks);
    } else {
        // Time to verdict of each search is its mean over the passes,
        // and the percentiles are taken over searches, so the rank cannot
        // fall between two passes of different rows. Times are means, not
        // medians: the host's speed wanders between a fast and a slow
        // level from one pass to the next, and a median of a few passes
        // jumps from one level to the other where a mean moves smoothly.
        let verdicts: Vec<f64> = per_search.values().map(|xs| mean(xs)).collect();
        metrics.push(("wall_s", mean(&walls(false)), "s"));
        metrics.push(("setup_s", mean(&setup), "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
        // The median over searches: on a table of four rows, the mean of
        // the middle two rather than one row's time.
        metrics.push(("verdict_p50_us", median(&verdicts), "us"));
        metrics.push(("verdict_p99_us", percentile(&verdicts, 99.0), "us"));
    }

    println!(
        "{}: {} passes, {} searches, {} failed (seed {})",
        bench.name,
        passes.len(),
        attempted,
        failed,
        args.seed
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>14.6} {unit}");
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print each layer's share of the traced passes' engine time (the sum
/// of the searches' `cpu_time`); the rest is hooks no metric names.
fn print_shares(traced: &[&BTreeMap<&'static str, f64>]) {
    let med = |n: &str| {
        let xs: Vec<f64> = traced
            .iter()
            .map(|v| v.get(n).copied().unwrap_or(0.0))
            .collect();
        median(&xs)
    };
    let total = med("cpu_s");
    println!("traced split of {total:.4} s engine time per pass:");
    let mut named = 0.0;
    for (n, _, _) in LAYER_METRICS
        .iter()
        .filter(|m| m.0.ends_with("busy_s") || m.0 == "engine.self_s")
    {
        let x = med(n);
        named += x;
        if x > 0.0 {
            println!("  {n:<26} {:>6.2}%", 100.0 * x / total);
        }
    }
    println!(
        "  {:<26} {:>6.2}%",
        "other hooks",
        100.0 * (total - named) / total
    );
}
