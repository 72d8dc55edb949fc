//! A minimal, offline stand-in for the [`criterion`] benchmarking crate.
//!
//! The build environment cannot fetch crates from a registry, so the
//! workspace points the `criterion` dependency at this shim. It implements
//! just the subset of the API the `crates/bench/benches/*.rs` files use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros — with a simple best-of-N wall-clock measurement instead of
//! criterion's statistical machinery.
//!
//! Knobs (environment variables):
//!
//! * `BENCH_SAMPLES` — measurement samples per benchmark (default 5;
//!   the configured `sample_size` is capped to this).
//! * `BENCH_FILTER` — substring filter on benchmark ids.
//!
//! [`criterion`]: https://docs.rs/criterion

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`], mirroring criterion's helper.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

fn env_samples() -> usize {
    std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

fn env_filter() -> Option<String> {
    std::env::var("BENCH_FILTER").ok().filter(|s| !s.is_empty())
}

/// The benchmark driver handed to `criterion_group!` functions.
#[derive(Debug)]
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            filter: env_filter(),
        }
    }
}

impl Criterion {
    fn skip(&self, id: &str) -> bool {
        match &self.filter {
            Some(f) => !id.contains(f.as_str()),
            None => false,
        }
    }

    /// Run a single benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_one(self, id, env_samples(), f);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: env_samples(),
        }
    }
}

fn run_one<F>(c: &Criterion, id: &str, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if c.skip(id) {
        return;
    }
    let mut best: Option<Duration> = None;
    let samples = samples.clamp(1, env_samples().max(1));
    for _ in 0..samples {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        if b.iters > 0 {
            let per_iter = b.elapsed / b.iters;
            best = Some(best.map_or(per_iter, |p| p.min(per_iter)));
        }
    }
    match best {
        Some(d) => println!("bench {id:<50} {:>12.3} ms/iter", d.as_secs_f64() * 1e3),
        None => println!("bench {id:<50} (no samples)"),
    }
}

/// A group of related benchmarks (criterion's `BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of measurement samples (capped by `BENCH_SAMPLES`).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{id}", self.name);
        let samples = self.sample_size;
        run_one(self.criterion, &full, samples, f);
        self
    }

    /// Close the group (no-op in the shim).
    pub fn finish(self) {}
}

/// The per-benchmark timing handle (criterion's `Bencher`).
pub struct Bencher {
    elapsed: Duration,
    iters: u32,
}

impl Bencher {
    /// Time the routine. The shim runs it once per sample (the routines in
    /// this workspace are exhaustive explorations, far above timer
    /// resolution).
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        black_box(routine());
        self.elapsed += start.elapsed();
        self.iters += 1;
    }
}

/// Declare a group-runner function over benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate a `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine() {
        let mut c = Criterion::default();
        let mut ran = 0;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("inner", |b| b.iter(|| 40 + 2));
        group.finish();
    }
}
