//! Offline stand-in for `criterion`.
//!
//! Runs each benchmark a fixed number of samples with `std::time::Instant`
//! and prints min/mean timings — enough to compare experiment variants
//! and keep every `benches/` target compiling and runnable offline. No
//! statistical analysis, plots, or baselines; swap the workspace path
//! dependency back to upstream criterion for publication-grade numbers.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver handed to each `criterion_group!` function.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n== group: {name} ==");
        BenchmarkGroup { _c: self, sample_size: 10 }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&id.to_string(), 10, &mut f);
        self
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    sample_size: usize,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the throughput unit for subsequent benchmarks
    /// (recorded for display only under the shim).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        match t {
            Throughput::Elements(n) => println!("   throughput: {n} elements/iter"),
            Throughput::Bytes(n) => println!("   throughput: {n} bytes/iter"),
        }
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&id.to_string(), self.sample_size, &mut f);
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = id.to_string();
        run_bench(&label, self.sample_size, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Ends the group (printing is incremental, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// Identifier combining a benchmark name and a parameter value.
pub struct BenchmarkId {
    name: String,
    parameter: String,
}

impl BenchmarkId {
    /// A `name/parameter` id.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId { name: name.to_string(), parameter: parameter.to_string() }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { name: String::new(), parameter: parameter.to_string() }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.name.is_empty() {
            write!(f, "{}", self.parameter)
        } else {
            write!(f, "{}/{}", self.name, self.parameter)
        }
    }
}

/// Throughput annotation for a benchmark.
pub enum Throughput {
    /// Items processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Timing harness passed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    per_sample: usize,
}

impl Bencher {
    /// Times `routine`, one or more calls per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up call, also used to size the per-sample batch so very
        // fast routines aren't dominated by timer resolution.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed();
        let batch = if once < Duration::from_micros(5) { 100 } else { 1 };
        self.per_sample = batch;
        for _ in 0..self.samples.capacity() {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(start.elapsed());
        }
    }

    /// Lets `routine` time itself: it is asked for `iters` iterations
    /// and returns how long they took, set-up excluded (upstream's
    /// `iter_custom`). One iteration per sample here.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        self.per_sample = 1;
        for _ in 0..self.samples.capacity() {
            self.samples.push(routine(1));
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, f: &mut F) {
    let mut b = Bencher { samples: Vec::with_capacity(sample_size), per_sample: 1 };
    f(&mut b);
    if b.samples.is_empty() {
        println!("   {label}: (no samples)");
        return;
    }
    let per = b.per_sample as u32;
    let min = b.samples.iter().min().unwrap();
    let total: Duration = b.samples.iter().sum();
    let mean = total / (b.samples.len() as u32 * per);
    println!("   {label}: mean {:?}  min {:?}  ({} samples)", mean, *min / per, b.samples.len());
}

/// Declares a function running a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a benchmark binary (`harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
