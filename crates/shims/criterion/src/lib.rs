//! Offline drop-in replacement for the subset of the `criterion` API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so `cargo bench`
//! targets link against this minimal harness instead: it times each
//! benchmark over `sample_size` samples (after one untimed warm-up pass)
//! and prints min/median/max/mean wall time.
//! When the binary is invoked without `--bench` (as `cargo test` does for
//! harness-less bench targets), it exits immediately so benches never slow
//! down the test suite.
//!
//! Machine-readable output: when the `CRITERION_JSON` environment variable
//! names a file, one JSON line per benchmark is appended to it —
//! `{"id": ..., "samples": N, "min_ns": ..., "median_ns": ...,
//! "max_ns": ..., "mean_ns": ...}` — so perf harnesses can consume bench
//! results without scraping the human-readable table.

use std::time::{Duration, Instant};

/// Summary statistics over the timed (warm-up-excluded) samples of one
/// benchmark, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleStats {
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: u128,
    /// Median sample (mean of the two middle samples when even).
    pub median_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
    /// Mean sample.
    pub mean_ns: u128,
}

/// Computes [`SampleStats`] for a non-empty set of timed samples.
pub fn summarize(results: &[Duration]) -> SampleStats {
    assert!(
        !results.is_empty(),
        "summarize requires at least one sample"
    );
    let mut ns: Vec<u128> = results.iter().map(Duration::as_nanos).collect();
    ns.sort_unstable();
    let n = ns.len();
    let median_ns = if n % 2 == 1 {
        ns[n / 2]
    } else {
        (ns[n / 2 - 1] + ns[n / 2]) / 2
    };
    SampleStats {
        samples: n,
        min_ns: ns[0],
        median_ns,
        max_ns: ns[n - 1],
        mean_ns: ns.iter().sum::<u128>() / n as u128,
    }
}

/// Renders one machine-readable JSON line for a benchmark result.
pub fn json_line(id: &str, stats: &SampleStats) -> String {
    let escaped: String = id
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    format!(
        "{{\"id\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}}}",
        escaped, stats.samples, stats.min_ns, stats.median_ns, stats.max_ns, stats.mean_ns
    )
}

/// Identifier for a parameterized benchmark.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Identifier that is just the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Passed to benchmark closures; runs and times the measured routine.
pub struct Bencher {
    samples: usize,
    results: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` over the configured number of samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed warm-up pass.
        std::hint::black_box(routine());
        self.results.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.results.push(start.elapsed());
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs `f` as the benchmark `id` within this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        self.criterion.run_one(&full, self.sample_size, f);
        self
    }

    /// Runs `f` with a borrowed input as the benchmark `id`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        self.criterion
            .run_one(&full, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (no-op; provided for API compatibility).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Runs `f` as a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run_one(id, 20, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: &str, samples: usize, mut f: F) {
        let mut bencher = Bencher {
            samples,
            results: Vec::new(),
        };
        f(&mut bencher);
        if bencher.results.is_empty() {
            println!("{:<40} (no measurement)", id);
            return;
        }
        let stats = summarize(&bencher.results);
        println!(
            "{:<40} min {:>12?}  median {:>12?}  max {:>12?}  mean {:>12?}  ({} samples)",
            id,
            Duration::from_nanos(stats.min_ns as u64),
            Duration::from_nanos(stats.median_ns as u64),
            Duration::from_nanos(stats.max_ns as u64),
            Duration::from_nanos(stats.mean_ns as u64),
            stats.samples,
        );
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            if !path.is_empty() {
                use std::io::Write as _;
                let line = json_line(id, &stats);
                match std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                {
                    Ok(mut f) => {
                        if let Err(e) = writeln!(f, "{}", line) {
                            eprintln!("criterion shim: writing {}: {}", path, e);
                        }
                    }
                    Err(e) => eprintln!("criterion shim: opening {}: {}", path, e),
                }
            }
        }
    }
}

/// Opaque value preventing the optimizer from discarding `x`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Collects benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Entry point: runs the groups under `cargo bench`, exits immediately
/// when invoked without `--bench` (e.g. by `cargo test`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            if !std::env::args().any(|a| a == "--bench") {
                // `cargo test` executes harness-less bench binaries with no
                // `--bench` flag; skip so benches never slow the test suite.
                return;
            }
            let mut criterion = $crate::Criterion::default();
            $( $group(&mut criterion); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        let mut runs = 0usize;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        group.finish();
        // 1 warm-up + 3 timed samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 8).to_string(), "f/8");
        assert_eq!(BenchmarkId::from_parameter(8).to_string(), "8");
    }

    #[test]
    fn summarize_orders_and_takes_the_median() {
        let samples: Vec<Duration> = [30u64, 10, 20, 40, 50]
            .iter()
            .map(|&n| Duration::from_nanos(n))
            .collect();
        let stats = summarize(&samples);
        assert_eq!(stats.samples, 5);
        assert_eq!(stats.min_ns, 10);
        assert_eq!(stats.median_ns, 30);
        assert_eq!(stats.max_ns, 50);
        assert_eq!(stats.mean_ns, 30);
    }

    #[test]
    fn summarize_even_count_averages_middle_pair() {
        let samples: Vec<Duration> = [10u64, 20, 30, 100]
            .iter()
            .map(|&n| Duration::from_nanos(n))
            .collect();
        let stats = summarize(&samples);
        assert_eq!(stats.median_ns, 25);
        assert_eq!(stats.mean_ns, 40);
    }

    #[test]
    fn json_line_is_parseable_shape() {
        let stats = SampleStats {
            samples: 3,
            min_ns: 1,
            median_ns: 2,
            max_ns: 9,
            mean_ns: 4,
        };
        let line = json_line("group/bench \"x\"", &stats);
        assert_eq!(
            line,
            "{\"id\": \"group/bench \\\"x\\\"\", \"samples\": 3, \"min_ns\": 1, \
             \"median_ns\": 2, \"max_ns\": 9, \"mean_ns\": 4}"
        );
    }

    #[test]
    fn json_env_appends_one_line_per_benchmark() {
        let path =
            std::env::temp_dir().join(format!("criterion_shim_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("CRITERION_JSON", &path);
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("a", |b| b.iter(|| 1 + 1));
        group.bench_function("b", |b| b.iter(|| 2 + 2));
        group.finish();
        std::env::remove_var("CRITERION_JSON");
        let content = std::fs::read_to_string(&path).expect("json lines file");
        let _ = std::fs::remove_file(&path);
        // Other tests running concurrently may also emit lines while the
        // env var is set; assert only on this test's benchmarks.
        let a: Vec<&str> = content
            .lines()
            .filter(|l| l.contains("\"id\": \"g/a\""))
            .collect();
        let b: Vec<&str> = content
            .lines()
            .filter(|l| l.contains("\"id\": \"g/b\""))
            .collect();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!(a[0].contains("\"median_ns\": "));
        assert!(a[0].contains("\"samples\": 2"));
    }
}
