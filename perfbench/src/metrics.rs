//! Turning windows, telemetry and replay spans into named metrics, and
//! printing them: one line per metric, the provenance block, then the
//! result object as the last line.

use std::collections::BTreeMap;
use std::process::Command;

use bcc_client::WireOutcome;
use bcc_core::config::EngineConfig;
use bcc_core::telemetry::{HistogramSnapshot, MetricsSnapshot};
use serde::Serialize;

use crate::drive::{Spans, Window};
use crate::replay::Replayer;

/// One reported metric.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    metrics: Vec<Metric>,
    attempted: usize,
}

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&mut self, window: &Window, setups: &[f64], peak_rss_kib: u64) {
        self.attempted = window.samples.len();
        let latencies_ms: Vec<f64> = window
            .replies()
            .map(|(s, _)| s.latency_ns as f64 / 1e6)
            .collect();
        let n = latencies_ms.len();
        self.push(
            "throughput_rps",
            n as f64 / window.wall.as_secs_f64(),
            "req/s",
            n,
        );
        self.push("latency_p50_ms", percentile(&latencies_ms, 0.5), "ms", n);
        self.push("latency_p90_ms", percentile(&latencies_ms, 0.9), "ms", n);
        let rounds: Vec<f64> = window
            .replies()
            .map(|(_, o)| o.report.total_rounds as f64)
            .collect();
        self.push("rounds_per_request", mean(&rounds), "rounds", n);
        self.push("setup_s", percentile(setups, 0.5), "s", setups.len());
        self.push("peak_rss_mb", peak_rss_kib as f64 / 1024.0, "MiB", 1);
    }

    /// The per-layer metrics of a traced run: `plain` and `traced` are the
    /// untraced and traced half-windows, `before` / `after` the daemon's
    /// telemetry around the traced one.
    #[allow(clippy::too_many_arguments)]
    pub fn per_layer(
        &mut self,
        plain: &Window,
        traced: &Window,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        connects_ns: &[u64],
        replay: &Replayer,
        replies: &[&WireOutcome],
    ) {
        self.attempted = plain.samples.len() + traced.samples.len();
        let spans: Vec<Spans> = traced.samples.iter().filter_map(|s| s.spans).collect();
        let field =
            |f: fn(&Spans) -> u64| -> Vec<f64> { spans.iter().map(|s| f(s) as f64).collect() };
        let n = spans.len();
        self.push(
            "wire.request_bytes",
            mean(&field(|s| s.request_bytes)),
            "bytes",
            n,
        );
        self.push(
            "wire.reply_bytes",
            mean(&field(|s| s.reply_bytes)),
            "bytes",
            n,
        );
        self.push(
            "wire.encode_ns",
            percentile(&field(|s| s.encode_ns), 0.5),
            "ns",
            n,
        );
        self.push(
            "wire.decode_ns",
            percentile(&field(|s| s.decode_ns), 0.5),
            "ns",
            n,
        );

        let connects = as_f64(connects_ns);
        self.push(
            "served.connect_ns",
            percentile(&connects, 0.5),
            "ns",
            connects.len(),
        );
        let round_trips: Vec<f64> = traced.replies().map(|(s, _)| s.latency_ns as f64).collect();
        let wait = delta("stream.queue_wait_ns", before, after);
        let service = delta("stream.service_ns", before, after);
        self.push(
            "served.round_trip_ns",
            mean(&round_trips),
            "ns",
            round_trips.len(),
        );
        self.push(
            "served.submit_ns",
            percentile(&field(|s| s.submit_ns), 0.5),
            "ns",
            n,
        );
        self.push(
            "served.overhead_ns",
            mean(&round_trips) - wait.mean() - service.mean(),
            "ns",
            round_trips.len(),
        );
        self.push(
            "stream.queue_wait_p50_ns",
            wait.percentile(0.5),
            "ns",
            wait.count(),
        );
        self.push(
            "stream.queue_wait_p90_ns",
            wait.percentile(0.9),
            "ns",
            wait.count(),
        );
        self.push(
            "stream.service_p50_ns",
            service.percentile(0.5),
            "ns",
            service.count(),
        );

        // The cache's lifetime counters, warm-up included.
        let hits = after.counter("cache.hits");
        let lookups = hits + after.counter("cache.misses");
        self.push(
            "cache.hit_ratio",
            ratio(hits as f64, lookups as f64),
            "ratio",
            lookups as usize,
        );
        self.push(
            "cache.evictions",
            after.counter("cache.evictions") as f64,
            "count",
            1,
        );
        self.push(
            "cache.entries",
            after.gauge("cache.entries") as f64,
            "count",
            1,
        );

        let l = &replay.layers;
        self.median("graph.fingerprint_ns", &l.fingerprint_ns);
        self.median("spanner.ns", &l.spanner_ns);
        self.median("sparsifier.ns", &l.sparsifier_ns);
        self.median("sparsifier.kappa_ns", &l.kappa_ns);
        self.median("linalg.factor_ns", &l.factor_ns);
        self.median("laplacian.preprocess_ns", &l.preprocess_ns);
        self.median("laplacian.solve_ns", &l.solve_ns);
        let iterations = as_f64(&l.solve_iterations);
        self.push(
            "laplacian.solve_iterations",
            mean(&iterations),
            "iterations",
            iterations.len(),
        );

        // Means, so that `lp.gram_ns + lp.self_ns = lp.solve_ns` exactly.
        let lp_solve = as_f64(&l.lp_solve_ns);
        let gram = as_f64(&l.gram_ns);
        let k = lp_solve.len();
        self.push("lp.solve_ns", mean(&lp_solve), "ns", k);
        self.push("lp.gram_ns", mean(&gram), "ns", k);
        self.push("lp.self_ns", mean(&lp_solve) - mean(&gram), "ns", k);
        self.push("lp.gram_calls", mean(&as_f64(&l.gram_calls)), "count", k);
        let calls: u64 = l.gram_calls.iter().sum();
        let distinct: u64 = l.gram_distinct.iter().sum();
        self.push(
            "lp.gram_distinct_ratio",
            ratio(distinct as f64, calls as f64),
            "ratio",
            calls as usize,
        );
        self.push(
            "lp.path_iterations",
            mean(&as_f64(&l.path_iterations)),
            "iterations",
            k,
        );
        self.push("flow.lp_build_ns", mean(&as_f64(&l.lp_build_ns)), "ns", k);

        // Laplacian replies carry only the solve; their preprocessing runs
        // come from the replay, which the identity check ties to `Session`.
        // The sparsifier's rounds are those of whole sparsifier runs: its
        // spanner calls open their own ledger phase inside it.
        let sparsifier_runs: Vec<_> = replies
            .iter()
            .map(|o| &o.report)
            .chain(&l.preprocessing)
            .filter(|r| r.has_phase("sparsifier"))
            .collect();
        let reports: Vec<_> = replies.iter().map(|o| &o.report).collect();
        self.phase("rounds.spanner", "spanner", &sparsifier_runs);
        let totals: Vec<f64> = sparsifier_runs
            .iter()
            .map(|r| r.total_rounds as f64)
            .collect();
        self.push("rounds.sparsifier", mean(&totals), "rounds", totals.len());
        self.phase("rounds.laplacian_solve", "laplacian solve", &reports);
        self.phase("rounds.sdd_solve", "sdd solve (gremban)", &reports);
        self.phase("rounds.leverage_scores", "leverage scores", &reports);
        self.phase("rounds.path_following", "path following", &reports);

        let p50 = |w: &Window| {
            let ms: Vec<f64> = w.replies().map(|(s, _)| s.latency_ns as f64).collect();
            percentile(&ms, 0.5)
        };
        let rps = |w: &Window| w.replies().count() as f64 / w.wall.as_secs_f64();
        self.push(
            "trace.overhead_p50",
            ratio(p50(traced), p50(plain)),
            "ratio",
            traced.samples.len(),
        );
        self.push(
            "trace.overhead_rps",
            ratio(rps(plain), rps(traced)),
            "ratio",
            traced.samples.len(),
        );
    }

    fn median(&mut self, name: &'static str, values: &[u64]) {
        self.push(name, percentile(&as_f64(values), 0.5), "ns", values.len());
    }

    /// Mean rounds of `phase` over the reports that contain it (0 when
    /// none does).
    fn phase(&mut self, name: &'static str, phase: &str, reports: &[&bcc_core::RoundReport]) {
        let rounds: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.phase(phase).map(|p| p.rounds as f64))
            .collect();
        self.push(name, mean(&rounds), "rounds", rounds.len());
    }

    /// Counts `requests` more attempted requests (the warm-up's).
    pub fn count_attempts(&mut self, requests: usize) {
        self.attempted += requests;
    }

    /// Prints every metric, the provenance block and the result line.
    pub fn print(&self, provenance: Provenance, failures: &[String]) -> Result<(), String> {
        for failure in failures.iter().take(20) {
            eprintln!("perfbench: FAILED {failure}");
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", m.name));
            }
            println!(
                "{:<28} {:>18.4} {:<10} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let attempted = self.attempted.max(1);
        println!(
            "{:<28} {:>18.4} {:<10} n={}",
            "error_rate",
            failures.len() as f64 / attempted as f64,
            "ratio",
            attempted
        );
        println!(
            "{}",
            json_line(&ProvenanceLine {
                provenance,
                samples: self
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.samples))
                    .collect(),
            })?
        );
        println!(
            "{}",
            json_line(&RunResult {
                correct: failures.is_empty(),
                attempted,
                failed: failures.len(),
                metrics: self
                    .metrics
                    .iter()
                    .map(|m| {
                        let reading = Reading {
                            value: m.value,
                            unit: m.unit.to_string(),
                        };
                        (m.name.to_string(), reading)
                    })
                    .collect(),
            })?
        );
        Ok(())
    }
}

/// Where and how a result was measured.
#[derive(Debug, Serialize)]
pub struct Provenance {
    git_commit: String,
    rustc: String,
    nproc: usize,
    cpu_model: String,
    workload: String,
    seed: u64,
    seconds: f64,
    daemon_config: EngineConfig,
}

/// The line before the result: provenance and per-metric sample counts.
#[derive(Serialize)]
struct ProvenanceLine {
    provenance: Provenance,
    samples: BTreeMap<String, usize>,
}

/// The result object, the last line of standard output.
#[derive(Serialize)]
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, Reading>,
}

#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: String,
}

/// `value` as one line of JSON.
fn json_line<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| format!("cannot encode the result: {e}"))
}

/// The provenance block of a run.
pub fn provenance(workload: &str, seed: u64, seconds: f64, config: &EngineConfig) -> Provenance {
    // The benchmark runs from the repository root; a checkout without
    // `.git` has no commit to report (and must not report an enclosing one).
    let git_commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Provenance {
        git_commit,
        rustc: command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        nproc: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(0),
        cpu_model,
        workload: workload.to_string(),
        seed,
        seconds,
        daemon_config: config.clone(),
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The samples a histogram gained between two snapshots.
struct HistogramDelta {
    /// `(low_ns, count)` per non-empty bucket, ascending.
    buckets: Vec<(u64, u64)>,
    sum_ns: u64,
}

fn delta(name: &str, before: &MetricsSnapshot, after: &MetricsSnapshot) -> HistogramDelta {
    let empty = HistogramSnapshot {
        name: name.to_string(),
        count: 0,
        sum_ns: 0,
        buckets: Vec::new(),
    };
    let old = before.histogram(name).unwrap_or(&empty);
    let new = after.histogram(name).unwrap_or(&empty);
    let buckets = new
        .buckets
        .iter()
        .map(|b| {
            let prior = old
                .buckets
                .iter()
                .find(|o| o.low_ns == b.low_ns)
                .map_or(0, |o| o.count);
            (b.low_ns, b.count - prior)
        })
        .filter(|&(_, count)| count > 0)
        .collect();
    HistogramDelta {
        buckets,
        sum_ns: new.sum_ns - old.sum_ns,
    }
}

impl HistogramDelta {
    fn count(&self) -> usize {
        self.buckets.iter().map(|&(_, c)| c as usize).sum()
    }

    fn mean(&self) -> f64 {
        ratio(self.sum_ns as f64, self.count() as f64)
    }

    /// The `q`-quantile, interpolated linearly by rank inside its
    /// `[low, 2·low)` bucket.
    fn percentile(&self, q: f64) -> f64 {
        let rank = q * self.count() as f64;
        let mut below = 0.0;
        for &(low, count) in &self.buckets {
            let count = count as f64;
            if below + count >= rank {
                let width = if low == 0 { 0.0 } else { low as f64 };
                return low as f64 + width * (rank - below) / count;
            }
            below += count;
        }
        0.0
    }
}

/// Linearly interpolated quantile (0 for no samples).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn as_f64(values: &[u64]) -> Vec<f64> {
    values.iter().map(|&v| v as f64).collect()
}
