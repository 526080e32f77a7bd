//! Metric definitions, correctness tallies, fingerprints and the result
//! line the benchmark prints last.

use menda_core::PuStats;
use menda_dram::{fnv1a, Encoder};

/// An end-to-end metric: what a user of the simulator or the daemon sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

/// Every end-to-end metric, printed on every workload with tracing off.
/// On the batch workloads an operation is one kernel call on one matrix;
/// on `serve` it is one daemon job. Batch times are in reference seconds
/// (see [`crate::host`]); `serve` times are host seconds.
pub const END_TO_END: [EndToEnd; 6] = [
    // Σ simulated device cycles ÷ Σ seconds inside the kernel calls, each
    // matrix's fastest call (batch); on serve, the cycles the daemon
    // delivered ÷ wall time of the load phase.
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
    },
    // Completed operations ÷ seconds spent running them (batch: the same
    // kernel seconds; serve: wall time of the load phase).
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
    },
    // Per-operation latency (batch: over every kernel call; serve: submit
    // line written → result line read, every job). The tail
    // is p95, not p90: on serve the latencies fall in two modes, about 44
    // and 88 ms (one or two delayed-ACK waits), and the share in the upper
    // mode moves between about 9% and 25% from run to run, so p90 jumps
    // between the modes while p95 stays inside the upper one.
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
    },
    // Median of set-ups repeated across the run: matrix generation
    // (batch), server bind plus job-mix construction (serve).
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    // Host memory high-water mark of the benchmark process.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
    },
];

/// A per-layer metric of the traced run, with the end-to-end metric and
/// workload it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: &'static str,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const EXACT: &str = "none: an exact simulated count that a simulator-speed change must not move";

/// Appends to a "moves" string on serve's latency or throughput: both sit
/// on a floor the layer cannot move until the floor is gone, so "no
/// change" there is not a null result.
macro_rules! masked {
    ($moves:literal) => {
        concat!(
            $moves,
            "; masked while serve's latency sits on the ~40 ms Nagle/delayed-ACK floor (the daemon's replies go out without TCP_NODELAY)"
        )
    };
}

/// Every per-layer metric, printed on every workload by the traced run.
/// Each is measured on the workload's own operations.
pub const PER_LAYER: [PerLayer; 41] = [
    layer("sparse.gen_s", "s", "lower", masked!("setup_s on every workload; its share of latency_p50_ms on serve")),
    layer("sparse.partition_s", "s", "lower", "predicted none: under 1% of a transpose call, so sim_cycles_per_s on transpose should not move"),
    layer("engine.pu_host_s", "s", "lower", "sim_cycles_per_s on transpose"),
    layer("engine.overhead_s", "s", "lower", "sim_cycles_per_s on transpose"),
    layer("engine.pu_imbalance", "ratio", "lower", "sim_cycles_per_s on transpose (the slowest PU sets the wall time at 2 threads)"),
    layer("engine.parallel_speedup", "ratio", "higher", "sim_cycles_per_s on transpose; predicted no change on spmv (1 engine thread); below 1 at the baseline"),
    layer("pu.sim_cycles", "cycles", "lower", EXACT),
    layer("pu.iterations", "count", "lower", EXACT),
    layer("pu.nz_emitted", "count", "lower", EXACT),
    layer("pu.loads_issued", "count", "lower", EXACT),
    layer("pu.loads_coalesced", "count", "higher", EXACT),
    layer("pu.stores_issued", "count", "lower", EXACT),
    layer("pu.root_stall_cycles", "cycles", "lower", EXACT),
    layer("pu.output_stall_cycles", "cycles", "lower", EXACT),
    layer("pu.prefetch.hits", "count", "higher", EXACT),
    layer("pu.prefetch.misses", "count", "lower", EXACT),
    layer("pu.coalesce_ratio", "ratio", "higher", EXACT),
    layer("pu.prefetch_hit_ratio", "ratio", "higher", EXACT),
    layer("pu.host_ns_per_cycle", "ns/cycle", "lower", "sim_cycles_per_s on transpose and spmv"),
    layer("dram.reads", "count", "lower", EXACT),
    layer("dram.writes", "count", "lower", EXACT),
    layer("dram.row_hits", "count", "higher", EXACT),
    layer("dram.row_misses", "count", "lower", EXACT),
    layer("dram.row_conflicts", "count", "lower", EXACT),
    layer("dram.row_hit_ratio", "ratio", "higher", EXACT),
    layer("dram.sched.activate", "count", "lower", EXACT),
    layer("dram.sched.precharge", "count", "lower", EXACT),
    layer("dram.refreshes", "count", "lower", EXACT),
    layer("dram.host_ns_per_txn", "ns/txn", "lower", "sim_cycles_per_s: spmv (mostly reads) against transpose (reads and writes)"),
    layer("jobspec.execute_ms", "ms", "lower", masked!("latency_p50_ms and jobs_per_s on serve")),
    layer("jobspec.gen_ms", "ms", "lower", "its share of jobspec.execute_ms"),
    layer("jobspec.encode_us", "us", "lower", masked!("latency_p50_ms on serve")),
    layer("jobspec.parse_us", "us", "lower", masked!("latency_p50_ms on serve")),
    layer("server.admit_ms", "ms", "lower", masked!("latency_p50_ms on serve")),
    layer("server.queue_wait_ms", "ms", "lower", masked!("latency_p95_ms on serve")),
    layer("server.run_ms", "ms", "lower", masked!("jobs_per_s on serve")),
    layer("server.overhead_ms", "ms", "lower", masked!("jobs_per_s on serve")),
    layer("server.retries", "ratio", "lower", masked!("error_rate and the latency metrics on serve")),
    layer("trace.counting_overhead", "ratio", "lower", "none directly: guards that observability stays near-zero cost"),
    layer("bench.trace_overhead", "ratio", "lower", "none: the cost of this benchmark's own spans"),
    layer("error_rate", "fraction", "lower", "every workload: failed operations ÷ attempted operations"),
];

/// Named metric values in print order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Counts attempted and failed operations. An operation fails when any
/// of its checks fails; the first few failures are kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 16 {
                self.problems.push(what());
            }
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The value at quantile `q` of `values` by nearest rank (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The smallest of `values` (0 when empty): the fastest of repeated
/// timings.
pub fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// A fingerprint of a workload's simulated statistics: Σ device cycles
/// plus an FNV-1a digest of the per-PU statistics in operation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Σ simulated device cycles.
    pub cycles: u64,
    /// FNV-1a digest of the serialized per-PU statistics.
    pub digest: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycles={} digest={:016x}", self.cycles, self.digest)
    }
}

/// Accumulates a [`Fingerprint`] one operation at a time.
#[derive(Debug, Default)]
pub struct FingerprintBuilder {
    cycles: u64,
    bytes: Encoder,
}

impl FingerprintBuilder {
    /// Adds one operation's device cycles and per-PU statistics.
    pub fn add_stats(&mut self, cycles: u64, pu_stats: &[PuStats]) {
        self.cycles += cycles;
        for s in pu_stats {
            for it in &s.iterations {
                for v in [
                    it.cycles,
                    it.nz_emitted,
                    it.rounds,
                    it.loads_issued,
                    it.loads_coalesced,
                    it.stores_issued,
                    it.root_stall_cycles,
                    it.output_stall_cycles,
                    it.dram_row_hits,
                    it.dram_row_misses,
                    it.dram_row_conflicts,
                ] {
                    self.bytes.u64(v);
                }
            }
            s.dram.save_state(&mut self.bytes);
        }
    }

    /// Adds one operation's device cycles and an already serialized
    /// per-PU summary (the daemon's outcome JSON).
    pub fn add_serialized(&mut self, cycles: u64, summary: &[u8]) {
        self.cycles += cycles;
        self.bytes.bytes(summary);
    }

    /// The fingerprint so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint {
            cycles: self.cycles,
            digest: fnv1a(self.bytes.as_bytes()),
        }
    }
}

/// The last line of the benchmark's output.
pub fn result_line(
    tally: &Tally,
    metrics: &[(&'static str, f64)],
    unit_of: impl Fn(&str) -> &'static str,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            // JSON has no NaN or infinity; a metric without a defined
            // value is reported as 0 and shows up as a broken run.
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Unit of an end-to-end metric.
pub fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .expect("every reported end-to-end metric is listed in END_TO_END")
}

/// Unit of a per-layer metric.
pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .expect("every reported per-layer metric is listed in PER_LAYER")
}

/// Host memory high-water mark of this process in MiB (Linux `VmHWM`;
/// 0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
