//! The batch workloads, `transpose` and `spmv`: the Table 4 stand-ins
//! through the simulator library, timed per kernel call.

use std::time::{Duration, Instant};

use menda_core::{JobSpec, MendaBackend, TraceConfig};

use crate::host::{RefClock, Timed, NOMINAL_S};
use crate::ops::{self, Op, Output};
use crate::report::{fastest, median, peak_rss_mb, quantile, FingerprintBuilder, Tally};
use crate::{Measured, Settings};

/// Passes a run makes at least, however short `--seconds` is: the
/// statistics fingerprint is compared between passes.
const MIN_PASSES: usize = 2;

/// Records one kernel call: it fails when its output differs from the
/// golden.
fn check_output(tally: &mut Tally, op: &Op, output: &Output, golden: &Output) {
    tally.record(output.agrees_with(golden), || {
        format!("{}: output differs from the golden", ops::label(&op.spec))
    });
}

/// Runs a batch workload with tracing off. It makes whole passes while
/// another pass fits in `settings.seconds` (and at least [`MIN_PASSES`]).
/// A pass generates every input (set-up), then runs the kernel on each
/// matrix, checking every output against its golden and the pass's
/// statistics fingerprint against the first pass's.
///
/// Every call and set-up is timed in reference seconds (see
/// [`crate::host`]). The kernel seconds take each matrix's fastest call:
/// interference only ever slows a call down, so the fastest of samples
/// spread over the run is the steadiest estimate of the program's own
/// cost. The latencies are over every call, and `setup_s` is the median
/// set-up.
pub fn run(specs: &[JobSpec], threads: usize, settings: &Settings) -> Measured {
    let mut tally = Tally::default();
    let mut first = None;
    let mut clock = RefClock::new();
    let mut setup = Vec::new();
    // Timings of every call, per matrix.
    let mut calls = vec![Vec::new(); specs.len()];
    let mut cycles = vec![0u64; specs.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(settings.seconds);
    let mut passes = 0;
    loop {
        let pass_start = Instant::now();
        let (inputs, timed) = clock.time(|| specs.iter().cloned().map(Op::new).collect::<Vec<_>>());
        setup.push(timed);
        let mut fingerprint = FingerprintBuilder::default();
        for (i, op) in inputs.iter().enumerate() {
            let golden = op.golden();
            let config = op.config(threads, TraceConfig::off());
            let (run, timed) = clock.time(|| op.run(&config, MendaBackend));
            calls[i].push(timed);
            cycles[i] = run.cycles;
            check_output(&mut tally, op, &run.output, &golden);
            fingerprint.add_stats(run.cycles, &run.pu_stats);
        }
        let fingerprint = fingerprint.finish();
        let first = *first.get_or_insert(fingerprint);
        tally.record(fingerprint == first, || {
            format!("simulated statistics changed between passes: {first} then {fingerprint}")
        });
        passes += 1;
        if passes >= MIN_PASSES && Instant::now() + pass_start.elapsed() > deadline {
            break;
        }
    }
    let host_s = |timings: &[Timed]| timings.iter().map(|t| t.host_s).collect::<Vec<_>>();
    let ref_s = |timings: &[Timed]| timings.iter().map(|t| t.ref_s).collect::<Vec<_>>();
    let kernel_s: f64 = calls.iter().map(|c| fastest(&ref_s(c))).sum();
    let kernel_host_s: f64 = calls.iter().map(|c| fastest(&host_s(c))).sum();
    let latencies_ms: Vec<f64> = calls
        .iter()
        .flat_map(|c| ref_s(c))
        .map(|s| s * 1e3)
        .collect();
    let total_cycles = cycles.iter().sum::<u64>() as f64;
    Measured {
        metrics: vec![
            ("sim_cycles_per_s", total_cycles / kernel_s),
            ("jobs_per_s", specs.len() as f64 / kernel_s),
            ("latency_p50_ms", quantile(&latencies_ms, 0.5)),
            ("latency_p95_ms", quantile(&latencies_ms, 0.95)),
            ("setup_s", median(&ref_s(&setup))),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        notes: vec![
            format!(
                "{passes} passes over {} matrices at 1/{} scale, {threads} engine thread(s); kernel seconds take each matrix's fastest of {passes}; {} latency samples; all in reference seconds",
                specs.len(),
                settings.scale,
                latencies_ms.len(),
            ),
            format!(
                "in host seconds: {:.0} cycles/s, set-up {:.3} s; reference median {:.2} ms (nominal {:.2} ms)",
                total_cycles / kernel_host_s,
                median(&host_s(&setup)),
                median(&clock.references) * 1e3,
                NOMINAL_S * 1e3,
            ),
        ],
        fingerprint: first.expect("at least one pass runs"),
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menda_core::JobKernel;

    #[test]
    fn a_wrong_output_counts_in_error_rate() {
        let op = Op::new(ops::table4_specs(5, 4096, JobKernel::Spmv, 1).remove(0));
        let run = op.run(&op.config(1, TraceConfig::off()), MendaBackend);
        let mut tally = Tally::default();
        check_output(&mut tally, &op, &run.output, &op.golden());
        let Output::Vector(mut wrong) = op.golden() else {
            panic!("SpMV has a vector output");
        };
        wrong[0] += 1.0;
        check_output(&mut tally, &op, &run.output, &Output::Vector(wrong));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.error_rate(), 0.5);
    }
}
