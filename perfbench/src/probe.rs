//! The traced run: every operation of a workload is pushed through each
//! layer's public API in turn, with a span around every call, so host
//! time and work can be attributed to the layers from outside.
//!
//! The timed (untraced) run never takes numbers from here. From outside,
//! a PU's host time cannot be separated from its DRAM model's: both run
//! inside `execute_job`, which is why the run reports both normalisers,
//! `pu.host_ns_per_cycle` and `dram.host_ns_per_txn`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;

use menda_core::{
    AcceleratorBackend, JobSpec, MendaBackend, MendaConfig, ProcessingUnit, PuJob, PuResult,
    PuStats, TraceConfig, TraceReport,
};
use menda_server::ServerHandle;
use menda_sparse::partition::RowPartition;

use crate::ops::{self, Op};
use crate::report::{median, ratio, Fingerprint, FingerprintBuilder, Metrics, Tally};
use crate::serve::{self, MixJob, Stop};
use crate::spans::{self, SpanLog};

/// The MeNDA backend with a span around every unit build and job
/// execution: the engine's calls into the PU layer, timed at the seam.
#[derive(Clone, Copy)]
struct Timed<'a> {
    log: &'a SpanLog,
    parent: usize,
    key: &'a str,
    unit_secs: &'a Mutex<Vec<f64>>,
}

impl AcceleratorBackend for Timed<'_> {
    type Unit = ProcessingUnit;
    type UnitResult = PuResult;

    fn name(&self) -> &'static str {
        MendaBackend.name()
    }

    fn frequency_mhz(&self, config: &MendaConfig) -> u64 {
        MendaBackend.frequency_mhz(config)
    }

    fn build_unit(&self, config: &MendaConfig) -> ProcessingUnit {
        self.log
            .time(
                "menda-core::pu/build_unit",
                Some(self.parent),
                self.key,
                |_| MendaBackend.build_unit(config),
            )
            .0
    }

    fn execute_job(&self, unit: &mut ProcessingUnit, job: PuJob) -> PuResult {
        let (result, secs) = self.log.time(
            "menda-core::pu/execute_job",
            Some(self.parent),
            self.key,
            |_| MendaBackend.execute_job(unit, job),
        );
        self.unit_secs
            .lock()
            .expect("unit timings poisoned by a panicking thread")
            .push(secs);
        result
    }

    fn next_event_cycle(&self, unit: &ProcessingUnit) -> Option<u64> {
        MendaBackend.next_event_cycle(unit)
    }

    fn take_trace_report(&self, unit: &mut ProcessingUnit) -> Option<TraceReport> {
        MendaBackend.take_trace_report(unit)
    }
}

/// Sums over the workload's operations.
#[derive(Debug, Default)]
struct Sums {
    gen_s: Vec<f64>,
    partition_s: f64,
    plain_s: f64,
    probe_s: f64,
    parallel_s: f64,
    counting_s: f64,
    pu_host_s: f64,
    unit_max_s: f64,
    unit_mean_s: f64,
    parse_s: Vec<f64>,
    execute_s: Vec<f64>,
    encode_s: Vec<f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Sums {
    fn add_stats(&mut self, stats: &[PuStats]) {
        for s in stats {
            let mut add = |name, v| *self.counts.entry(name).or_insert(0) += v;
            add("pu.sim_cycles", s.total_cycles());
            add("pu.iterations", s.num_iterations() as u64);
            for it in &s.iterations {
                add("pu.nz_emitted", it.nz_emitted);
                add("pu.loads_issued", it.loads_issued);
                add("pu.loads_coalesced", it.loads_coalesced);
                add("pu.stores_issued", it.stores_issued);
                add("pu.root_stall_cycles", it.root_stall_cycles);
                add("pu.output_stall_cycles", it.output_stall_cycles);
            }
            add("dram.reads", s.dram.reads);
            add("dram.writes", s.dram.writes);
            add("dram.row_hits", s.dram.row_hits);
            add("dram.row_misses", s.dram.row_misses);
            add("dram.row_conflicts", s.dram.row_conflicts);
            add("dram.refreshes", s.dram.refreshes);
        }
    }

    fn add_counters(&mut self, report: Option<&TraceReport>) {
        for name in [
            "pu.prefetch.hits",
            "pu.prefetch.misses",
            "dram.sched.activate",
            "dram.sched.precharge",
        ] {
            *self.counts.entry(name).or_insert(0) += report.map_or(0, |r| r.counter(name));
        }
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }
}

/// What the traced run produced besides its metrics.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Metrics,
    /// Fingerprint of the operations' simulated statistics.
    pub fingerprint: Fingerprint,
    /// Human-readable lines for the log.
    pub notes: Vec<String>,
    /// The recorded spans.
    pub spans: Vec<spans::Span>,
}

/// Runs the traced run over `specs`. With `serialized_fingerprint` the
/// fingerprint is taken over the outcome JSON, as the daemon reports it
/// (the `serve` workload); otherwise over the per-PU statistics.
///
/// # Errors
///
/// The daemon cannot bind or the client cannot talk to it.
pub fn run(
    workload: &str,
    specs: &[JobSpec],
    serialized_fingerprint: bool,
    tally: &mut Tally,
) -> Result<Traced, String> {
    let log = SpanLog::new();
    let root = log.open("bench/workload", None, workload, 0);
    let mut sums = Sums::default();
    let mut fingerprint = FingerprintBuilder::default();
    let mut outcomes = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let key = format!("{workload}/{i}/{}", ops::label(spec));
        let op_span = log.open("bench/operation", Some(root), &key, 0);
        let (op, gen_s) = log.time("menda-sparse/generate_scaled", Some(op_span), &key, |_| {
            Op::new(spec.clone())
        });
        sums.gen_s.push(gen_s);
        let golden = op.golden();
        let off = |threads| op.config(threads, TraceConfig::off());
        let pus = off(1).num_pus();
        let (_, partition_s) = log.time("menda-sparse/partition", Some(op_span), &key, |_| {
            let partition = RowPartition::by_nnz(&op.matrix, pus);
            for p in 0..pus {
                black_box(partition.extract(&op.matrix, p));
            }
        });
        sums.partition_s += partition_s;

        let (plain, plain_s) = log.time("bench/untraced_kernel", Some(op_span), &key, |_| {
            op.run(&off(1), MendaBackend)
        });
        let units = Mutex::new(Vec::new());
        let (probed, probe_s) = log.time("menda-core::engine/run", Some(op_span), &key, |id| {
            let timed = Timed {
                log: &log,
                parent: id,
                key: &key,
                unit_secs: &units,
            };
            op.run(&off(1), timed)
        });
        let (parallel, parallel_s) = log.time(
            "menda-core::engine/run_2_threads",
            Some(op_span),
            &key,
            |_| op.run(&off(2), MendaBackend),
        );
        let (counted, counting_s) =
            log.time("menda-trace/counting_run", Some(op_span), &key, |_| {
                op.run(&op.config(1, TraceConfig::counting()), MendaBackend)
            });
        let units = units
            .into_inner()
            .expect("unit timings poisoned by a panicking thread");
        sums.plain_s += plain_s;
        sums.probe_s += probe_s;
        sums.parallel_s += parallel_s;
        sums.counting_s += counting_s;
        sums.pu_host_s += units.iter().sum::<f64>();
        sums.unit_max_s += units.iter().copied().fold(0.0, f64::max);
        sums.unit_mean_s += ratio(units.iter().sum(), units.len() as f64);
        sums.add_stats(&plain.pu_stats);
        sums.add_counters(counted.trace.as_ref());
        for (what, run) in [
            ("1 thread", &plain),
            ("1 thread, timed backend", &probed),
            ("2 threads", &parallel),
            ("counting trace", &counted),
        ] {
            tally.record(
                run.output.agrees_with(&golden)
                    && run.cycles == plain.cycles
                    && run.pu_stats == plain.pu_stats,
                || format!("{key} ({what}): output or statistics differ"),
            );
        }

        let text = spec.to_json();
        let (parsed, parse_s) = log.time(
            "menda-core::jobspec/from_json_str",
            Some(op_span),
            &key,
            |_| JobSpec::from_json_str(&text),
        );
        let (outcome, execute_s) =
            log.time("menda-core::jobspec/execute", Some(op_span), &key, |_| {
                parsed
                    .map_err(|e| e.to_string())?
                    .execute()
                    .map_err(|e| e.to_string())
            });
        sums.parse_s.push(parse_s);
        sums.execute_s.push(execute_s);
        match outcome {
            Ok(outcome) => {
                let (json, encode_s) =
                    log.time("menda-core::jobspec/encode", Some(op_span), &key, |_| {
                        let json = outcome.to_json();
                        black_box(outcome.digest());
                        json
                    });
                sums.encode_s.push(encode_s);
                tally.record(outcome.cycles == plain.cycles, || {
                    format!("{key}: the job path simulated other cycles than the library call")
                });
                if serialized_fingerprint {
                    fingerprint.add_serialized(outcome.cycles, json.as_bytes());
                }
                outcomes.push(Some(json));
            }
            Err(e) => {
                tally.record(false, || format!("{key}: {e}"));
                outcomes.push(None);
            }
        }
        if !serialized_fingerprint {
            fingerprint.add_stats(plain.cycles, &plain.pu_stats);
        }
        log.close(op_span);
    }

    let server_span = log.open("menda-server/load", Some(root), workload, 0);
    let mut server = ServerHandle::bind("127.0.0.1:0", serve::server_config())
        .map_err(|e| format!("bind the daemon: {e}"))?;
    let jobs: Vec<MixJob> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| MixJob::new(i, s.clone()))
        .collect();
    let driven = serve::drive(server.local_addr(), &jobs, Stop::Exhausted);
    server.shutdown(true);
    server.join();
    let (records, _) = driven?;
    let (mut admit, mut queue, mut run, mut retries) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for rec in &records {
        let wire_ok = rec.error.is_none()
            && outcomes.get(rec.index).and_then(Option::as_deref) == Some(rec.stats.as_str());
        tally.record(wire_ok, || {
            format!(
                "job {}: the wire result differs from the local outcome ({:?})",
                rec.index, rec.error
            )
        });
        retries += rec.retries;
        let (Some(accepted), Some(started)) = (rec.accepted, rec.started) else {
            continue;
        };
        let key = format!("{workload}/{}/job", rec.index);
        let track = 1 + rec.slot as u32;
        let job = log.record(
            "menda-server/job",
            Some(server_span),
            &key,
            track,
            rec.submitted,
            rec.finished,
        );
        log.record(
            "menda-server/admit",
            Some(job),
            &key,
            track,
            rec.submitted,
            accepted,
        );
        log.record(
            "menda-server/queue_wait",
            Some(job),
            &key,
            track,
            accepted,
            started,
        );
        log.record(
            "menda-server/run",
            Some(job),
            &key,
            track,
            started,
            rec.finished,
        );
        admit.push((accepted - rec.submitted).as_secs_f64() * 1e3);
        queue.push((started - accepted).as_secs_f64() * 1e3);
        run.push((rec.finished - started).as_secs_f64() * 1e3);
    }
    tally.record(records.len() == specs.len(), || {
        format!("{} of {} daemon jobs came back", records.len(), specs.len())
    });
    log.close(server_span);
    log.close(root);

    let spans = log.snapshot();
    let tree = spans::check_tree(&spans);
    tally.record(tree.is_ok(), || {
        format!("span tree: {}", tree.clone().unwrap_err())
    });
    let self_times = spans::layer_self_seconds(&spans);
    let execute_ms = median(&sums.execute_s) * 1e3;
    let txns = sums.count("dram.reads") + sums.count("dram.writes");
    let mut metrics: Metrics = vec![
        ("sparse.gen_s", sums.gen_s.iter().sum()),
        ("sparse.partition_s", sums.partition_s),
        ("engine.pu_host_s", sums.pu_host_s),
        (
            "engine.overhead_s",
            sums.probe_s - sums.partition_s - sums.pu_host_s,
        ),
        (
            "engine.pu_imbalance",
            ratio(sums.unit_max_s, sums.unit_mean_s),
        ),
        (
            "engine.parallel_speedup",
            ratio(sums.plain_s, sums.parallel_s),
        ),
    ];
    for name in [
        "pu.sim_cycles",
        "pu.iterations",
        "pu.nz_emitted",
        "pu.loads_issued",
        "pu.loads_coalesced",
        "pu.stores_issued",
        "pu.root_stall_cycles",
        "pu.output_stall_cycles",
        "pu.prefetch.hits",
        "pu.prefetch.misses",
    ] {
        metrics.push((name, sums.count(name)));
    }
    let loads = sums.count("pu.loads_issued") + sums.count("pu.loads_coalesced");
    let lookups = sums.count("pu.prefetch.hits") + sums.count("pu.prefetch.misses");
    let accesses = sums.count("dram.row_hits")
        + sums.count("dram.row_misses")
        + sums.count("dram.row_conflicts");
    metrics.extend([
        (
            "pu.coalesce_ratio",
            ratio(sums.count("pu.loads_coalesced"), loads),
        ),
        (
            "pu.prefetch_hit_ratio",
            ratio(sums.count("pu.prefetch.hits"), lookups),
        ),
        (
            "pu.host_ns_per_cycle",
            ratio(sums.plain_s * 1e9, sums.count("pu.sim_cycles")),
        ),
    ]);
    for name in [
        "dram.reads",
        "dram.writes",
        "dram.row_hits",
        "dram.row_misses",
        "dram.row_conflicts",
    ] {
        metrics.push((name, sums.count(name)));
    }
    metrics.extend([
        (
            "dram.row_hit_ratio",
            ratio(sums.count("dram.row_hits"), accesses),
        ),
        ("dram.sched.activate", sums.count("dram.sched.activate")),
        ("dram.sched.precharge", sums.count("dram.sched.precharge")),
        ("dram.refreshes", sums.count("dram.refreshes")),
        ("dram.host_ns_per_txn", ratio(sums.plain_s * 1e9, txns)),
        ("jobspec.execute_ms", execute_ms),
        ("jobspec.gen_ms", median(&sums.gen_s) * 1e3),
        ("jobspec.encode_us", median(&sums.encode_s) * 1e6),
        ("jobspec.parse_us", median(&sums.parse_s) * 1e6),
        ("server.admit_ms", median(&admit)),
        ("server.queue_wait_ms", median(&queue)),
        ("server.run_ms", median(&run)),
        ("server.overhead_ms", median(&run) - execute_ms),
        (
            "server.retries",
            ratio(retries as f64, records.len() as f64),
        ),
        (
            "trace.counting_overhead",
            ratio(sums.counting_s, sums.plain_s),
        ),
        ("bench.trace_overhead", ratio(sums.probe_s, sums.plain_s)),
    ]);
    let mut notes = vec![format!(
        "traced {} operations and {} daemon jobs; {} spans",
        specs.len(),
        records.len(),
        spans.len()
    )];
    notes.push(format!(
        "layer self time (s): {}",
        self_times
            .iter()
            .map(|(layer, s)| format!("{layer}={s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(Traced {
        metrics,
        fingerprint: fingerprint.finish(),
        notes,
        spans,
    })
}
