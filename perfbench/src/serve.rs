//! The `serve` workload: an in-process daemon driven as a closed loop
//! over TCP, plus the client the traced run reuses.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use menda_core::JobSpec;
use menda_server::loadgen::job_for_index;
use menda_server::{ServerConfig, ServerHandle};
use menda_trace::json::{self, JsonValue};

use crate::host::RefClock;
use crate::ops::SEED_MASK;
use crate::report::{median, peak_rss_mb, quantile, FingerprintBuilder, Tally};
use crate::{Measured, Settings};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Client connections.
pub const CONNECTIONS: usize = 2;
/// Jobs in flight per connection; with 4 in flight and 2 workers the
/// queue is never empty.
pub const WINDOW: usize = 2;
/// Jobs the timed run completes at least, so that p95 has ten samples
/// beyond it.
pub const MIN_JOBS: usize = 200;
/// The first jobs of the mix, whose results form the fingerprint.
pub const FINGERPRINT_JOBS: usize = 32;
/// Set-ups timed before the load and again after it; `setup_s` is their
/// median, in reference seconds (see [`crate::host`]).
const SETUP_REPEATS: usize = 20;
/// Jobs prepared in set-up: more than a minute of load.
const MIX_LEN: usize = 8192;
/// Every this-many-th completed job is re-executed locally and compared
/// with its wire result (coprime to the 16-matrix rotation, so the
/// sample covers every matrix and both kernels).
const VERIFY_STRIDE: usize = 13;
/// Retries of a job refused with `queue_full` before it counts as failed.
const MAX_RETRIES: u64 = 1000;

/// Job `i` of the daemon mix: the `loadgen` mix (Table 3 at 1/512 on 2
/// PUs with 64 leaves, alternating transposition and SpMV per rotation),
/// with the matrix seed moved by the benchmark seed.
pub fn job(seed: u64, i: usize) -> JobSpec {
    let mut spec = job_for_index(i, 512);
    spec.seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(spec.seed)
        & SEED_MASK;
    spec
}

/// The daemon configuration: [`WORKERS`] workers, defaults otherwise.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

/// One job of a mix with its submit line.
#[derive(Debug, Clone)]
pub struct MixJob {
    /// Index in the mix.
    pub index: usize,
    /// The job.
    pub spec: JobSpec,
    /// The `submit` request line.
    pub line: String,
}

impl MixJob {
    /// Prepares job `index` for submission.
    pub fn new(index: usize, spec: JobSpec) -> Self {
        let line = format!(
            "{{\"op\":\"submit\",\"tag\":\"job-{index}\",\"job\":{}}}\n",
            spec.to_json()
        );
        Self { index, spec, line }
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index in the mix.
    pub index: usize,
    /// Client slot the job occupied: connection × [`WINDOW`] + window
    /// position. A slot holds one job at a time.
    pub slot: usize,
    /// The submit line was written (first attempt).
    pub submitted: Instant,
    /// The `accepted` line was read.
    pub accepted: Option<Instant>,
    /// The `started` line was read.
    pub started: Option<Instant>,
    /// The `result` line (or the refusal) was read.
    pub finished: Instant,
    /// `queue_full` refusals before acceptance.
    pub retries: u64,
    /// Why the job failed, if it did.
    pub error: Option<String>,
    /// Simulated device cycles of the outcome.
    pub cycles: u64,
    /// The wire digest of the outcome.
    pub stats_digest: String,
    /// The outcome JSON embedded in the result line.
    pub stats: String,
}

impl JobRecord {
    /// Submit → result latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.finished - self.submitted).as_secs_f64() * 1e3
    }
}

/// When a connection stops submitting new jobs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After every job of the list was submitted.
    Exhausted,
    /// Once `deadline` has passed and the connection completed at least
    /// `min_jobs` (or the list ran out).
    After { deadline: Instant, min_jobs: usize },
}

/// Drives `jobs` through the daemon at `addr` as a closed loop: each of
/// [`CONNECTIONS`] connections keeps [`WINDOW`] jobs in flight and
/// submits the next only when one completes. Connection `c` takes jobs
/// `c, c + CONNECTIONS, …`. Returns every job's record in index order
/// and the wall time of the load.
///
/// # Errors
///
/// A connection failure or a protocol violation.
pub fn drive(
    addr: SocketAddr,
    jobs: &[MixJob],
    stop: Stop,
) -> Result<(Vec<JobRecord>, f64), String> {
    let start = Instant::now();
    let per_conn: Vec<Result<Vec<JobRecord>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<&MixJob> = jobs.iter().skip(c).step_by(CONNECTIONS).collect();
                scope.spawn(move || drive_connection(addr, c, &mine, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    for part in per_conn {
        records.extend(part?);
    }
    records.sort_by_key(|r| (r.index, r.submitted));
    Ok((records, wall))
}

struct Flight {
    job: usize,
    index: usize,
    slot: usize,
    submitted: Instant,
    accepted: Option<(Instant, u64)>,
    started: Option<Instant>,
    retries: u64,
}

fn drive_connection(
    addr: SocketAddr,
    conn: usize,
    jobs: &[&MixJob],
    stop: Stop,
) -> Result<Vec<JobRecord>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set_nodelay: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut records = Vec::new();
    let mut inflight: Vec<Flight> = Vec::new();
    let mut next = 0usize;
    let may_submit = |next: usize, done: usize| {
        next < jobs.len()
            && match stop {
                Stop::Exhausted => true,
                Stop::After { deadline, min_jobs } => Instant::now() < deadline || done < min_jobs,
            }
    };
    let mut line = String::new();
    loop {
        while inflight.len() < WINDOW && may_submit(next, records.len() + inflight.len()) {
            let job = next;
            next += 1;
            let slot = (0..WINDOW)
                .map(|w| conn * WINDOW + w)
                .find(|s| inflight.iter().all(|f| f.slot != *s))
                .expect("a window position is free");
            writer
                .write_all(jobs[job].line.as_bytes())
                .map_err(|e| format!("submit: {e}"))?;
            inflight.push(Flight {
                job,
                index: jobs[job].index,
                slot,
                submitted: Instant::now(),
                accepted: None,
                started: None,
                retries: 0,
            });
        }
        if inflight.is_empty() {
            return Ok(records);
        }
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            return Err("the daemon closed the connection with jobs in flight".into());
        }
        let now = Instant::now();
        let raw = line.trim_end();
        let value =
            json::parse(raw).map_err(|(pos, msg)| format!("bad reply at byte {pos}: {msg}"))?;
        let by_id = |inflight: &[Flight], value: &JsonValue| -> Result<usize, String> {
            let id = value
                .get("job_id")
                .and_then(JsonValue::as_num)
                .ok_or("reply without job_id")? as u64;
            inflight
                .iter()
                .position(|f| f.accepted.is_some_and(|(_, a)| a == id))
                .ok_or_else(|| format!("reply for unknown job {id}"))
        };
        let pending = inflight.iter().position(|f| f.accepted.is_none());
        let finish = |f: Flight, error: Option<String>| JobRecord {
            index: f.index,
            slot: f.slot,
            submitted: f.submitted,
            accepted: f.accepted.map(|(t, _)| t),
            started: f.started,
            finished: now,
            retries: f.retries,
            error,
            cycles: 0,
            stats_digest: String::new(),
            stats: String::new(),
        };
        match value.get("type").and_then(JsonValue::as_str) {
            Some("accepted") => {
                let id = value
                    .get("job_id")
                    .and_then(JsonValue::as_num)
                    .ok_or("accepted without job_id")?;
                let slot = pending.ok_or("accepted with no pending submit")?;
                inflight[slot].accepted = Some((now, id as u64));
            }
            Some("rejected") => {
                let slot = pending.ok_or("rejected with no pending submit")?;
                let reason = value
                    .get("reason")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                if reason == "queue_full" && inflight[slot].retries < MAX_RETRIES {
                    inflight[slot].retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    writer
                        .write_all(jobs[inflight[slot].job].line.as_bytes())
                        .map_err(|e| format!("resubmit: {e}"))?;
                    // Keep the flight's place: the reply to the resubmit
                    // is the next acceptance this connection reads.
                    let flight = inflight.remove(slot);
                    inflight.push(flight);
                } else {
                    let f = inflight.remove(slot);
                    records.push(finish(f, Some(format!("refused: {reason}"))));
                }
            }
            Some("started") => {
                let slot = by_id(&inflight, &value)?;
                inflight[slot].started = Some(now);
            }
            Some("result") => {
                let slot = by_id(&inflight, &value)?;
                let f = inflight.remove(slot);
                if matches!(value.get("ok"), Some(JsonValue::Bool(true))) {
                    let mut rec = finish(f, None);
                    rec.cycles = value
                        .get("stats")
                        .and_then(|s| s.get("cycles"))
                        .and_then(JsonValue::as_num)
                        .unwrap_or(0.0) as u64;
                    rec.stats_digest = value
                        .get("stats_digest")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string();
                    // The outcome JSON is the last member of the line.
                    rec.stats = raw
                        .find("\"stats\": ")
                        .map(|i| raw[i + 9..raw.len() - 1].to_string())
                        .unwrap_or_default();
                    records.push(rec);
                } else {
                    let err = value
                        .get("error")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("failed");
                    records.push(finish(f, Some(err.to_string())));
                }
            }
            _ => return Err(format!("unexpected reply: {raw}")),
        }
    }
}

/// Whether a wire result is byte-identical to executing its job locally
/// through the batch path.
pub fn matches_local(record: &JobRecord, spec: &JobSpec) -> Result<(), String> {
    let outcome = spec
        .execute()
        .map_err(|e| format!("local execution failed: {e}"))?;
    let stats = outcome.to_json();
    if record.stats != stats || record.stats_digest != format!("{:016x}", outcome.digest()) {
        return Err(format!(
            "job {}: wire result differs from local execution",
            record.index
        ));
    }
    Ok(())
}

/// One set-up: binds the daemon and builds the job mix.
fn set_up(seed: u64) -> Result<(ServerHandle, Vec<MixJob>), String> {
    let handle = ServerHandle::bind("127.0.0.1:0", server_config())
        .map_err(|e| format!("bind the daemon: {e}"))?;
    let mix = (0..MIX_LEN).map(|i| MixJob::new(i, job(seed, i))).collect();
    Ok((handle, mix))
}

/// [`SETUP_REPEATS`] set-ups in a row, each timed into `setup` (in
/// reference seconds); the daemons of all but the last are shut down.
fn set_ups(
    seed: u64,
    clock: &mut RefClock,
    setup: &mut Vec<f64>,
) -> Result<(ServerHandle, Vec<MixJob>), String> {
    let mut last: Option<(ServerHandle, Vec<MixJob>)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((mut old, _)) = last.take() {
            old.shutdown(true);
            old.join();
        }
        let (made, timed) = clock.time(|| set_up(seed));
        setup.push(timed.ref_s);
        last = Some(made?);
    }
    Ok(last.expect("SETUP_REPEATS is positive"))
}

/// Runs `serve` with tracing off: sets up [`SETUP_REPEATS`] times, drives
/// the closed loop for `settings.seconds` (and at least [`MIN_JOBS`]
/// jobs), sets up [`SETUP_REPEATS`] times again, then checks a sample of
/// results against local execution.
///
/// # Errors
///
/// The daemon cannot bind or the client cannot talk to it.
pub fn run(settings: &Settings) -> Result<Measured, String> {
    let mut clock = RefClock::new();
    let mut setup = Vec::new();
    let (mut server, mix) = set_ups(settings.seed, &mut clock, &mut setup)?;
    let stop = Stop::After {
        deadline: Instant::now() + Duration::from_secs_f64(settings.seconds),
        min_jobs: MIN_JOBS.div_ceil(CONNECTIONS),
    };
    let driven = drive(server.local_addr(), &mix, stop);
    server.shutdown(true);
    server.join();
    let (records, wall) = driven?;
    let (mut spare, _) = set_ups(settings.seed, &mut clock, &mut setup)?;
    spare.shutdown(true);
    spare.join();

    let mut tally = Tally::default();
    let mut fingerprint = FingerprintBuilder::default();
    for rec in &records {
        let mut outcome = rec.error.clone().map_or(Ok(()), Err);
        if outcome.is_ok() && rec.index % VERIFY_STRIDE == 0 {
            outcome = matches_local(rec, &mix[rec.index].spec);
        }
        if outcome.is_ok() && rec.index < FINGERPRINT_JOBS {
            fingerprint.add_serialized(rec.cycles, rec.stats.as_bytes());
        }
        tally.record(outcome.is_ok(), || {
            format!("job {}: {}", rec.index, outcome.clone().unwrap_err())
        });
    }
    let covered = records
        .iter()
        .filter(|r| r.index < FINGERPRINT_JOBS && r.error.is_none())
        .count();
    tally.record(covered == FINGERPRINT_JOBS, || {
        format!("only {covered} of the first {FINGERPRINT_JOBS} jobs completed")
    });

    let done: Vec<&JobRecord> = records.iter().filter(|r| r.error.is_none()).collect();
    let latencies: Vec<f64> = done.iter().map(|r| r.latency_ms()).collect();
    let cycles: u64 = done.iter().map(|r| r.cycles).sum();
    Ok(Measured {
        metrics: vec![
            ("sim_cycles_per_s", cycles as f64 / wall),
            ("jobs_per_s", done.len() as f64 / wall),
            ("latency_p50_ms", quantile(&latencies, 0.5)),
            ("latency_p95_ms", quantile(&latencies, 0.95)),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        notes: vec![format!(
            "{} jobs completed of {} submitted in {wall:.2} s over {CONNECTIONS} connections x {WINDOW} in flight on {WORKERS} workers; {} retries; {} latency samples; set-up median {:.2} ms of {} in reference seconds",
            done.len(),
            records.len(),
            records.iter().map(|r| r.retries).sum::<u64>(),
            latencies.len(),
            median(&setup) * 1e3,
            setup.len()
        )],
        fingerprint: fingerprint.finish(),
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_wire_result_is_caught() {
        let spec = job(9, 3);
        let outcome = spec.execute().expect("the job runs");
        let now = Instant::now();
        let mut record = JobRecord {
            index: 3,
            slot: 0,
            submitted: now,
            accepted: Some(now),
            started: Some(now),
            finished: now,
            retries: 0,
            error: None,
            cycles: outcome.cycles,
            stats_digest: format!("{:016x}", outcome.digest()),
            stats: outcome.to_json(),
        };
        matches_local(&record, &spec).expect("an honest result matches");
        record.stats = record.stats.replacen("\"cycles\": ", "\"cycles\": 1", 1);
        assert!(matches_local(&record, &spec).is_err());
    }
}
