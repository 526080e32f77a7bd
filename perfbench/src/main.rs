//! Benchmark of the MeNDA simulator and its job daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload transpose|spmv|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload runs with tracing off for `--seconds`
//! and the last line of standard output reports every end-to-end metric;
//! with `--trace 1` a separate traced run reports every per-layer metric
//! and writes its spans to `perfbench/out/`. Every output is checked, and
//! the last line is always one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod batch;
mod host;
mod ops;
mod probe;
mod report;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use menda_core::JobKernel;

use report::{Fingerprint, Metrics, Tally};

/// The seed whose simulated-statistics fingerprints are pinned below.
/// Any other seed is held out: it keeps every golden check but skips the
/// pinned comparison.
pub const DEFAULT_SEED: u64 = 1;

/// Fingerprints of each workload's simulated statistics at
/// [`DEFAULT_SEED`]. They are host-knob independent: the same at 1 and 2 engine threads, traced or not.
const PINNED: [(Workload, Fingerprint); 3] = [
    (
        Workload::Transpose,
        Fingerprint {
            cycles: 1_023_888,
            digest: 0x6e90_5582_b5c6_a57a,
        },
    ),
    (
        Workload::Spmv,
        Fingerprint {
            cycles: 728_721,
            digest: 0x23df_e971_a71d_801b,
        },
    ),
    (
        Workload::Serve,
        Fingerprint {
            cycles: 494_160,
            digest: 0xb2f1_c224_d458_fd7a,
        },
    ),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 4 transposition on 2 engine threads.
    Transpose,
    /// Table 4 SpMV on 1 engine thread.
    Spmv,
    /// The daemon job mix as a closed loop.
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "transpose" => Some(Self::Transpose),
            "spmv" => Some(Self::Spmv),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }

    /// A batch workload's kernel and engine thread count (`None` for
    /// `serve`).
    fn batch(self) -> Option<(JobKernel, usize)> {
        match self {
            Self::Transpose => Some((JobKernel::Transpose, 2)),
            Self::Spmv => Some((JobKernel::Spmv, 1)),
            Self::Serve => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::Transpose => "transpose",
            Self::Spmv => "spmv",
            Self::Serve => "serve",
        }
    }
}

/// Command-line settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time of a timed run.
    pub seconds: f64,
    /// Traced run instead of the timed run.
    pub trace: bool,
    /// 1/N scale of the batch workloads' matrices: [`ops::BATCH_SCALE`]
    /// when run from the command line, tiny in the tests.
    pub scale: usize,
}

/// A timed run's result.
#[derive(Debug)]
pub struct Measured {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics.
    pub metrics: Metrics,
    /// Fingerprint of the simulated statistics.
    pub fingerprint: Fingerprint,
    /// Human-readable lines for the log.
    pub notes: Vec<String>,
}

const USAGE: &str =
    "usage: menda-perfbench --workload transpose|spmv|serve --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut settings = Settings {
        workload: Workload::Transpose,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: ops::BATCH_SCALE,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => settings.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                settings.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    settings.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(settings)
}

/// The commit of the source tree, when it is a git checkout.
fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(branch) => std::fs::read_to_string(git.join(branch)).unwrap_or_default(),
        None => head,
    };
    match commit.trim() {
        "" => "unknown".into(),
        c => c.to_string(),
    }
}

/// Runs the selected workload and returns the result line.
///
/// # Errors
///
/// A set-up failure: the run measured nothing.
pub fn run(settings: &Settings) -> Result<String, String> {
    let batch = settings.workload.batch().map(|(kernel, threads)| {
        let specs = ops::table4_specs(settings.seed, settings.scale, kernel, threads);
        (specs, threads)
    });
    let (mut tally, mut metrics, fingerprint, notes) = if settings.trace {
        let (specs, serialized) = match batch {
            Some((specs, _)) => (specs, false),
            None => (
                (0..serve::FINGERPRINT_JOBS)
                    .map(|i| serve::job(settings.seed, i))
                    .collect(),
                true,
            ),
        };
        let mut tally = Tally::default();
        let traced = probe::run(settings.workload.name(), &specs, serialized, &mut tally)?;
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-seed{}.json",
            settings.workload.name(),
            settings.seed
        ));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_json(&traced.spans)))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let mut notes = traced.notes;
        notes.push(format!("spans written to {}", path.display()));
        (tally, traced.metrics, traced.fingerprint, notes)
    } else {
        let m = match batch {
            Some((specs, threads)) => batch::run(&specs, threads, settings),
            None => serve::run(settings)?,
        };
        (m.tally, m.metrics, m.fingerprint, m.notes)
    };

    let pinned_applies = settings.seed == DEFAULT_SEED;
    let pinned = PINNED
        .iter()
        .find(|(w, _)| *w == settings.workload)
        .map(|(_, f)| *f)
        .expect("every workload has a pinned fingerprint");
    if pinned_applies {
        tally.record(fingerprint == pinned, || {
            format!("fingerprint {fingerprint} differs from the pinned {pinned}")
        });
    }
    for note in notes {
        println!("# {note}");
    }
    println!(
        "# fingerprint {fingerprint} ({})",
        if pinned_applies {
            "checked against the pinned value"
        } else {
            "held-out seed: not pinned"
        }
    );
    for problem in &tally.problems {
        println!("# FAILED: {problem}");
    }
    if settings.trace {
        metrics.push(("error_rate", tally.error_rate()));
        for (name, value) in &metrics {
            let m = report::PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .expect("every per-layer metric is listed");
            println!(
                "# {name} = {value} {} ({} is better) -> moves {}",
                m.unit, m.better, m.moves
            );
        }
        Ok(report::result_line(
            &tally,
            &metrics,
            report::per_layer_unit,
        ))
    } else {
        Ok(report::result_line(
            &tally,
            &metrics,
            report::end_to_end_unit,
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The live protocol checker multiplies simulation time; a timing
    // taken with it on would be meaningless.
    if std::env::var_os("MENDA_CHECK_PROTOCOL").is_some() {
        eprintln!("refusing to benchmark while MENDA_CHECK_PROTOCOL is set");
        return ExitCode::from(2);
    }
    println!(
        "# workload={} seed={} seconds={} trace={} scale=1/{} commit={} nproc={} rustc=\"{}\" profile={}",
        settings.workload.name(),
        settings.seed,
        settings.seconds,
        u8::from(settings.trace),
        settings.scale,
        commit(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    );
    match run(&settings) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menda_trace::json::{self, JsonValue};

    fn tiny(workload: Workload, trace: bool) -> JsonValue {
        let settings = Settings {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            scale: 4096,
        };
        let line = run(&settings).expect("the run measures");
        let value = json::parse(&line).expect("the result line is JSON");
        let JsonValue::Obj(keys) = &value else {
            panic!("the result line is an object");
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(value.get("correct"), Some(&JsonValue::Bool(true)), "{line}");
        value
    }

    fn assert_metrics(value: &JsonValue, expected: &[(&str, &str)]) {
        let JsonValue::Obj(metrics) = value.get("metrics").expect("metrics") else {
            panic!("metrics is an object");
        };
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        for (name, unit) in expected {
            let m = &metrics[*name];
            assert_eq!(
                m.get("unit").and_then(JsonValue::as_str),
                Some(*unit),
                "{name}"
            );
            assert!(
                m.get("value").and_then(JsonValue::as_num).is_some(),
                "{name}"
            );
        }
    }

    #[test]
    fn every_workload_prints_every_end_to_end_metric() {
        let expected: Vec<_> = report::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect();
        for workload in [Workload::Transpose, Workload::Spmv, Workload::Serve] {
            assert_metrics(&tiny(workload, false), &expected);
        }
    }

    #[test]
    fn every_traced_run_prints_every_per_layer_metric() {
        let expected: Vec<_> = report::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        for workload in [Workload::Transpose, Workload::Spmv, Workload::Serve] {
            let value = tiny(workload, true);
            assert_metrics(&value, &expected);
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join(format!("out/spans-{}-seed7.json", workload.name()));
            let spans = std::fs::read_to_string(path).expect("the span file is written");
            json::parse(&spans).expect("the span file is JSON");
        }
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| m.get(f).and_then(JsonValue::as_str).expect(f).to_string())
                        .collect()
                })
                .collect()
        };
        let workloads: Vec<String> = list("workloads", &["name"]).concat();
        assert_eq!(workloads, ["transpose", "spmv", "serve"]);
        let e2e: Vec<Vec<String>> = report::END_TO_END
            .iter()
            .map(|m| vec![m.name.to_string(), m.unit.to_string()])
            .collect();
        assert_eq!(list("end_to_end", &["name", "unit"]), e2e);
        let layers: Vec<Vec<String>> = report::PER_LAYER
            .iter()
            .map(|m| vec![m.name.to_string(), m.unit.to_string(), m.better.to_string()])
            .collect();
        assert_eq!(list("per_layer", &["name", "unit", "better"]), layers);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&args("--workload spmv --seed 3 --seconds 2.5 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Spmv, 3, 2.5, true)
        );
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload serve --trace 2",
            "--workload serve --seconds -1",
            "--workload serve --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
