//! Operations: one kernel on one generated matrix, described by a
//! [`JobSpec`] so the batch workloads, the daemon and the traced run all
//! name the same work the same way.

use menda_core::spmv::{self, SpmvOptions};
use menda_core::{
    AcceleratorBackend, JobKernel, JobSpec, MatrixSource, MendaConfig, MendaSystem, PuStats,
    TraceConfig, TraceReport,
};
use menda_sparse::gen;
use menda_sparse::rng::StdRng;
use menda_sparse::{CscMatrix, CsrMatrix};

/// The 1/N scale the batch workloads generate the Table 4 stand-ins at.
pub const BATCH_SCALE: usize = 16;

/// Job seeds travel as JSON numbers, which hold integers exactly up to
/// 2^53.
pub const SEED_MASK: u64 = (1 << 53) - 1;

/// The batch workload's operations: every Table 4 stand-in with its own
/// seed drawn from `seed`, run with `kernel` on the paper's 8-PU system
/// with `threads` engine threads.
pub fn table4_specs(seed: u64, scale: usize, kernel: JobKernel, threads: usize) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::TABLE4
        .iter()
        .map(|m| {
            let mut spec = JobSpec::new(MatrixSource::Table4(m.name.to_string()));
            spec.scale = scale;
            spec.seed = rng.next_u64() & SEED_MASK;
            spec.kernel = kernel;
            spec.threads = Some(threads);
            spec
        })
        .collect()
}

/// A short label for an operation (matrix name and kernel).
pub fn label(spec: &JobSpec) -> String {
    let name = match &spec.matrix {
        MatrixSource::Table3(n) | MatrixSource::Table4(n) => n.clone(),
        other => format!("{other:?}"),
    };
    format!("{name}:{}", spec.kernel.label())
}

/// Generates the input matrix of `spec` (the call `sparse.gen_s` times).
///
/// # Panics
///
/// Panics for matrix sources the benchmark does not use.
pub fn generate(spec: &JobSpec) -> CsrMatrix {
    match &spec.matrix {
        MatrixSource::Table3(n) => gen::table3_spec(n)
            .expect("benchmark jobs name Table 3 matrices that exist")
            .generate_scaled(spec.scale, spec.seed),
        MatrixSource::Table4(n) => gen::suite_matrix(n)
            .expect("benchmark jobs name Table 4 matrices that exist")
            .generate_scaled(spec.scale, spec.seed),
        other => panic!("the benchmark does not generate {other:?}"),
    }
}

/// The SpMV input vector of `spec`: the same deterministic vector
/// `JobSpec::execute` derives from the job seed.
pub fn x_vector(ncols: usize, seed: u64) -> Vec<f32> {
    (0..ncols)
        .map(|i| {
            ((i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) % 17) as f32 * 0.25 - 2.0
        })
        .collect()
}

/// One generated operation, ready to run.
#[derive(Debug)]
pub struct Op {
    /// The job description.
    pub spec: JobSpec,
    /// The generated input matrix.
    pub matrix: CsrMatrix,
    /// The SpMV input vector (empty for transposition).
    pub x: Vec<f32>,
}

impl Op {
    /// Generates the inputs of `spec`.
    pub fn new(spec: JobSpec) -> Self {
        let matrix = generate(&spec);
        let x = match spec.kernel {
            JobKernel::Spmv => x_vector(matrix.ncols(), spec.seed),
            _ => Vec::new(),
        };
        Self { spec, matrix, x }
    }

    /// The simulator configuration with every host knob pinned: engine
    /// threads, fast-forward, epochs, and tracing (without the explicit
    /// trace setting `MENDA_TRACE` would leak in).
    pub fn config(&self, threads: usize, trace: TraceConfig) -> MendaConfig {
        self.spec
            .build_config()
            .expect("benchmark jobs are valid")
            .with_threads(threads)
            .with_fast_forward(true)
            .with_epoch(true)
            .with_trace(trace)
    }

    /// The functional golden result: `to_csc` for transposition, the
    /// software SpMV for SpMV.
    pub fn golden(&self) -> Output {
        match self.spec.kernel {
            JobKernel::Spmv => Output::Vector(self.matrix.spmv(&self.x)),
            _ => Output::Csc(self.matrix.to_csc()),
        }
    }

    /// Runs the kernel on `backend` under `config`.
    pub fn run<B: AcceleratorBackend>(&self, config: &MendaConfig, backend: B) -> KernelRun {
        match self.spec.kernel {
            JobKernel::Spmv => {
                let r = spmv::run_on(
                    config,
                    &self.matrix,
                    &self.x,
                    SpmvOptions::default(),
                    backend,
                );
                KernelRun {
                    output: Output::Vector(r.y),
                    cycles: r.cycles,
                    pu_stats: r.pu_stats,
                    trace: r.trace,
                }
            }
            _ => {
                let r = MendaSystem::new(config.clone()).transpose_on(&self.matrix, backend);
                KernelRun {
                    output: Output::Csc(r.output),
                    cycles: r.cycles,
                    pu_stats: r.pu_stats,
                    trace: r.trace,
                }
            }
        }
    }
}

/// A kernel's functional output.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A transposed matrix.
    Csc(CscMatrix),
    /// An SpMV result vector.
    Vector(Vec<f32>),
}

impl Output {
    /// Whether `self` matches `golden`: exactly for a transposition,
    /// within the 1e-3 relative tolerance of `repro bench` for SpMV
    /// (the simulated reduction order differs from the software one).
    pub fn agrees_with(&self, golden: &Output) -> bool {
        match (self, golden) {
            (Output::Csc(a), Output::Csc(b)) => a == b,
            (Output::Vector(got), Output::Vector(want)) => {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| (g - w).abs() <= 1e-3 * w.abs().max(1.0))
            }
            _ => false,
        }
    }
}

/// What one kernel call produced.
#[derive(Debug)]
pub struct KernelRun {
    /// The functional output.
    pub output: Output,
    /// Simulated device cycles (maximum over PUs).
    pub cycles: u64,
    /// Per-PU statistics.
    pub pu_stats: Vec<PuStats>,
    /// Counting-trace report, when tracing was on.
    pub trace: Option<TraceReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_outputs_are_detected() {
        let a = Op::new(table4_specs(3, 4096, JobKernel::Transpose, 1).remove(0));
        let b = Op::new(table4_specs(4, 4096, JobKernel::Transpose, 1).remove(0));
        assert!(a.golden().agrees_with(&a.golden()));
        assert!(!b.golden().agrees_with(&a.golden()));
        let y = vec![1.0_f32, -2.0, 3.0];
        assert!(Output::Vector(vec![1.0, -2.0, 3.000_5]).agrees_with(&Output::Vector(y.clone())));
        assert!(!Output::Vector(vec![1.0, -2.0, 3.1]).agrees_with(&Output::Vector(y.clone())));
        assert!(!Output::Vector(vec![1.0, -2.0]).agrees_with(&Output::Vector(y)));
    }
}
