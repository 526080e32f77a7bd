//! Simulation-host threading: demonstrates the execution engine's
//! parallel PU simulation. MeNDA PUs share nothing (§3.5), so the engine
//! simulates them on multiple host threads with bit-identical results;
//! this experiment times a multi-PU transposition at increasing
//! `SimOptions::threads` and checks the outputs byte-for-byte.

use std::time::Instant;

use menda_core::{MendaConfig, MendaSystem};
use menda_sparse::gen;

use crate::util::{Scale, Table};

/// Interleaved timing rounds per thread count: every round runs each
/// count once, so slow drift in host speed hits all counts alike.
const ROUNDS: usize = 5;

/// Times `MendaSystem::transpose` on the paper's 8-PU system at 1, 2, 4
/// and 8 simulation threads, over [`ROUNDS`] interleaved rounds.
pub fn run(scale: Scale) -> String {
    const COUNTS: [usize; 4] = [1, 2, 4, 8];
    let m = gen::table3_spec("N4")
        .expect("N4 in Table 3")
        .generate_scaled(scale.factor(), 61);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "Simulation-host threading: transposing N4 (1/{} scale) on the paper's\n8-PU system, varying the engine's host thread count (one host thread\nsimulates whole PUs; {ROUNDS} interleaved rounds per count)\nHost CPUs available: {} (wall-clock can only improve when > 1)\n\n",
        scale.factor(),
        cpus
    );
    let mut walls = vec![Vec::with_capacity(ROUNDS); COUNTS.len()];
    let mut identical = [true; COUNTS.len()];
    let mut golden = None;
    for _ in 0..ROUNDS {
        for (i, &threads) in COUNTS.iter().enumerate() {
            let mut sys = MendaSystem::new(MendaConfig::paper().with_threads(threads));
            let start = Instant::now();
            let r = sys.transpose(&m);
            walls[i].push(start.elapsed().as_secs_f64());
            match &golden {
                None => {
                    assert_eq!(r.output, m.to_csc(), "functional check");
                    golden = Some(r);
                }
                Some(g) => {
                    identical[i] &=
                        g.output == r.output && g.cycles == r.cycles && g.pu_stats == r.pu_stats;
                }
            }
        }
    }
    let mut t = Table::new(&[
        "sim threads",
        "best wall-clock",
        "median wall-clock",
        "speedup (best)",
        "output",
    ]);
    for w in &mut walls {
        w.sort_by(f64::total_cmp);
    }
    let base = walls[0][0];
    for (i, &threads) in COUNTS.iter().enumerate() {
        let w = &walls[i];
        t.row(&[
            format!("{threads}"),
            format!("{:.1} ms", w[0] * 1e3),
            format!("{:.1} ms", w[w.len() / 2] * 1e3),
            format!("{:.2}x", base / w[0]),
            if identical[i] { "identical" } else { "DIFFERS" }.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nSimulated cycles, statistics and the assembled CSC are byte-identical\nat every thread count; only the simulation's host wall-clock changes.\nPUs are simulated independently (they share nothing, Sec. 3.5), so on a\nhost with N cores the wall-clock approaches the slowest single PU once\nthreads >= min(N, PUs); on a single-core host the extra threads can only\nadd scheduling overhead.\n",
    );
    out
}
