//! Host-speed reference: a fixed workload whose time tracks how fast the
//! shared host runs at the moment, so timings can be put in reference
//! seconds.
//!
//! The host is shared, and its speed swings by up to 2× over minutes as
//! other work loads the shared caches and memory. A simulator call's wall
//! time swings with it, and so does the time of a reference workload run
//! right before and right after the call. The call's host seconds scaled
//! by [`NOMINAL_S`] ÷ the reference's seconds (its *reference seconds*)
//! stay steady. The reference is ordered-map inserts and lookups: pointer
//! chasing and allocation over a few MiB, the same kind of work as the
//! simulator's. Simpler loops (a serial ALU chain, random reads of an
//! 8 MiB array, an in-place sort) slowed down less than the simulator and
//! tracked it worse.

use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds the reference takes on an unloaded 2-vCPU Xeon host: the scale
/// of reference seconds, so that they read as host seconds there.
pub const NOMINAL_S: f64 = 0.025;

/// Keys the reference inserts and then looks up.
const REFERENCE_KEYS: u64 = 100_000;

/// Runs the reference workload once and returns its host seconds.
pub fn reference_s() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut key = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % (10 * REFERENCE_KEYS)
    };
    let t = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..REFERENCE_KEYS {
        map.insert(key(), i);
    }
    let mut found = 0u64;
    for _ in 0..REFERENCE_KEYS {
        if let Some(v) = map.get(&key()) {
            found = found.wrapping_add(*v);
        }
    }
    std::hint::black_box(found);
    t.elapsed().as_secs_f64()
}

/// A timed call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host seconds of the call.
    pub host_s: f64,
    /// The same in reference seconds.
    pub ref_s: f64,
}

/// Times calls in reference seconds. The reference runs once after every
/// call; a call's scale comes from the runs just before and just after
/// it.
#[derive(Debug)]
pub struct RefClock {
    before: f64,
    /// Every reference time taken, for the log.
    pub references: Vec<f64>,
}

impl RefClock {
    /// Starts a clock. The first reference run of a process is slow (its
    /// allocations fault pages in), so it warms up and is not kept.
    pub fn new() -> Self {
        reference_s();
        let before = reference_s();
        Self {
            before,
            references: vec![before],
        }
    }

    /// Runs `f` and returns its result with its timing.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t = Instant::now();
        let out = f();
        let host_s = t.elapsed().as_secs_f64();
        let after = reference_s();
        let scale = NOMINAL_S / ((self.before + after) / 2.0);
        self.before = after;
        self.references.push(after);
        (
            out,
            Timed {
                host_s,
                ref_s: host_s * scale,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_scale_host_seconds() {
        let mut clock = RefClock::new();
        let (value, timed) = clock.time(|| 7);
        assert_eq!(value, 7);
        assert!(timed.host_s >= 0.0 && timed.ref_s >= 0.0);
        let (a, b) = (clock.references[0], clock.references[1]);
        let want = timed.host_s * NOMINAL_S / ((a + b) / 2.0);
        assert!((timed.ref_s - want).abs() <= 1e-12 * want.max(1.0));
    }
}
