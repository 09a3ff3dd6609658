//! Host-speed calibration for timed runs on a shared host.
//!
//! On a host whose cores are shared with other tenants, the same code
//! runs up to one and a half times faster or slower for minutes at a
//! time. Each timed section is therefore bracketed by a short reference
//! kernel, timed just before and just after it, and the section's time
//! is scaled by the kernel's speed over its nominal speed. A busier host then reads about as fast
//! as a quiet one, while a change that makes the simulator do more work
//! still shows in full: the kernel never runs beside the simulation, so
//! nothing the simulation does moves the kernel's speed.

use std::time::{Duration, Instant};

/// Reference-kernel iterations per nanosecond on a quiet core of the
/// reference host (a 2-core x86-64 VM). Only the ratio of two speeds is
/// meaningful; this constant makes calibrated times read as seconds on
/// that host.
const NOMINAL_ITERS_PER_NS: f64 = 0.3;

/// Words in the kernel's table: 256 KiB, so the kernel exercises the
/// core's private caches as well as its pipeline.
const TABLE_WORDS: usize = 1 << 15;

/// Kernel iterations between two looks at the clock.
const CHUNK: u64 = 10_000;

/// How long one speed measurement runs the kernel.
const KERNEL_TIME: Duration = Duration::from_millis(50);

/// `n` iterations of the kernel: integer mixing and dependent loads and
/// stores at random places in `table`.
fn kernel(n: u64, x: &mut u64, table: &mut [u64]) {
    let mask = table.len() - 1;
    for _ in 0..n {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let i = (*x as usize) & mask;
        let j = (table[i] as usize) & mask;
        table[j] = table[j].wrapping_mul(31).wrapping_add(*x);
    }
    std::hint::black_box(table);
}

/// The host's current speed: the reference kernel's iterations per
/// nanosecond over the nominal, so 1.0 on a quiet reference host and
/// below it on a slower or busier one.
fn host_speed() -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut table: Vec<u64> = (0..TABLE_WORDS as u64).map(|i| i.wrapping_mul(x)).collect();
    // One untimed pass brings the table into the caches.
    kernel(TABLE_WORDS as u64, &mut x, &mut table);
    let start = Instant::now();
    let mut iters = 0;
    while start.elapsed() < KERNEL_TIME {
        kernel(CHUNK, &mut x, &mut table);
        iters += CHUNK;
    }
    iters as f64 / start.elapsed().as_nanos() as f64 / NOMINAL_ITERS_PER_NS
}

/// Runs `f` between two speed measurements; returns its result and
/// the mean of the two speeds.
pub fn bracketed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = host_speed();
    let out = f();
    (out, (before + host_speed()) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_speed_is_positive_and_finite() {
        let speed = host_speed();
        assert!(speed > 0.0 && speed.is_finite(), "{speed}");
    }
}
