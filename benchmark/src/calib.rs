//! A drift meter for host time.
//!
//! On the shared 2-vCPU sandbox this benchmark was sized on, the speed at
//! which the CPU runs *any* code drifts by about +-13 % over tens of
//! seconds (frequency, steal, a busy sibling thread): whole 10-second runs
//! come out uniformly fast or uniformly slow. A fixed loop timed right
//! beside each measured interval sees the same drift, so dividing the
//! interval by `loop time / NOMINAL_S` cancels the part of it that slows
//! all code alike. What is left is reported in *calibrated seconds*: host
//! seconds as this box runs when it is quiet.
//!
//! The loop is a dependent multiply chain over a 1 MB buffer, a few
//! milliseconds long; the meter keeps the fastest of several rounds, so a
//! brief spike inside one round does not read as drift.

use std::sync::OnceLock;
use std::time::Instant;

/// The loop's fastest round on the reference box when quiet.
pub const NOMINAL_S: f64 = 0.003_30;

const ROUNDS: usize = 6;

fn one_round() -> f64 {
    static BUF: OnceLock<Vec<u64>> = OnceLock::new();
    let buf = BUF.get_or_init(|| {
        (0..(1u64 << 17))
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    });
    let t = Instant::now();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..16u64 {
        for &v in buf {
            h = (h ^ v ^ round).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    std::hint::black_box(h);
    t.elapsed().as_secs_f64()
}

/// How slow the CPU is running right now, relative to nominal: the fastest
/// of [`ROUNDS`] rounds of the loop over [`NOMINAL_S`]. About 20 ms.
pub fn drift() -> f64 {
    (0..ROUNDS)
        .map(|_| one_round())
        .fold(f64::INFINITY, f64::min)
        / NOMINAL_S
}

/// Times `f` in calibrated seconds: its wall time over the drift measured
/// just before and just after it (the smaller of the two, as the meter
/// errs high). Returns `(calibrated s, raw s, result)`.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, f64, R) {
    let before = drift();
    let t = Instant::now();
    let out = f();
    let raw = t.elapsed().as_secs_f64();
    let d = before.min(drift());
    (raw / d, raw, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_a_sane_ratio_and_time_divides_by_it() {
        let d = drift();
        assert!(d.is_finite() && d > 0.01 && d < 100.0, "drift {d}");
        let (cal, raw, out) = time(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(out, 7);
        assert!(raw >= 0.005);
        // Whatever the drift was, calibrated and raw agree within it.
        assert!(cal > raw / 100.0 && cal < raw * 100.0);
    }
}
