//! `transfer_ns` and `cycles_ns` held to the 128-bit formula they compute,
//! `ceil(x * 10^9 / rate)` saturated at `u64::MAX`, on random inputs and at
//! the edge of the 64-bit fast path.

use proptest::prelude::*;
use smartssd_sim::time::{cycles_ns, transfer_ns};

/// The largest `x` whose `x * 10^9` fits in 64 bits.
const FAST_MAX: u64 = u64::MAX / 1_000_000_000;

fn reference(x: u64, rate: u64) -> u64 {
    let ns = (x as u128 * 1_000_000_000u128).div_ceil(rate as u128);
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Inputs on both sides of the fast path's limit, and across the domain.
fn amounts() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..=FAST_MAX,
        FAST_MAX - 1_000..=FAST_MAX + 1_000,
        any::<u64>()
    ]
}

fn rates() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..=1_000, 1u64..=20_000_000_000, 1u64..=u64::MAX]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn both_match_the_wide_formula(x in amounts(), rate in rates()) {
        prop_assert_eq!(transfer_ns(x, rate), reference(x, rate), "transfer_ns({}, {})", x, rate);
        prop_assert_eq!(cycles_ns(x, rate), reference(x, rate), "cycles_ns({}, {})", x, rate);
    }
}

#[test]
fn both_match_the_wide_formula_at_the_boundary() {
    for x in [0, 1, FAST_MAX - 1, FAST_MAX, FAST_MAX + 1, u64::MAX] {
        for rate in [1, 2, 3, 999_999_999, 1_000_000_000, 1_000_000_001, u64::MAX] {
            assert_eq!(
                transfer_ns(x, rate),
                reference(x, rate),
                "transfer_ns({x}, {rate})"
            );
            assert_eq!(
                cycles_ns(x, rate),
                reference(x, rate),
                "cycles_ns({x}, {rate})"
            );
        }
    }
}
