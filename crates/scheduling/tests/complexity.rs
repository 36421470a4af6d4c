//! The complexity class of a schedule's load: summing `n` assignments
//! spread over a span proportional to `n` must cost about the same per
//! assignment at 16× the size. A fold that builds a new hull-sized series
//! per operand pays `O(n · span)` — its per-item cost grows about 16×
//! between the two sizes and fails the 5× bound by a wide margin; one pass
//! into one buffer stays near 1–2×.
//!
//! This is a wall-clock test, so it lives in its own test binary: no other
//! test of the crate runs beside it.

use std::hint::black_box;
use std::time::Instant;

use flexoffers_model::Assignment;
use flexoffers_scheduling::Schedule;
use flexoffers_timeseries::ops::sum_series;
use flexoffers_timeseries::Series;

/// The smaller size; the larger one is [`GROWTH`] times it.
const SMALL: usize = 2_000;
/// The size ratio between the two runs.
const GROWTH: usize = 16;
/// Passes per size; the fastest one counts.
const PASSES: usize = 9;
/// The bound on per-item cost growth between the two sizes.
const MAX_GROWTH: f64 = 5.0;

/// `n` single-slot assignments, assignment `i` at slot `i * 7919 mod n`:
/// the span is `n` slots and the order jumps around it, so neither end of
/// the hull is reached early.
fn assignments(n: usize) -> Vec<Assignment> {
    (0..n)
        .map(|i| Assignment::new((i * 7_919 % n) as i64, vec![(i % 5) as i64 - 2]))
        .collect()
}

/// Seconds per item of `work` over `n` items: the fastest of [`PASSES`]
/// passes, each repeating `work` so that both sizes time the same number
/// of items per pass.
fn per_item_secs(n: usize, work: impl Fn() -> Series<i64>) -> f64 {
    let repeats = SMALL * GROWTH / n;
    (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..repeats {
                black_box(work());
            }
            started.elapsed().as_secs_f64() / (repeats * n) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn assert_linear(what: &str, cost: impl Fn(usize) -> f64) {
    let small = cost(SMALL);
    let large = cost(SMALL * GROWTH);
    let growth = large / small;
    println!(
        "{what}: {:.1} ns/item at {SMALL} items, {:.1} ns/item at {}, growth {growth:.2}x",
        small * 1e9,
        large * 1e9,
        SMALL * GROWTH
    );
    assert!(
        growth < MAX_GROWTH,
        "{what}: per-item cost grew {growth:.2}x for {GROWTH}x the items \
         ({:.1} ns -> {:.1} ns; bound {MAX_GROWTH}x)",
        small * 1e9,
        large * 1e9
    );
}

/// Both sums in one test, one after the other, so the timings never share
/// the CPU with each other.
#[test]
fn schedule_load_and_sum_series_cost_is_linear_in_the_operands() {
    assert_linear("Schedule::load", |n| {
        let schedule = Schedule::new(assignments(n));
        per_item_secs(n, || schedule.load())
    });
    assert_linear("sum_series", |n| {
        let series: Vec<Series<i64>> = assignments(n).iter().map(Assignment::as_series).collect();
        per_item_secs(n, || sum_series(series.iter()))
    });
}
