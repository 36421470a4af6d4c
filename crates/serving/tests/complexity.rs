//! The complexity class of live churn: an update or remove must cost about
//! the same on a book 16× larger. A structure that pays `O(n)` per event
//! (a memmove in a sorted `Vec`, a periodic full merge) grows its per-op
//! cost about 16× between the two sizes and fails the 5× bound by a wide
//! margin; an `O(log n)` one stays near 1–3×.
//!
//! This is a wall-clock test, so it lives in its own test binary: no other
//! test of the crate runs beside it.

use std::time::Instant;

use flexoffers_engine::Engine;
use flexoffers_model::{FlexOffer, Slice};
use flexoffers_serving::{LiveBook, ServeConfig};

/// Updates, then as many removes, timed per pass.
const OPS: usize = 2_000;
/// Passes per size; the fastest one counts.
const PASSES: usize = 3;
/// The bound on per-op cost growth between the two book sizes.
const MAX_GROWTH: f64 = 5.0;

/// Offer `i` of a book: `(tes, tf)` keys spread over a 1000 × 13 grid, so
/// the key index holds many distinct keys and each removal lands at a
/// different position in it.
fn offer(i: usize) -> FlexOffer {
    let tes = (i * 7_919 % 1_000) as i64;
    let window = (i % 13) as i64;
    FlexOffer::new(tes, tes + window, vec![Slice::new(0, 2).unwrap()]).unwrap()
}

/// Seconds per update or remove on a 1-shard book of `offers` offers: the
/// fastest of [`PASSES`] passes of [`OPS`] key-changing updates followed
/// by [`OPS`] removes of the same ids, spread evenly over the book.
fn per_op_secs(offers: usize) -> f64 {
    let victims: Vec<u64> = (0..OPS).map(|k| (k * offers / OPS) as u64).collect();
    (0..PASSES)
        .map(|_| {
            let mut book = LiveBook::new(ServeConfig::default(), 1, Engine::sequential()).unwrap();
            for i in 0..offers {
                book.add(offer(i));
            }
            let replacements: Vec<FlexOffer> =
                victims.iter().map(|&id| offer(id as usize + 1)).collect();
            let started = Instant::now();
            for (&id, replacement) in victims.iter().zip(replacements) {
                book.update(id, replacement).unwrap();
            }
            for &id in &victims {
                book.remove(id).unwrap();
            }
            started.elapsed().as_secs_f64() / (2 * OPS) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn live_churn_cost_does_not_grow_with_the_book() {
    let small = per_op_secs(4_000);
    let large = per_op_secs(64_000);
    let growth = large / small;
    println!(
        "update/remove: {:.2} µs/op at 4k offers, {:.2} µs/op at 64k, growth {growth:.2}x",
        small * 1e6,
        large * 1e6
    );
    assert!(
        growth < MAX_GROWTH,
        "per-op churn cost grew {growth:.2}x for a 16x larger book \
         ({:.2} µs -> {:.2} µs; bound {MAX_GROWTH}x)",
        small * 1e6,
        large * 1e6
    );
}
