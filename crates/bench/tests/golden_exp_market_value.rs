//! Golden-file snapshot of `exp_market_value`: Scenario 2's per-portfolio
//! savings, the measure/savings correlations and the naive-planning sweep,
//! byte for byte.
//!
//! The naive sweep prints a non-zero `naive imbal.` and an `extra cost`
//! built from `MarketOutcome::total_cost`, so this snapshot is what pins
//! the imbalance term of the market cost: safe planning never pays one.
//!
//! If a change legitimately alters this output, regenerate the snapshot
//! and review the diff:
//!
//! ```text
//! cargo run --release -p flexoffers_bench --bin exp_market_value \
//!     > crates/bench/tests/golden/exp_market_value.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/exp_market_value.txt");

#[test]
fn exp_market_value_output_matches_golden_snapshot() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_market_value"))
        .output()
        .expect("exp_market_value runs");
    assert!(
        out.status.success(),
        "exp_market_value exited non-zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("exp_market_value output is UTF-8");
    if stdout != GOLDEN {
        let first_diff = stdout
            .lines()
            .zip(GOLDEN.lines())
            .position(|(got, want)| got != want)
            .map_or_else(
                || "line counts differ".to_owned(),
                |i| {
                    format!(
                        "first differing line {}:\n  got:  {}\n  want: {}",
                        i + 1,
                        stdout.lines().nth(i).unwrap_or(""),
                        GOLDEN.lines().nth(i).unwrap_or("")
                    )
                },
            );
        panic!(
            "exp_market_value output deviates from the golden snapshot \
             (crates/bench/tests/golden/exp_market_value.txt).\n{first_diff}\n\
             If the change is intentional, regenerate the snapshot (see \
             this test's module docs) and commit the diff."
        );
    }
}
