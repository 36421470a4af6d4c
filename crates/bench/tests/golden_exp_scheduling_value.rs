//! Golden-file snapshot of `exp_scheduling_value` (E2): Scenario 1's
//! baseline, greedy and hill-climb imbalance per flexibility dial, the
//! RES coverage, and the measure/improvement correlations, byte for byte.
//!
//! E2 runs the greedy and hill-climb schedulers, the aggregate-realize
//! step (disaggregation and its member-level fallback) and the imbalance
//! metrics over a 175-offer portfolio, so this snapshot pins each of those
//! kernels to the answers they gave before any rewrite.
//!
//! If a change legitimately alters this output, regenerate the snapshot
//! and review the diff:
//!
//! ```text
//! cargo run --release -p flexoffers_bench --bin exp_scheduling_value \
//!     > crates/bench/tests/golden/exp_scheduling_value.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/exp_scheduling_value.txt");

#[test]
fn exp_scheduling_value_output_matches_golden_snapshot() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_scheduling_value"))
        .output()
        .expect("exp_scheduling_value runs");
    assert!(
        out.status.success(),
        "exp_scheduling_value exited non-zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("exp_scheduling_value output is UTF-8");
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
            "exp_scheduling_value output deviates from the golden snapshot \
             (crates/bench/tests/golden/exp_scheduling_value.txt).\n{first_diff}\n\
             If the change is intentional, regenerate the snapshot (see \
             this test's module docs) and commit the diff."
        );
    }
}
