//! `flexbench check` end to end: a report of the retired
//! `flexoffers-engine-bench/1` schema is refused by name with exit 2.

use std::process::Command;

#[test]
fn an_engine_bench_v1_report_is_refused_with_a_schema_error() {
    let dir = std::env::temp_dir().join(format!("flexbench_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let old = dir.join("BENCH_engine.json");
    std::fs::write(
        &old,
        r#"{"schema": "flexoffers-engine-bench/1", "workload": "w", "host_cpus": 1,
            "engine": [{"offers": 1000, "threads": 1, "secs": 0.1, "offers_per_sec": 10000.0}]}"#,
    )
    .expect("write old report");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_measure.json");
    let out = Command::new(env!("CARGO_BIN_EXE_flexbench"))
        .args(["check", "--baseline", baseline, "--candidate"])
        .arg(&old)
        .output()
        .expect("flexbench runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(r#"schema "flexoffers-engine-bench/1" is not "flexoffers-bench/2""#),
        "{stderr}"
    );
}
