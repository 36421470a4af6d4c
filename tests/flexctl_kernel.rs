//! Integration tests for the retired `flexctl --kernel` flag: every batch
//! pass runs one evaluation route, so `measure --portfolio` and `simulate`
//! reject `--kernel` as an unknown argument, with or without a value.

use std::process::{Command, Stdio};

fn stderr_of_failure(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_flexctl"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("flexctl runs");
    assert!(!out.status.success(), "flexctl {args:?} must fail");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_kernel_is_rejected() {
    for kernel in ["simd", "columnar", "scalar", "auto"] {
        let stderr =
            stderr_of_failure(&["measure", "--portfolio", "--city", "10", "--kernel", kernel]);
        assert!(
            stderr.contains("error: unknown measure argument --kernel"),
            "stderr names the flag: {stderr}"
        );
        let stderr = stderr_of_failure(&["simulate", "--scenario", "market", "--kernel", kernel]);
        assert!(
            stderr.contains("error: unknown simulate argument --kernel"),
            "stderr names the flag: {stderr}"
        );
    }
}

#[test]
fn kernel_without_value_is_rejected() {
    let stderr = stderr_of_failure(&["measure", "--portfolio", "--city", "10", "--kernel"]);
    assert!(
        stderr.contains("error: unknown measure argument --kernel"),
        "stderr: {stderr}"
    );
    let stderr = stderr_of_failure(&["simulate", "--scenario", "market", "--kernel"]);
    assert!(
        stderr.contains("error: unknown simulate argument --kernel"),
        "stderr: {stderr}"
    );
}
