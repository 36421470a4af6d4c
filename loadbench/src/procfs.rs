//! Peak memory and CPU time of the server processes, read from `/proc`.

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` text. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks per second (`sysconf(_SC_CLK_TCK)`).
pub fn ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer name and has no memory effects;
    // _SC_CLK_TCK is 2 on Linux, the only platform with this /proc.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Summed peak RSS (MiB) of `pids`; `None` if any process is unreadable.
pub fn peak_rss_mib(pids: &[u32]) -> Option<f64> {
    let mut kib = 0;
    for pid in pids {
        kib += vm_hwm_kib(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)?;
    }
    Some(kib as f64 / 1024.0)
}

/// Summed CPU time (ms) of `pids`; `None` if any process is unreadable.
pub fn cpu_ms(pids: &[u32]) -> Option<f64> {
    let mut ticks = 0;
    for pid in pids {
        ticks += cpu_ticks(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)?;
    }
    Some(ticks as f64 * 1000.0 / ticks_per_second())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_parses_the_status_line() {
        let status =
            "Name:\tflexctl\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(51234));
        assert_eq!(vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn cpu_time_counts_fields_after_the_command_name() {
        // Field 2 holds a space and a parenthesis; utime = 1500, stime = 250.
        let stat =
            "4242 (flex ctl) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1500 250 0 0 20 0 5 0 100 0 0";
        assert_eq!(cpu_ticks(stat), Some(1750));
        assert_eq!(cpu_ticks("4242 (short) S 1"), None);
        assert_eq!(cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn this_process_is_readable() {
        let me = [std::process::id()];
        assert!(peak_rss_mib(&me).unwrap() > 0.0);
        assert!(cpu_ms(&me).is_some());
        assert!(ticks_per_second() >= 1.0);
    }
}
