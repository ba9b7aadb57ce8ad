//! Process resource readings: CPU time, peak resident memory and thread
//! count, from `/proc/self` and the process CPU clock.

use std::fs;

/// Peak resident set size (`VmHWM`) in KiB, parsed from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// User plus system CPU time in clock ticks, parsed from the text of a
/// `/proc/<pid>/stat` file (fields 14 and 15). The command name in
/// field 2 may itself hold spaces and parentheses, so fields are counted
/// from the last `)`. Used to cross-check [`process_cpu_ns`].
#[cfg(test)]
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Steal and total ticks of all CPUs, parsed from the `cpu` line of the
/// text of `/proc/stat`: time the hypervisor gave this machine's CPUs to
/// someone else, the clearest sign of a shared host.
pub fn parse_steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Steal and total ticks of this machine so far.
pub fn steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_steal_ticks(&stat).unwrap_or((0, 0))
}

/// Peak resident memory of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).map_or(f64::NAN, |kib| kib as f64 * 1024.0 / 1e6)
}

/// Live threads of this process.
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// CPU time this process has used, user plus system, all threads
/// including those that have exited, in nanoseconds. `/proc/self/stat`
/// counts the same time in 10 ms ticks, too coarse for a per-op figure;
/// this clock reads it at nanosecond resolution.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of a
    // 64-bit Linux `struct timespec`, and the clock id is a constant the
    // kernel defines; the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time from `/proc/self/stat`, at its 10 ms tick resolution
/// (USER_HZ = 100).
#[cfg(test)]
pub fn stat_cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu_ticks(&stat).map_or(0, |ticks| ticks * 10_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  912345 kB\nVmHWM:\t   48212 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(48212));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn stat_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (a (b) c) S 1 4242 4242 0 -1 4194560 500 0 0 0 731 269 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  100 0 50 800 5 0 10 35 0 0\ncpu0 50 0 25 400 2 0 5 17 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some((35, 1000)));
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal_ticks("intr 5\n"), None);
    }

    #[test]
    fn live_readings_are_plausible() {
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
        let status = fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_vm_hwm_kib(&status).is_some());
        let stat = fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu_ticks(&stat).is_some());
        assert!(steal_ticks().1 > 0);
    }

    #[test]
    fn cpu_clock_is_fine_grained_and_agrees_with_stat_ticks() {
        let (clock0, stat0) = (process_cpu_ns(), stat_cpu_ns());
        let mut x = 0u64;
        while process_cpu_ns() - clock0 < 300_000_000 {
            for i in 0..10_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        let (clock1, stat1) = (process_cpu_ns(), stat_cpu_ns());
        let clock = clock1 - clock0;
        let stat = stat1 - stat0;
        // Two readings a few instructions apart differ by far less than
        // a 10 ms tick: the clock does not quantize like `stat`.
        let a = process_cpu_ns();
        let b = process_cpu_ns();
        assert!(b - a < 1_000_000, "clock step {} ns", b - a);
        // Tick accounting lags by up to a tick at each end.
        let diff = clock.abs_diff(stat);
        assert!(diff <= 40_000_000, "clock {clock} ns vs stat {stat} ns");
    }
}
