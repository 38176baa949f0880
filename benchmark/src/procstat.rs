//! `/proc/<pid>` readers: the only view of `tankd` the benchmark has
//! besides its datagrams. Parsing is split from reading so it is tested
//! on fixed strings.

use std::fs;
use std::io;

/// Kernel clock ticks per second for `utime`/`stime`. Linux has reported
/// `USER_HZ = 100` to user space on every architecture since 2.6,
/// whatever the kernel's internal `HZ`.
pub const TICKS_PER_SEC: u64 = 100;

/// CPU time of a whole process (all threads), in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// Ticks in user mode.
    pub utime: u64,
    /// Ticks in kernel mode.
    pub stime: u64,
}

impl CpuTicks {
    /// User-mode microseconds.
    pub fn user_us(&self) -> f64 {
        self.utime as f64 * 1e6 / TICKS_PER_SEC as f64
    }

    /// Kernel-mode microseconds.
    pub fn sys_us(&self) -> f64 {
        self.stime as f64 * 1e6 / TICKS_PER_SEC as f64
    }

    /// Total microseconds.
    pub fn total_us(&self) -> f64 {
        self.user_us() + self.sys_us()
    }

    /// Ticks spent since `earlier`.
    pub fn since(&self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }
}

/// Parse the contents of `/proc/<pid>/stat`. The second field is the
/// command in parentheses and may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`: `utime` and `stime` are
/// fields 14 and 15 of the line, i.e. the 12th and 13th after it.
pub fn parse_stat(line: &str) -> Option<CpuTicks> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some(CpuTicks { utime, stime })
}

/// Parse the contents of a `schedstat` file: time on a CPU in
/// nanoseconds, time runnable but waiting, timeslices run.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// Nanoseconds process `pid` has spent on a CPU, summed over its live
/// threads' `schedstat`. The scheduler keeps this to the nanosecond,
/// whereas `utime`/`stime` are sampled at the 100 Hz tick on kernels
/// built with tick-based accounting — ±10 % on a one-second slice.
pub fn cpu_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(entry?.path().join("schedstat")) else {
            continue;
        };
        total += parse_schedstat(&text)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad schedstat"))?;
    }
    Ok(total)
}

/// What `/proc/<pid>/status` (or a thread's) says about memory and
/// context switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    /// Peak resident set size, KiB (`VmHWM`; process-wide).
    pub peak_rss_kib: u64,
    /// Voluntary context switches (per thread).
    pub voluntary_switches: u64,
    /// Involuntary context switches (per thread).
    pub involuntary_switches: u64,
}

/// Parse the contents of a `status` file; missing lines read as 0.
pub fn parse_status(text: &str) -> Status {
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_ascii_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Status {
        peak_rss_kib: field("VmHWM:"),
        voluntary_switches: field("voluntary_ctxt_switches:"),
        involuntary_switches: field("nonvoluntary_ctxt_switches:"),
    }
}

/// CPU ticks consumed so far by process `pid`.
pub fn cpu_ticks(pid: u32) -> io::Result<CpuTicks> {
    let line = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&line).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stat line"))
}

/// Peak RSS of `pid` and its context switches summed over all threads
/// (the counters in `status` are per thread).
pub fn status(pid: u32) -> io::Result<Status> {
    let mut total = parse_status(&fs::read_to_string(format!("/proc/{pid}/status"))?);
    total.voluntary_switches = 0;
    total.involuntary_switches = 0;
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(entry?.path().join("status")) else {
            continue;
        };
        let t = parse_status(&text);
        total.voluntary_switches += t.voluntary_switches;
        total.involuntary_switches += t.involuntary_switches;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_from_last_paren() {
        let line = "4242 (tank d) (x)) S 1 4242 4242 0 -1 4194560 185 0 0 0 \
                    1234 567 0 0 20 0 4 0 1234567 1000000 250 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                utime: 1234,
                stime: 567
            })
        );
    }

    #[test]
    fn stat_rejects_garbage() {
        assert_eq!(parse_stat("no paren here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
        assert_eq!(parse_stat("1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 5 0 0"), None);
    }

    #[test]
    fn ticks_to_microseconds() {
        let a = CpuTicks {
            utime: 150,
            stime: 50,
        };
        let b = CpuTicks {
            utime: 100,
            stime: 40,
        };
        let d = a.since(b);
        assert_eq!(d.user_us(), 500_000.0);
        assert_eq!(d.sys_us(), 100_000.0);
        assert_eq!(d.total_us(), 600_000.0);
    }

    #[test]
    fn status_lines() {
        let text = "Name:\ttankd\nVmHWM:\t    5120 kB\nThreads:\t4\n\
                    voluntary_ctxt_switches:\t321\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(
            parse_status(text),
            Status {
                peak_rss_kib: 5120,
                voluntary_switches: 321,
                involuntary_switches: 7
            }
        );
        assert_eq!(parse_status(""), Status::default());
    }

    #[test]
    fn schedstat_first_field() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        assert!(cpu_ticks(pid).is_ok());
        let before = cpu_ns(pid).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        std::thread::yield_now();
        assert!(cpu_ns(pid).unwrap() >= before);
        assert!(status(pid).unwrap().peak_rss_kib > 0);
    }
}
