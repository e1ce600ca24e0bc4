//! Std-only readers of a process's peak resident set (`VmHWM` in
//! `/proc/<pid>/status`) and CPU time (`utime` + `stime` in
//! `/proc/<pid>/stat`), for the benchmark process and the daemon child.

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields (the kernel's fixed
/// `USER_HZ`, 100 on the Linux ABIs the benchmark runs on).
pub const USER_HZ: f64 = 100.0;

/// The `VmHWM` value in kB of a `/proc/<pid>/status` text.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `utime + stime` in clock ticks of a `/proc/<pid>/stat` line.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    // Field 2, the command name, is parenthesised and may itself hold spaces
    // or parentheses, so fields are counted from the last ')'. What follows
    // starts at field 3; utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn read(pid: Option<u32>, file: &str) -> io::Result<String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(path)
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unexpected /proc {what} format"))
}

/// Peak resident set in MB (10⁶ bytes) of `pid`, or of this process.
///
/// # Errors
///
/// Returns the read error, or `InvalidData` when the file has no `VmHWM`.
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let kb = vm_hwm_kb(&read(pid, "status")?).ok_or_else(|| malformed("status"))?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

/// User plus system CPU seconds of `pid` (all threads), or of this process.
///
/// # Errors
///
/// Returns the read error, or `InvalidData` for a malformed stat line.
pub fn cpu_seconds(pid: Option<u32>) -> io::Result<f64> {
    let ticks = cpu_ticks(&read(pid, "stat")?).ok_or_else(|| malformed("stat"))?;
    Ok(ticks as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\trlckit-server\nUmask:\t0022\nState:\tS (sleeping)\n\
        Tgid:\t4242\nPid:\t4242\nVmPeak:\t  480152 kB\nVmSize:\t  480152 kB\n\
        VmLck:\t       0 kB\nVmPin:\t       0 kB\nVmHWM:\t  473120 kB\nVmRSS:\t   12044 kB\n\
        Threads:\t4\n";

    #[test]
    fn status_text_yields_the_peak_resident_set() {
        assert_eq!(vm_hwm_kb(STATUS), Some(473_120));
        // Kernel threads have no memory lines at all.
        assert_eq!(vm_hwm_kb("Name:\tkthreadd\nState:\tS (sleeping)\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t   lots kB\n"), None);
    }

    #[test]
    fn stat_line_yields_user_plus_system_ticks() {
        let stat = "4242 (rlckit-server) S 4200 4242 4200 0 -1 4194304 2830 0 0 0 \
                    1234 56 0 0 20 0 3 0 987654 491520000 3011 18446744073709551615 1 1 0";
        assert_eq!(cpu_ticks(stat), Some(1290));
        // A command name with spaces and parentheses must not shift fields.
        let odd = "17 (a) b (c) R 1 17 17 0 -1 0 0 0 0 0 7 3 0 0 20 0 1 0 5 0 0";
        assert_eq!(cpu_ticks(odd), Some(10));
        assert_eq!(cpu_ticks("17 (truncated) R 1 2"), None);
        assert_eq!(cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(cpu_seconds(None).unwrap() >= 0.0);
    }
}
