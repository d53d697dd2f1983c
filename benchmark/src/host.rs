//! Host-side measurements from Linux `/proc`: CPU time and peak memory.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture it exports to user space.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process (all threads) plus those of
/// its children that have been waited for.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is unreadable or malformed.
pub fn cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may contain spaces; fields restart after its `)`.
    let rest = stat
        .rsplit_once(')')
        .ok_or("/proc/self/stat: no command field")?
        .1;
    // `rest` starts at field 3 (state); utime..cstime are fields 14..=17.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let mut ticks = 0u64;
    for i in 11..=14 {
        ticks += fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or("/proc/self/stat: bad CPU time field")?;
    }
    Ok(ticks as f64 / TICKS_PER_S)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("/proc/self/status: no VmHWM")?;
    Ok(kib as f64 / 1024.0)
}

/// Total size in bytes of the regular files under `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_parse() {
        let before = cpu_s().expect("cpu");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s().expect("cpu") >= before);
        assert!(peak_rss_mib().expect("rss") > 0.0);
    }
}
