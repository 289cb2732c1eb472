//! Process resource readings from `/proc`, standard library only.

/// Peak resident set size of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

fn status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// User plus system CPU seconds this process has used so far, across
/// all its threads (`utime + stime` of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields restart after
    // its closing parenthesis, with the state as field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after the
    // state; Linux reports them in USER_HZ = 100 ticks per second.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_live() {
        assert!(peak_rss_kb() > 0);
        let (t0, start) = (cpu_seconds(), std::time::Instant::now());
        let mut x = 0u64;
        while cpu_seconds() < t0 + 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
            assert!(start.elapsed().as_secs() < 10, "CPU time does not advance");
        }
    }
}
