//! Process measurements read from `/proc`, and the environment check.

/// Environment variables that silently change what a run measures: the
/// schoolbook bignum switch read inside `crypto`, the per-study mint
/// cache, and the `exp_*` drive knobs.
pub const REFUSED_ENV: [&str; 5] = [
    "TLSFOE_SCHOOLBOOK",
    "TLSFOE_PRIVATE_MINT",
    "TLSFOE_PARTITIONS",
    "TLSFOE_THREADS",
    "TLSFOE_BATCH",
];

/// Refuse to measure when any [`REFUSED_ENV`] variable is set.
pub fn check_env() -> Result<(), String> {
    let set: Vec<&str> =
        REFUSED_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// Clock ticks per second of the `/proc/self/stat` time fields, from the
/// `AT_CLKTCK` entry of the auxiliary vector (100 if unreadable).
fn clock_ticks() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else { return 100.0 };
    let words: Vec<u64> = auxv
        .chunks_exact(8)
        .map(|c| u64::from_ne_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
        .collect();
    words
        .chunks_exact(2)
        .find(|kv| kv[0] == AT_CLKTCK && kv[1] > 0)
        .map_or(100.0, |kv| kv[1] as f64)
}

/// User + system CPU time of this process (all threads, including ones
/// that have exited), in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / clock_ticks()
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
