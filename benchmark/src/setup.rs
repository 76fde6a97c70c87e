//! Inputs shared by every workload, and facts about the host.

use std::path::Path;
use std::time::Instant;

use remi_synth::SynthKb;

/// The KB every workload runs on: the DBpedia-like profile at scale 10
/// (about 87k triples and 23k nodes). Its generator seed is part of the
/// benchmark's definition; `--seed` draws the traffic over it.
pub const KB_SCALE: f64 = 10.0;
pub const KB_SEED: u64 = 42;

/// The five DBpedia evaluation classes of the paper's §4.
pub const CLASSES: [&str; 5] = ["Person", "Settlement", "Album", "Film", "Organization"];

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

pub fn generate_kb() -> SynthKb {
    remi_synth::generate(&remi_synth::dbpedia_like(), KB_SCALE, KB_SEED)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Milliseconds since `t0`.
pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `make` [`SETUP_REPS`] times and returns the last result with the
/// median duration in seconds.
pub fn repeated<T>(mut make: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous instance first, so at most one lives at once.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(make()?);
        times.push(secs(t0));
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((value, crate::stats::median(&times)))
}

/// Resets this process's resident-set high-water mark to its current
/// resident set, so the next [`peak_rss_mb`] covers only what runs in
/// between (the timed loop, not set-up). Returns the peak before the
/// reset.
pub fn reset_peak_rss() -> Result<f64, String> {
    let before = peak_rss_mb()?;
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
    Ok(before)
}

/// Peak resident set of this process in MiB (`VmHWM`) since start or the
/// last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: the share of
/// time the hypervisor ran someone else while this machine wanted the CPU.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// How fast the host runs right now, as `(alu_ns, dram_ns)`: the time of
/// one xorshift step and of one dependent load from a 32 MiB random
/// cycle, each the median of five rounds. Neither touches the code under
/// test; they let a reader tell a slow host from a slow program when two
/// results differ.
pub fn host_speed() -> (f64, f64) {
    const STEPS: u64 = 4_000_000;
    const LOADS: usize = 200_000;
    let xorshift = |mut x: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Sattolo's shuffle: one cycle through every slot.
    let n = 1usize << 23;
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in (1..n).rev() {
        x = xorshift(x);
        next.swap(i, (x % i as u64) as usize);
    }
    let (mut alu, mut dram) = (Vec::new(), Vec::new());
    let mut at = 0u32;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut y = std::hint::black_box(x | 1);
        for _ in 0..STEPS {
            y = xorshift(y);
        }
        std::hint::black_box(y);
        alu.push(t0.elapsed().as_secs_f64() * 1e9 / STEPS as f64);
        let t0 = Instant::now();
        for _ in 0..LOADS {
            at = next[at as usize];
        }
        std::hint::black_box(at);
        dram.push(t0.elapsed().as_secs_f64() * 1e9 / LOADS as f64);
    }
    (crate::stats::median(&alu), crate::stats::median(&dram))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a over the workspace sources (`crates/**`, root manifests), so a
/// result names the code it measured even in a checkout without git.
pub fn source_hash() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

/// `git rev-parse HEAD` when the working directory is a git checkout.
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}
