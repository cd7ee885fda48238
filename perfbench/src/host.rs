//! Host clocks and process facts, read from `/proc` with no dependency.
//!
//! * Whole-process on-CPU time comes from `/proc/self/stat` (utime +
//!   stime). The kernel folds the time of exited threads into these
//!   fields, so worker pools that have already shut down are counted.
//!   Their unit is the clock tick (10 ms on Linux), which is below 0.1%
//!   of a measured run.
//! * A single thread's on-CPU time comes from `/proc/thread-self/schedstat`
//!   (nanoseconds). The kernel brings that counter up to date only at a
//!   tick or a context switch, so the reader yields first, which updates
//!   it. It is used only around work that runs on the calling thread while
//!   no other thread of the process runs, where it equals the process's
//!   time at a finer grain.
//! * Steal comes from the `cpu` line of `/proc/stat`; peak memory from
//!   `VmHWM` in `/proc/self/status`.
//! * Host speed comes from [`calibrate`], a fixed loop timed on the
//!   calling thread.

use std::sync::OnceLock;
use std::time::Instant;

/// Linux `USER_HZ`: the unit of the utime/stime fields.
const CLOCK_TICKS_PER_S: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Wall-clock nanoseconds since the first call in this process.
pub fn wall_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// On-CPU seconds of the whole process (user + system, all threads,
/// exited ones included).
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // The command name may hold spaces or parentheses: fields restart
    // after the last ')'. utime and stime are fields 14 and 15, i.e. the
    // 12th and 13th after the name.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / CLOCK_TICKS_PER_S
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    // The yield charges the running slice to the counter; without it the
    // value lags by up to a scheduler tick (4 ms at HZ=250).
    std::thread::yield_now();
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat starts with on-CPU ns")
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide steal ticks so far (the 8th value of the `cpu` line).
pub fn steal_ticks() -> u64 {
    read("/proc/stat")
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's output, or `unknown` when it cannot run.
pub fn probe_cmd(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// On-CPU seconds [`calibrate`] takes on the reference host, a 2-vCPU
/// Xeon VM at 2.1 GHz (run medians of 1.9 to 2.8 ms there, following the
/// host's speed).
pub const CALIBRATION_NOMINAL_S: f64 = 2e-3;

/// Runs a fixed loop made of the two kinds of work that building the
/// kernels does, and returns its on-CPU seconds on the calling thread:
/// it allocates, fills and sorts small vectors, then first-touches 512
/// fresh pages. (A build of the Default kernels faults in about 1100
/// pages, and on a VM a page fault costs about 2 us, so faults are half
/// of set-up time and move with the host apart from plain compute.)
/// Dividing a short piece of work by the calibration run right beside it
/// takes out the host's speed of the moment: on a shared VM that swings
/// by tens of percent over minutes, and the ratio by a few.
pub fn calibrate() -> f64 {
    let c0 = thread_cpu_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..12 {
        let mut v: Vec<u64> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        x ^= std::hint::black_box(v)[17];
    }
    // Above the allocator's largest mmap threshold (32 MiB), so the block
    // is mapped fresh and unmapped when dropped: every touch faults.
    let mut block: Vec<u8> = Vec::with_capacity(40 << 20);
    for page in block.spare_capacity_mut().chunks_mut(4096).take(512) {
        page[0].write(x as u8);
    }
    std::hint::black_box(block);
    (thread_cpu_ns() - c0) as f64 / 1e9
}

/// Wall and process-CPU time of one stretch of work.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    wall0: u64,
    cpu0: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall0: wall_ns(),
            cpu0: process_cpu_s(),
        }
    }

    /// Wall seconds so far.
    pub fn wall_s(&self) -> f64 {
        (wall_ns() - self.wall0) as f64 / 1e9
    }

    /// Process on-CPU seconds so far.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu0
    }
}
