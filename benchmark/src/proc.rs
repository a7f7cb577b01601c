//! What the operating system says about this process: CPU time, resident
//! memory, scheduler wait — and a pure-CPU canary that tells a disturbed
//! run from a quiet one.

use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds on one of the kernel's CPU-time clocks. `/proc/self/stat`
/// counts the same time in 10 ms ticks — 3 % of what a half-second
/// segment of `write_mix` uses — so the clocks are read directly.
fn cpu_clock_nanos(clock: i32) -> u64 {
    let mut time = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `time` is a live, writable `timespec` of the layout the C
    // library expects on 64-bit Linux, and the call keeps no pointer.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock})");
    time.secs as u64 * 1_000_000_000 + time.nanos as u64
}

/// CPU seconds (user + system) the whole process has used, threads that
/// already exited included — `/proc/self/task/*` forgets those, and the
/// batch and build layers spawn and join workers per call.
pub fn process_cpu_secs() -> f64 {
    cpu_clock_nanos(CLOCK_PROCESS_CPUTIME_ID) as f64 / 1e9
}

fn schedstat(path: &str) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut fields = text.split_ascii_whitespace();
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_run_nanos() -> u64 {
    cpu_clock_nanos(CLOCK_THREAD_CPUTIME_ID)
}

/// `(run_ns, wait_ns)` summed over the threads alive right now.
pub fn live_threads_sched() -> (u64, u64) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    tasks
        .flatten()
        .filter_map(|task| schedstat(&format!("{}/schedstat", task.path().display())))
        .fold((0, 0), |(run, wait), (r, w)| (run + r, wait + w))
}

/// Resident set size in MB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line");
    kb / 1024.0
}

/// Milliseconds a fixed pure-CPU loop takes (best of three, so a single
/// preemption does not count): the same work before and after a run
/// should take the same time unless something else is using the machine.
pub fn canary_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut rng = crate::rng::SplitMix64::new(1);
            let mut acc = 0u64;
            for _ in 0..8_000_000 {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}
