//! The closed-loop load driver: one client thread per connection, a
//! warm-up, then a timed window cut into equal segments. Every metric is
//! computed per segment so the report can pick the quietest one — noise
//! from neighbours on a shared box only ever makes a segment slower.

use crate::client::Conn;
use crate::hist::Hist;
use crate::proc;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What an exchange was, and whether its answer was correct.
pub enum Done {
    /// The workload's primary op; the loop times it.
    Primary { ok: bool },
    /// Something else the same connection does now and then
    /// (`write_mix`'s upserts, each with its read-back); it timed itself,
    /// `nanos` from send to ack.
    Side { ok: bool, nanos: u64 },
}

/// One client's request stream. `prepare` renders the next request
/// (untimed); `exchange` sends it, reads the reply, checks it (timed).
pub trait Op: Send {
    fn prepare(&mut self);
    fn exchange(&mut self, conn: &mut Conn) -> std::io::Result<Done>;
}

/// Segment length aimed for: long enough that the slowest HTTP workload
/// still leaves a few dozen samples beyond its p99 in each, short enough
/// that a run has several to pick the quietest from.
const SEGMENT_SECS: f64 = 0.5;

/// Warm-up, then `segments` segments of `seg_len` each.
pub struct Window {
    start: Instant,
    seg_len: Duration,
    pub segments: usize,
}

impl Window {
    /// `seconds` of measurement in equal segments of about
    /// [`SEGMENT_SECS`], after a warm-up of a tenth of that (at most 1 s).
    pub fn opening_now(seconds: f64) -> Self {
        let segments = ((seconds / SEGMENT_SECS).round() as usize).max(1);
        Self {
            start: Instant::now() + Duration::from_secs_f64((seconds / 10.0).min(1.0)),
            seg_len: Duration::from_secs_f64(seconds / segments as f64),
            segments,
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn end(&self) -> Instant {
        self.boundary(self.segments)
    }

    /// Where segment `index` starts (`segments` itself: where the window
    /// ends).
    pub fn boundary(&self, index: usize) -> Instant {
        self.start + self.seg_len * index as u32
    }

    pub fn seg_secs(&self) -> f64 {
        self.seg_len.as_secs_f64()
    }

    /// Segment an instant falls in; `None` during warm-up.
    pub fn segment_of(&self, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(self.start)?;
        Some(((since.as_nanos() / self.seg_len.as_nanos()) as usize).min(self.segments - 1))
    }

    pub fn over(&self, at: Instant) -> bool {
        at >= self.end()
    }
}

fn sleep_until(at: Instant) {
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
}

/// What one client thread saw inside the window.
pub struct ClientReport {
    /// Latency of correct primary ops, by segment of the op's start.
    pub latency: Vec<Hist>,
    /// Latency of correct side ops, over the whole window.
    pub side: Hist,
    pub attempted: u64,
    pub failed: u64,
    pub reconnects: u64,
    /// This thread's own CPU per segment — the instrument's cost,
    /// subtracted from the process total.
    pub cpu_nanos: Vec<u64>,
}

/// Follows one client thread's CPU and reconnects across segments.
pub struct ClientMeter {
    segment: usize,
    cpu_at_segment_start: u64,
    reconnects_at_start: u64,
}

impl ClientMeter {
    /// Call before each op that falls in `segment`; charges the CPU used
    /// since the previous boundary to the segment it was used in.
    pub fn enter(
        meter: &mut Option<Self>,
        report: &mut ClientReport,
        segment: usize,
        reconnects: u64,
    ) {
        let now = proc::thread_run_nanos();
        match meter {
            None => {
                *meter = Some(Self {
                    segment,
                    cpu_at_segment_start: now,
                    reconnects_at_start: reconnects,
                })
            }
            Some(m) if m.segment != segment => {
                report.cpu_nanos[m.segment] += now - m.cpu_at_segment_start;
                m.segment = segment;
                m.cpu_at_segment_start = now;
            }
            Some(_) => {}
        }
    }

    /// Call once after the last op.
    pub fn finish(meter: Option<Self>, report: &mut ClientReport, reconnects: u64) {
        if let Some(m) = meter {
            report.cpu_nanos[m.segment] += proc::thread_run_nanos() - m.cpu_at_segment_start;
            report.reconnects = reconnects - m.reconnects_at_start;
        }
    }
}

impl ClientReport {
    pub fn new(segments: usize) -> Self {
        Self {
            latency: vec![Hist::default(); segments],
            side: Hist::default(),
            attempted: 0,
            failed: 0,
            reconnects: 0,
            cpu_nanos: vec![0; segments],
        }
    }
}

/// Runs `op` back to back on one connection until the window closes.
pub fn closed_loop(window: &Window, addr: SocketAddr, op: &mut impl Op) -> ClientReport {
    let mut report = ClientReport::new(window.segments);
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(_) => {
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    let mut meter = None;
    let mut last_segment = usize::MAX;
    loop {
        op.prepare();
        let sent = Instant::now();
        if window.over(sent) {
            break;
        }
        let segment = window.segment_of(sent);
        if let Some(segment) = segment.filter(|&s| s != last_segment) {
            ClientMeter::enter(&mut meter, &mut report, segment, conn.reconnects);
            last_segment = segment;
        }
        let outcome = op.exchange(&mut conn);
        let nanos = sent.elapsed().as_nanos() as u64;
        let Some(segment) = segment else { continue };
        report.attempted += 1;
        match outcome {
            Ok(Done::Primary { ok: true }) => report.latency[segment].record(nanos),
            Ok(Done::Side { ok: true, nanos }) => report.side.record(nanos),
            Ok(_) | Err(_) => report.failed += 1,
        }
    }
    ClientMeter::finish(meter, &mut report, conn.reconnects);
    report
}

/// Operating-system counters at one edge of the window.
#[derive(Clone, Copy)]
pub struct OsSample {
    pub cpu_secs: f64,
    pub run_nanos: u64,
    pub wait_nanos: u64,
}

impl OsSample {
    pub fn take() -> Self {
        let (run_nanos, wait_nanos) = proc::live_threads_sched();
        Self {
            cpu_secs: proc::process_cpu_secs(),
            run_nanos,
            wait_nanos,
        }
    }
}

/// Σ scheduler wait ÷ Σ on-CPU time between two samples: how contended
/// the cores were.
pub fn sched_wait_share(before: &OsSample, after: &OsSample) -> f64 {
    let run = after.run_nanos.saturating_sub(before.run_nanos);
    let wait = after.wait_nanos.saturating_sub(before.wait_nanos);
    if run == 0 {
        0.0
    } else {
        wait as f64 / run as f64
    }
}

/// The window as the main thread saw it: OS counters at every segment
/// boundary, resident memory at the close, and whatever program counters
/// `S` the workload samples at the two ends (e.g. `ServeStats`).
pub struct Edges<S> {
    pub os: Vec<OsSample>,
    pub rss_mb: f64,
    pub program: (S, S),
}

impl<S> Edges<S> {
    /// Sleeps through the window on the calling thread, sampling at each
    /// boundary, while the client threads run.
    pub fn watch(window: &Window, sample: impl Fn() -> S) -> Self {
        sleep_until(window.start());
        let before = sample();
        let os = (0..=window.segments)
            .map(|boundary| {
                sleep_until(window.boundary(boundary));
                OsSample::take()
            })
            .collect();
        Self {
            os,
            rss_mb: proc::rss_mb(),
            program: (before, sample()),
        }
    }

    /// Process CPU seconds used inside each segment.
    pub fn cpu_secs(&self) -> Vec<f64> {
        self.os
            .windows(2)
            .map(|pair| pair[1].cpu_secs - pair[0].cpu_secs)
            .collect()
    }

    pub fn sched_wait_share(&self) -> f64 {
        sched_wait_share(&self.os[0], &self.os[self.os.len() - 1])
    }
}
