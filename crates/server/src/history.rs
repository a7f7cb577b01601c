//! Telemetry history: a fixed-size ring of periodic metric samples.
//!
//! `/metrics` and `/statusz` answer "what is the counter *now*"; this
//! module answers "what has it been doing" without a Prometheus server in
//! the loop. A background sampler thread (one per server or router
//! process) snapshots every counter, gauge, and per-stage latency
//! quantile into a [`HistorySample`] on a fixed interval, and
//! [`MetricsHistory`] retains the last `ring` samples. The ring is
//! process-local and loses nothing across model hot-swaps or tenant
//! evictions, because every sampled series is either a gauge or a
//! *lifetime-cumulative* counter (the fleet folds an evicted tenant's
//! counters into a persistent accumulator, so its series stays monotone
//! through evict/re-admit cycles).
//!
//! Surfaces:
//! * `GET /debug/history[?window=N&series=substr]` — the ring as JSON,
//!   each series with its aligned points plus a `rate_per_s` computed
//!   over the returned window (meaningful for cumulative series; for
//!   gauges it is just the end-to-end slope).
//! * a `history` block on `/statusz` — ring occupancy plus Unicode
//!   sparklines over the most recent samples, so a plain curl shows the
//!   shape of the last few minutes.
//!
//! Overhead: the hot path never touches this module. Sampling reads the
//! same atomics `/metrics` reads, once per interval, on a dedicated
//! thread; the `overheadbench` gate pins the cost below 1% of serving
//! throughput.

use crate::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Sampler knobs.
#[derive(Debug, Clone)]
pub struct HistoryConfig {
    /// Master switch: `false` spawns no sampler thread and serves 404 on
    /// `/debug/history`.
    pub enabled: bool,
    /// Time between samples.
    pub interval: Duration,
    /// Samples retained (the ring evicts oldest-first beyond this).
    pub ring: usize,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            interval: Duration::from_secs(1),
            ring: 512,
        }
    }
}

/// One sampler pass: every series value observed at one instant.
#[derive(Debug, Clone)]
pub struct HistorySample {
    /// 1-based, strictly increasing, never reused — a consumer can prove
    /// it missed nothing by checking tick contiguity.
    pub tick: u64,
    /// Milliseconds since the history was created.
    pub at_ms: u64,
    /// `(series key, value)` pairs, sorted by key. Keys are
    /// slash-namespaced (`serve/requests`, `stage/traversal/p50_us`,
    /// `tenant/acme/requests`, `backend/2/calls`).
    pub values: Vec<(String, f64)>,
}

impl HistorySample {
    /// The value of one series in this sample.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.values[i].1)
    }
}

/// The ring of completed samples plus the tick allocator.
#[derive(Debug)]
pub struct MetricsHistory {
    config: HistoryConfig,
    started: Instant,
    tick: AtomicU64,
    ring: Mutex<VecDeque<Arc<HistorySample>>>,
}

/// Series shown as `/statusz` sparklines, at most.
const STATUSZ_SPARKLINES: usize = 24;
/// Samples a `/statusz` sparkline spans, at most.
const SPARKLINE_WIDTH: usize = 32;

impl MetricsHistory {
    pub fn new(config: HistoryConfig) -> Self {
        Self {
            config,
            started: Instant::now(),
            tick: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    pub fn config(&self) -> &HistoryConfig {
        &self.config
    }

    /// Records one sampler pass. Values are sorted here so lookups can
    /// binary-search; the caller just collects.
    pub fn record(&self, mut values: Vec<(String, f64)>) -> Arc<HistorySample> {
        values.sort_by(|a, b| a.0.cmp(&b.0));
        let sample = Arc::new(HistorySample {
            tick: self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            at_ms: self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
            values,
        });
        let mut ring = self.lock_ring();
        if self.config.ring > 0 && ring.len() >= self.config.ring {
            ring.pop_front();
        }
        ring.push_back(Arc::clone(&sample));
        sample
    }

    /// Samples recorded since creation (not bounded by the ring).
    pub fn recorded(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Ring occupancy.
    pub fn len(&self) -> usize {
        self.lock_ring().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock_ring().is_empty()
    }

    /// The last `window` samples, oldest first (`usize::MAX` = all).
    pub fn samples(&self, window: usize) -> Vec<Arc<HistorySample>> {
        let ring = self.lock_ring();
        let skip = ring.len().saturating_sub(window);
        ring.iter().skip(skip).cloned().collect()
    }

    /// One series' values over the last `window` samples (samples where
    /// the series is absent are skipped).
    pub fn series(&self, key: &str, window: usize) -> Vec<f64> {
        self.samples(window)
            .iter()
            .filter_map(|s| s.value(key))
            .collect()
    }

    /// The `GET /debug/history` body. Query grammar: `window=N` keeps
    /// the newest N samples, `series=substr` keeps series whose key
    /// contains the substring.
    pub fn render_debug(&self, query: Option<&str>) -> String {
        let mut window = usize::MAX;
        let mut filter = String::new();
        for part in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=').unwrap_or((part, ""));
            match key {
                "window" => window = value.parse().unwrap_or(usize::MAX),
                "series" => filter = value.to_string(),
                _ => {}
            }
        }
        let samples = self.samples(window);
        let span_ms = match (samples.first(), samples.last()) {
            (Some(first), Some(last)) => last.at_ms.saturating_sub(first.at_ms),
            _ => 0,
        };
        // Union of keys across the window (a tenant admitted mid-window
        // contributes a series with leading nulls, not a shifted one).
        let mut keys: BTreeMap<&str, ()> = BTreeMap::new();
        for sample in &samples {
            for (key, _) in &sample.values {
                if filter.is_empty() || key.contains(&filter) {
                    keys.insert(key, ());
                }
            }
        }
        let series: Vec<(&str, Json)> = keys
            .keys()
            .map(|&key| {
                let points: Vec<Json> = samples
                    .iter()
                    .map(|s| s.value(key).map_or(Json::Null, Json::num))
                    .collect();
                let present: Vec<f64> = samples.iter().filter_map(|s| s.value(key)).collect();
                let mut fields = vec![("points", Json::Arr(points))];
                if let (Some(&first), Some(&last)) = (present.first(), present.last()) {
                    fields.push(("last", Json::num(last)));
                    if span_ms > 0 {
                        fields.push((
                            "rate_per_s",
                            Json::num((last - first) / (span_ms as f64 / 1e3)),
                        ));
                    }
                }
                (key, Json::obj(fields))
            })
            .collect();
        Json::obj(vec![
            (
                "interval_ms",
                Json::num(self.config.interval.as_millis() as f64),
            ),
            ("ring", Json::uint(self.config.ring as u64)),
            ("recorded", Json::uint(self.recorded())),
            ("samples", Json::uint(samples.len() as u64)),
            ("span_ms", Json::uint(span_ms)),
            (
                "ticks",
                Json::Arr(samples.iter().map(|s| Json::uint(s.tick)).collect()),
            ),
            (
                "at_ms",
                Json::Arr(samples.iter().map(|s| Json::uint(s.at_ms)).collect()),
            ),
            ("series", Json::obj(series)),
        ])
        .render()
    }

    /// The `/statusz` history block: ring occupancy plus sparklines over
    /// the most recent samples (alphabetical, capped so a curl stays
    /// readable).
    pub fn statusz_json(&self) -> Json {
        let samples = self.samples(SPARKLINE_WIDTH);
        let mut keys: BTreeMap<&str, ()> = BTreeMap::new();
        for sample in &samples {
            for (key, _) in &sample.values {
                keys.insert(key, ());
            }
        }
        let sparklines: Vec<(&str, Json)> = keys
            .keys()
            .take(STATUSZ_SPARKLINES)
            .map(|&key| {
                let points: Vec<f64> = samples.iter().filter_map(|s| s.value(key)).collect();
                (key, Json::str(sparkline(&points)))
            })
            .collect();
        Json::obj(vec![
            ("enabled", Json::Bool(self.config.enabled)),
            (
                "interval_ms",
                Json::num(self.config.interval.as_millis() as f64),
            ),
            ("recorded", Json::uint(self.recorded())),
            ("samples", Json::uint(self.len() as u64)),
            ("sparklines", Json::obj(sparklines)),
        ])
    }

    fn lock_ring(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<HistorySample>>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Renders values as a Unicode block sparkline, scaled min..max (a flat
/// series renders as all-low, an empty one as "").
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() {
        return String::new();
    }
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return BLOCKS[0];
            }
            let idx = if span <= f64::EPSILON {
                0
            } else {
                (((v - lo) / span) * (BLOCKS.len() - 1) as f64).round() as usize
            };
            BLOCKS[idx.min(BLOCKS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(ring: usize) -> MetricsHistory {
        MetricsHistory::new(HistoryConfig {
            enabled: true,
            interval: Duration::from_millis(10),
            ring,
        })
    }

    fn kv(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn ticks_are_contiguous_and_ring_caps() {
        let h = history(3);
        for i in 0..5 {
            h.record(kv(&[("a", i as f64)]));
        }
        assert_eq!(h.recorded(), 5);
        let samples = h.samples(usize::MAX);
        assert_eq!(samples.len(), 3);
        assert_eq!(
            samples.iter().map(|s| s.tick).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "oldest evicted, ticks contiguous"
        );
        assert_eq!(h.series("a", usize::MAX), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn debug_rendering_filters_and_windows() {
        let h = history(16);
        h.record(kv(&[("serve/requests", 10.0), ("queue/depth", 1.0)]));
        h.record(kv(&[("serve/requests", 30.0), ("queue/depth", 0.0)]));
        let all = h.render_debug(None);
        let parsed = crate::json::parse(&all).expect("valid JSON");
        let series = parsed.get("series").unwrap();
        assert!(series.get("serve/requests").is_some(), "{all}");
        assert!(series.get("queue/depth").is_some(), "{all}");
        let points = series.get("serve/requests").unwrap().get("points").unwrap();
        assert_eq!(points.as_arr().unwrap().len(), 2);
        assert_eq!(
            series
                .get("serve/requests")
                .unwrap()
                .get("last")
                .unwrap()
                .as_f64(),
            Some(30.0)
        );

        let filtered = h.render_debug(Some("series=serve"));
        let parsed = crate::json::parse(&filtered).unwrap();
        assert!(
            parsed.get("series").unwrap().get("queue/depth").is_none(),
            "{filtered}"
        );

        let windowed = h.render_debug(Some("window=1"));
        let parsed = crate::json::parse(&windowed).unwrap();
        assert_eq!(parsed.get("samples").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn sparse_series_align_with_nulls() {
        let h = history(8);
        h.record(kv(&[("a", 1.0)]));
        h.record(kv(&[("a", 2.0), ("tenant/late/requests", 5.0)]));
        let parsed = crate::json::parse(&h.render_debug(None)).unwrap();
        let late = parsed
            .get("series")
            .unwrap()
            .get("tenant/late/requests")
            .unwrap();
        let points = late.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 2);
        assert!(matches!(points[0], Json::Null));
        assert_eq!(points[1].as_f64(), Some(5.0));
        assert_eq!(late.get("last").unwrap().as_f64(), Some(5.0));
    }

    #[test]
    fn statusz_block_renders_sparklines() {
        let h = history(8);
        for i in 0..4 {
            h.record(kv(&[("serve/requests", (i * i) as f64)]));
        }
        let block = h.statusz_json().render();
        assert!(block.contains("sparklines"), "{block}");
        assert!(block.contains("serve/requests"), "{block}");
        let parsed = crate::json::parse(&block).unwrap();
        let line = parsed
            .get("sparklines")
            .unwrap()
            .get("serve/requests")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(line.chars().count(), 4);
    }

    #[test]
    fn sparkline_scales_and_handles_edges() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▁▁▁");
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(line, "▁▂▃▄▅▆▇█");
        assert_eq!(sparkline(&[f64::NAN, 1.0]).chars().count(), 2);
    }
}
