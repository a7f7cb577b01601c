//! Metric and workload names (the same lists `BENCHMARK.json` carries —
//! a test holds them together), the per-run report, and its three
//! renderings: one line per metric, the driver's result line, and the
//! JSON document.

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Reported by every workload with `--trace 0`. The "primary op" whose
/// latency `p50_us`/`p99_us` give is an infer request (`edge_hot`, and
/// the readers of `write_mix`), a 16-entry envelope (`router_batch`), a
/// full pass (`batch_full`) or a refresh cycle (`model_refresh`).
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("p50_us", "us"),
    lower("p99_us", "us"),
    lower("cpu_us_per_op", "us"),
    lower("rss_mb", "MB"),
    lower("build_ms", "ms"),
    lower("publish_to_live_ms", "ms"),
];

/// Reported by every workload with `--trace 1`; 0 where the workload
/// does not exercise the layer.
pub const PER_LAYER: &[Metric] = &[
    lower("server.http.read_request_ns", "ns"),
    lower("server.http.write_response_ns", "ns"),
    lower("server.json.parse_ns", "ns"),
    lower("server.json.render_ns", "ns"),
    lower("server.json.parse_batch16_ns", "ns"),
    lower("server.json.render_batch16_ns", "ns"),
    lower("server.server.healthz_p50_us", "us"),
    lower("server.server.residual_us", "us"),
    lower("server.server.connections_accepted", "count"),
    lower("server.server.shed", "count"),
    lower("server.server.shutdown_idle_ms", "ms"),
    lower("serving.kv.get_ns", "ns"),
    lower("serving.kv.put_ns", "ns"),
    lower("serving.api.serve_hit_ns", "ns"),
    lower("serving.api.serve_miss_ns", "ns"),
    higher("serving.api.hit_ratio", "ratio"),
    higher("serving.api.coalesced", "count"),
    lower("serving.api.overlay_invalidated_share", "ratio"),
    lower("core.inference.infer_ns", "ns"),
    lower("core.inference.infer_overlaid_ns", "ns"),
    lower("textkit.tokenize_ns", "ns"),
    higher("serving.batch.items_per_s_1thread", "1/s"),
    higher("serving.batch.scaling", "ratio"),
    lower("serving.overlay.apply_ns", "ns"),
    lower("serving.overlay.apply_depth128_ns", "ns"),
    lower("serving.overlay.apply_new_leaf_ns", "ns"),
    lower("serving.overlay.journal_depth_max", "count"),
    lower("core.builder.build_ms", "ms"),
    lower("pipeline.build.full_ms", "ms"),
    lower("pipeline.build.delta_ms", "ms"),
    lower("core.serialize.to_bytes_ms", "ms"),
    lower("core.serialize.load_ms", "ms"),
    lower("serving.registry.publish_ms", "ms"),
    lower("serving.registry.activate_ms", "ms"),
    lower("server.router.backend_direct_p50_us", "us"),
    lower("server.router.overhead_us", "us"),
    lower("server.router.fanout_per_envelope", "ratio"),
    lower("server.router.retries", "count"),
    lower("server.router.degraded", "count"),
    lower("server.trace.overhead_pct", "%"),
    lower("server.trace.queue_wait_p50_us", "us"),
    lower("server.trace.parse_p50_us", "us"),
    lower("server.trace.kv_lookup_p50_us", "us"),
    lower("server.trace.traversal_p50_us", "us"),
    lower("server.trace.ranking_p50_us", "us"),
    lower("server.trace.serialize_p50_us", "us"),
    lower("server.trace.fanout_p50_us", "us"),
    lower("client.p50_us", "us"),
    lower("client.upsert_p50_us", "us"),
    lower("client.p999_us", "us"),
    lower("client.max_us", "us"),
    lower("client.reconnects", "count"),
    lower("client.error_share", "ratio"),
    lower("harness.canary_ms", "ms"),
    lower("harness.sched_wait_share", "ratio"),
];

/// A per-segment (or per-pass, per-cycle) series boiled down: the
/// quietest value is what gets reported and gated; the median and the
/// inter-quartile spread ride along in the JSON document.
#[derive(Clone, Copy)]
pub struct Spread {
    pub quietest: f64,
    pub median: f64,
    /// (Q3 − Q1) ÷ median.
    pub iqr_share: f64,
    pub samples: usize,
}

pub fn spread(values: &[f64], better: Better) -> Spread {
    assert!(!values.is_empty(), "a series needs at least one value");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    // The lower middle value of an even count, so two samples give a
    // median and a maximum that differ.
    let median = sorted[(sorted.len() - 1) / 2];
    Spread {
        quietest: match better {
            Better::Lower => sorted[0],
            Better::Higher => sorted[sorted.len() - 1],
        },
        median,
        iqr_share: if median == 0.0 {
            0.0
        } else {
            (at(0.75) - at(0.25)) / median
        },
        samples: sorted.len(),
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    table: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
    spreads: BTreeMap<&'static str, Spread>,
    pub attempted: u64,
    pub failed: u64,
    /// Canary before and after; the run is `disturbed` when they differ
    /// by more than 10 %.
    pub canary_ms: (f64, f64),
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            traced,
            table: if traced { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
            spreads: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            canary_ms: (0.0, 0.0),
        }
    }

    fn metric(&self, name: &str) -> &'static Metric {
        self.table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this run"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(self.metric(name).name, value);
    }

    /// Reports the quietest value of a series, keeping its spread.
    pub fn set_series(&mut self, name: &str, values: &[f64]) {
        let metric = self.metric(name);
        let spread = spread(values, metric.better);
        self.values.insert(metric.name, spread.quietest);
        self.spreads.insert(metric.name, spread);
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One named check; a failure is logged so a wrong run says where.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("benchmark: check failed: {what}");
        }
        self.count(1, u64::from(!ok));
    }

    pub fn disturbed(&self) -> bool {
        let (before, after) = self.canary_ms;
        (after - before).abs() > 0.10 * before
    }

    /// Every metric of the run's table, in table order. An end-to-end
    /// metric a workload forgot is a bug; a layer a workload does not
    /// exercise reads 0.
    fn rows(&self) -> Vec<(&'static Metric, f64)> {
        self.table
            .iter()
            .map(|metric| {
                let value = match self.values.get(metric.name) {
                    Some(&value) => value,
                    None if self.traced => 0.0,
                    None => panic!("{} did not report {}", self.workload, metric.name),
                };
                (metric, value)
            })
            .collect()
    }

    /// `<workload> <metric> <value> <unit>`, one line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (metric, value) in self.rows() {
            out.push_str(&format!(
                "{} {} {} {}\n",
                self.workload, metric.name, value, metric.unit
            ));
        }
        out
    }

    fn metrics_json(&self) -> String {
        let rows: Vec<String> = self
            .rows()
            .iter()
            .map(|(m, v)| format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, v, m.unit))
            .collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// The driver's result line.
    pub fn result_line(&self) -> String {
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The JSON document `--out` writes. It states measurements only; a
    /// change that claims a gain writes its own claim elsewhere.
    pub fn document(&self) -> String {
        let spreads: Vec<String> = self
            .spreads
            .iter()
            .map(|(name, s)| {
                format!(
                    r#"    "{name}": {{"quietest": {}, "median": {}, "iqr_share": {}, "samples": {}}}"#,
                    s.quietest, s.median, s.iqr_share, s.samples
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \
             \"threads\": {},\n  \"cpus\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"error_share\": {},\n  \"canary_ms\": [{}, {}],\n  \"disturbed\": {},\n  \
             \"metrics\": {},\n  \"series\": {{\n{}\n  }},\n  \"claim\": null\n}}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.traced,
            crate::stage::concurrency(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.canary_ms.0,
            self.canary_ms.1,
            self.disturbed(),
            self.metrics_json(),
            spreads.join(",\n"),
        )
    }
}
