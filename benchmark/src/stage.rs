//! Set-up shared by every workload: records in memory → pipeline build →
//! registry publish → a watch showing the new version. What serves (or
//! scores) afterwards is the snapshot the registry loaded back from
//! disk, as in production — never the builder's in-memory model.

use crate::data::Dataset;
use graphex_pipeline::{build, BuildOutput, BuildPlan, VecSource};
use graphex_server::{HistoryConfig, ServerConfig, TraceConfig};
use graphex_serving::{ModelRegistry, ModelWatch, SnapshotMeta};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads = connections = server workers = build and batch
/// jobs: the core count, at most 4 — and at least 2, so that `write_mix`
/// always has one connection reading while another writes.
pub fn concurrency() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(2, 4)
}

pub fn millis(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One full pipeline build of the dataset's records; returns the output
/// and the build's milliseconds (the record copy the source consumes is
/// the harness's, so it is made before the clock starts).
pub fn build_model(data: &Dataset) -> (BuildOutput, f64) {
    let source = VecSource::new("bench", data.records.clone());
    let plan = BuildPlan::new(data.config.clone()).jobs(concurrency());
    let started = Instant::now();
    let output = build(&plan, vec![Box::new(source)]).expect("pipeline build");
    (output, millis(started))
}

pub struct Staged {
    pub registry: Arc<ModelRegistry>,
    pub watch: ModelWatch,
    pub output: BuildOutput,
    pub build_ms: f64,
    pub publish_to_live_ms: f64,
}

/// Build, publish into a fresh registry under `root`, and wait for the
/// watch to show the published version (`publish` activates by itself).
pub fn stage(data: &Dataset, root: &Path) -> Staged {
    let (mut output, build_ms) = build_model(data);
    let registry = Arc::new(ModelRegistry::open(root).expect("open registry"));
    let started = Instant::now();
    let meta = output.publish(&registry, "bench").expect("publish");
    let watch = registry.watch().expect("watch after publish");
    assert_eq!(
        watch.version(),
        meta.version,
        "publish activates the new version"
    );
    let publish_to_live_ms = millis(started);
    Staged {
        registry,
        watch,
        output,
        build_ms,
        publish_to_live_ms,
    }
}

/// One refresh cycle on a live registry.
pub struct Cycle {
    pub meta: SnapshotMeta,
    pub build_ms: f64,
    pub publish_to_live_ms: f64,
    /// Build + publish + gc (the record copy the build's source consumes
    /// is the harness's and not counted).
    pub total_ms: f64,
}

impl Staged {
    /// Build → publish → the watch shows the new version → `gc(2)`.
    pub fn refresh(&self, data: &Dataset) -> Cycle {
        let (mut output, build_ms) = build_model(data);
        let started = Instant::now();
        let meta = output.publish(&self.registry, "refresh").expect("publish");
        assert_eq!(
            self.watch.version(),
            meta.version,
            "publish activates the new version"
        );
        let publish_to_live_ms = millis(started);
        self.registry.gc(2).expect("gc");
        Cycle {
            meta,
            build_ms,
            publish_to_live_ms,
            total_ms: build_ms + millis(started),
        }
    }
}

/// Server settings for every run: no deadline (a closed loop cannot
/// build a queue), a short keep-alive so teardown is quick, history off;
/// tracing only in the traced run.
pub fn server_config(traced: bool) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: concurrency(),
        queue_depth: 256,
        max_body_bytes: 1 << 20,
        deadline: None,
        keep_alive_timeout: Duration::from_secs(2),
        trace: TraceConfig {
            enabled: traced,
            ..TraceConfig::default()
        },
        history: HistoryConfig {
            enabled: false,
            ..HistoryConfig::default()
        },
    }
}

/// The times one set-up took.
#[derive(Clone, Copy)]
pub struct SetupTimes {
    pub setup_s: f64,
    pub build_ms: f64,
    pub publish_to_live_ms: f64,
}

impl SetupTimes {
    /// Folds extra `(build_ms, publish_to_live_ms)` samples in: the
    /// quietest of each stands.
    pub fn with_refreshes(mut self, cycles: &[(f64, f64)]) -> Self {
        for &(build_ms, live_ms) in cycles {
            self.build_ms = self.build_ms.min(build_ms);
            self.publish_to_live_ms = self.publish_to_live_ms.min(live_ms);
        }
        self
    }

    /// This set-up and `again` more, boiled down: the median `setup_s`
    /// (one set-up is too short a measurement to gate on) and the
    /// quietest build and publish. The repeats run after the timed
    /// window, each torn down before the next, so the window sees the
    /// memory of one stack, not of several.
    pub fn with_repeats(
        self,
        again: usize,
        mut set_up_and_tear_down: impl FnMut() -> Self,
    ) -> Self {
        let mut all = vec![self];
        all.extend((0..again).map(|_| set_up_and_tear_down()));
        let sorted = |pick: fn(&Self) -> f64| {
            let mut values: Vec<f64> = all.iter().map(pick).collect();
            values.sort_by(f64::total_cmp);
            values
        };
        Self {
            setup_s: sorted(|t| t.setup_s)[all.len() / 2],
            build_ms: sorted(|t| t.build_ms)[0],
            publish_to_live_ms: sorted(|t| t.publish_to_live_ms)[0],
        }
    }
}
