//! # report — the `graphex report` observability page
//!
//! Compiles every telemetry artifact the repo produces — the run
//! documents `benchmark --out` writes, a live server's `/debug/history`
//! ring and `/debug/traces` flight recorder, and a judged evaluation run
//! — into **one self-contained HTML page**: inline CSS, hand-rolled SVG
//! charts, zero external assets, zero scripts. The page renders from
//! `file://` on an air-gapped machine, which is the whole point: a bench
//! regression or a latency cliff should be reviewable from a CI artifact
//! without any serving infrastructure running.

#![forbid(unsafe_code)]

pub mod bench;
pub mod evalrun;
pub mod html;
pub mod svg;

pub use bench::{discover_bench_files, BenchDoc};
pub use evalrun::{run_eval, EvalRow, EvalSection};
pub use html::{escape, render, ReportInputs};
