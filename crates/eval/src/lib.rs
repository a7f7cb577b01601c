//! # eval — the GraphEx paper's evaluation framework (Sec. IV-C)
//!
//! Click-based precision/recall is unreliable here (sparse MNAR ground
//! truths, model convergence — Sec. I-A3), so the paper evaluates with an
//! **AI judge** (Mixtral-8x7B, >90 % aligned with human judgement) plus a
//! metric set designed for variable-length prediction lists:
//!
//! * **RP** — relevant proportion: relevant / total predictions.
//! * **HP** — head proportion: relevant *head* / total predictions.
//! * **RRR / RHR** — relative relevant/head ratio between two models
//!   (GraphEx in the denominator throughout the paper).
//! * **Exclusive diversity** — relevant head keyphrases *unique to one
//!   retrieval source* (Fig. 5 / Table IV), which is what drives
//!   incremental revenue in a multi-source production stack.
//! * **Relative precision/recall vs the Rules Engine** (Table V), where low
//!   recall is *good* — it means fewer predictions are de-duplicated away
//!   against the 100 %-recall RE source.
//!
//! The judge here is the simulator's exact relevance oracle flipped with
//! deterministic noise (default 8 %, mirroring the paper's ≤10 % judge
//! disagreement); see [`judge::RelevanceJudge`].

#![forbid(unsafe_code)]

pub mod capabilities;
pub mod harness;
pub mod judge;
pub mod metrics;

pub use capabilities::{framework_capabilities, FrameworkRow};
pub use harness::{Evaluation, JudgedPrediction, ModelOutcome};
pub use judge::{HeadThreshold, RelevanceJudge};
pub use metrics::{
    exclusive_relevant_head, precision_recall_vs, topk_diversity, Fig4Row, PrScores, TopkDiversity,
};
