//! Evaluation runner: feed test items through every model, judge every
//! prediction, aggregate.

use crate::judge::{HeadThreshold, RelevanceJudge};
use graphex_baselines::{ItemRef, Recommender};
use graphex_marketsim::catalog::Item;
use graphex_marketsim::CategoryDataset;

/// One judged prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct JudgedPrediction {
    pub text: String,
    /// AI-judge verdict.
    pub relevant: bool,
    /// Evaluation-window head classification (only meaningful when
    /// `relevant`; the paper's "Relevant Head Keyphrases").
    pub head: bool,
}

/// Everything one model produced over the test set.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    pub name: String,
    /// Judged predictions, per test item (parallel to `Evaluation::items`).
    pub per_item: Vec<Vec<JudgedPrediction>>,
}

impl ModelOutcome {
    pub fn total_predictions(&self) -> usize {
        self.per_item.iter().map(Vec::len).sum()
    }

    pub fn relevant(&self) -> usize {
        self.per_item
            .iter()
            .flatten()
            .filter(|p| p.relevant)
            .count()
    }

    pub fn relevant_head(&self) -> usize {
        self.per_item
            .iter()
            .flatten()
            .filter(|p| p.relevant && p.head)
            .count()
    }

    pub fn relevant_tail(&self) -> usize {
        self.per_item
            .iter()
            .flatten()
            .filter(|p| p.relevant && !p.head)
            .count()
    }

    pub fn irrelevant(&self) -> usize {
        self.per_item
            .iter()
            .flatten()
            .filter(|p| !p.relevant)
            .count()
    }

    /// Relevant Proportion (RP).
    pub fn rp(&self) -> f64 {
        ratio(self.relevant(), self.total_predictions())
    }

    /// Head Proportion (HP).
    pub fn hp(&self) -> f64 {
        ratio(self.relevant_head(), self.total_predictions())
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A full evaluation over one category.
#[derive(Debug)]
pub struct Evaluation {
    /// Item ids of the test set.
    pub items: Vec<u32>,
    pub models: Vec<ModelOutcome>,
    pub head_threshold: HeadThreshold,
}

impl Evaluation {
    /// Runs every model over `test_items`, capping each model at `k`
    /// predictions per item (the paper caps at 40), judging each prediction
    /// with `judge`.
    pub fn run(
        ds: &CategoryDataset,
        models: &[&dyn Recommender],
        test_items: &[&Item],
        k: usize,
        judge: &RelevanceJudge<'_>,
    ) -> Self {
        let head_threshold = HeadThreshold::from_dataset(ds);
        let mut outcomes = Vec::with_capacity(models.len());
        for model in models {
            let mut per_item = Vec::with_capacity(test_items.len());
            for item in test_items {
                let recs = model.recommend(&ItemRef::known(item.id, &item.title, item.leaf), k);
                let judged: Vec<JudgedPrediction> = recs
                    .into_iter()
                    .map(|rec| {
                        let relevant = judge.judge(item, &rec.text);
                        let head =
                            relevant && head_threshold.is_head(ds.eval_search_count(&rec.text));
                        JudgedPrediction {
                            text: rec.text,
                            relevant,
                            head,
                        }
                    })
                    .collect();
                per_item.push(judged);
            }
            outcomes.push(ModelOutcome {
                name: model.name().to_string(),
                per_item,
            });
        }
        Self {
            items: test_items.iter().map(|i| i.id).collect(),
            models: outcomes,
            head_threshold,
        }
    }

    /// Outcome of a model by name.
    pub fn model(&self, name: &str) -> Option<&ModelOutcome> {
        self.models.iter().find(|m| m.name == name)
    }

    /// Relative Relevant Ratio of `model` vs `reference`
    /// (`# relevant_model / # relevant_reference`, paper Sec. IV-C).
    pub fn rrr(&self, model: &str, reference: &str) -> f64 {
        let m = self.model(model).map_or(0, ModelOutcome::relevant);
        let r = self.model(reference).map_or(0, ModelOutcome::relevant);
        ratio(m, r)
    }

    /// Relative Head Ratio of `model` vs `reference`.
    pub fn rhr(&self, model: &str, reference: &str) -> f64 {
        let m = self.model(model).map_or(0, ModelOutcome::relevant_head);
        let r = self.model(reference).map_or(0, ModelOutcome::relevant_head);
        ratio(m, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_baselines::Rec;
    use graphex_marketsim::CategorySpec;

    /// A scripted fake recommender for harness-level tests.
    struct Fixed {
        name: &'static str,
        recs: Vec<Rec>,
    }

    impl Recommender for Fixed {
        fn name(&self) -> &'static str {
            self.name
        }

        fn recommend(&self, _item: &ItemRef<'_>, k: usize) -> Vec<Rec> {
            self.recs.iter().take(k).cloned().collect()
        }

        fn size_bytes(&self) -> usize {
            0
        }

        fn cold_start_capable(&self) -> bool {
            true
        }
    }

    #[test]
    fn outcome_aggregates() {
        let outcome = ModelOutcome {
            name: "X".into(),
            per_item: vec![
                vec![
                    JudgedPrediction {
                        text: "a".into(),
                        relevant: true,
                        head: true,
                    },
                    JudgedPrediction {
                        text: "b".into(),
                        relevant: true,
                        head: false,
                    },
                    JudgedPrediction {
                        text: "c".into(),
                        relevant: false,
                        head: false,
                    },
                ],
                vec![JudgedPrediction {
                    text: "d".into(),
                    relevant: false,
                    head: false,
                }],
            ],
        };
        assert_eq!(outcome.total_predictions(), 4);
        assert_eq!(outcome.relevant(), 2);
        assert_eq!(outcome.relevant_head(), 1);
        assert_eq!(outcome.relevant_tail(), 1);
        assert_eq!(outcome.irrelevant(), 2);
        assert!((outcome.rp() - 0.5).abs() < 1e-12);
        assert!((outcome.hp() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn run_with_real_dataset_and_fixed_models() {
        let ds = CategoryDataset::generate(CategorySpec::tiny(111));
        let judge = RelevanceJudge::with_noise(&ds, 0.0, 1);
        let items = ds.test_items(10, 1);
        // Model A recommends each item's own generic type query (always
        // relevant); model B recommends gibberish (always irrelevant).
        let own_type_query = {
            let item = items[0];
            let q = ds
                .oracle()
                .relevant_queries(item)
                .into_iter()
                .find(|q| q.constraint.product.is_none())
                .unwrap();
            q.text.clone()
        };
        let a = Fixed {
            name: "A",
            recs: vec![Rec {
                text: own_type_query,
                score: 1.0,
            }],
        };
        let b = Fixed {
            name: "B",
            recs: vec![Rec {
                text: "made up phrase".into(),
                score: 1.0,
            }],
        };
        let test_items: Vec<&graphex_marketsim::catalog::Item> = vec![items[0]];
        let eval = Evaluation::run(&ds, &[&a, &b], &test_items, 40, &judge);
        assert_eq!(eval.model("A").unwrap().relevant(), 1);
        assert_eq!(eval.model("B").unwrap().relevant(), 0);
        assert_eq!(eval.model("B").unwrap().irrelevant(), 1);
        assert_eq!(eval.rrr("B", "A"), 0.0);
        assert!(eval.model("missing").is_none());
    }

    #[test]
    fn rrr_rhr_reference_semantics() {
        let mk = |name: &'static str, rel: usize, head: usize| ModelOutcome {
            name: name.into(),
            per_item: vec![(0..rel)
                .map(|i| JudgedPrediction {
                    text: format!("p{i}"),
                    relevant: true,
                    head: i < head,
                })
                .collect()],
        };
        let eval = Evaluation {
            items: vec![0],
            models: vec![mk("GraphEx", 10, 4), mk("fastText", 5, 2)],
            head_threshold: HeadThreshold {
                min_search_count: 0,
            },
        };
        assert!((eval.rrr("fastText", "GraphEx") - 0.5).abs() < 1e-12);
        assert!((eval.rhr("fastText", "GraphEx") - 0.5).abs() < 1e-12);
        assert!((eval.rrr("GraphEx", "GraphEx") - 1.0).abs() < 1e-12);
    }
}
