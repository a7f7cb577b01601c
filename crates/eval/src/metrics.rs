//! Cross-model metrics: Fig. 4 rows, exclusive diversity (Fig. 5 /
//! Table IV), and relative precision/recall (Table V).

use crate::harness::Evaluation;
use graphex_textkit::FxHashSet;

/// One bar group of the paper's Fig. 4: average per-item counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    pub model: String,
    pub avg_irrelevant: f64,
    pub avg_relevant_tail: f64,
    pub avg_relevant_head: f64,
    pub avg_total: f64,
}

/// Computes Fig. 4's per-model averages.
pub fn fig4_rows(eval: &Evaluation) -> Vec<Fig4Row> {
    let n = eval.items.len().max(1) as f64;
    eval.models
        .iter()
        .map(|m| Fig4Row {
            model: m.name.clone(),
            avg_irrelevant: m.irrelevant() as f64 / n,
            avg_relevant_tail: m.relevant_tail() as f64 / n,
            avg_relevant_head: m.relevant_head() as f64 / n,
            avg_total: m.total_predictions() as f64 / n,
        })
        .collect()
}

/// Average per-item count of **exclusive relevant head** keyphrases per
/// model: judged relevant+head and predicted by *no other* model for that
/// item (the crossed-out regions of the paper's Fig. 5 Venn diagram).
///
/// Returns `(model name, avg exclusive relevant head per item)`.
pub fn exclusive_relevant_head(eval: &Evaluation) -> Vec<(String, f64)> {
    let num_items = eval.items.len();
    let mut out = Vec::with_capacity(eval.models.len());
    for (mi, model) in eval.models.iter().enumerate() {
        let mut exclusive_total = 0usize;
        for item_idx in 0..num_items {
            // Union of every other model's predictions for this item.
            let mut others: FxHashSet<&str> = FxHashSet::default();
            for (oi, other) in eval.models.iter().enumerate() {
                if oi == mi {
                    continue;
                }
                others.extend(other.per_item[item_idx].iter().map(|p| p.text.as_str()));
            }
            exclusive_total += model.per_item[item_idx]
                .iter()
                .filter(|p| p.relevant && p.head && !others.contains(p.text.as_str()))
                .count();
        }
        out.push((
            model.name.clone(),
            exclusive_total as f64 / num_items.max(1) as f64,
        ));
    }
    out
}

/// Pairwise overlap counts for the Fig. 5 Venn rendering:
/// `(model, unique_count, shared_count)` over all items.
pub fn venn_counts(eval: &Evaluation) -> Vec<(String, usize, usize)> {
    let num_items = eval.items.len();
    let mut out = Vec::with_capacity(eval.models.len());
    for (mi, model) in eval.models.iter().enumerate() {
        let mut unique = 0usize;
        let mut shared = 0usize;
        for item_idx in 0..num_items {
            let mut others: FxHashSet<&str> = FxHashSet::default();
            for (oi, other) in eval.models.iter().enumerate() {
                if oi != mi {
                    others.extend(other.per_item[item_idx].iter().map(|p| p.text.as_str()));
                }
            }
            for p in &model.per_item[item_idx] {
                if others.contains(p.text.as_str()) {
                    shared += 1;
                } else {
                    unique += 1;
                }
            }
        }
        out.push((model.name.clone(), unique, shared));
    }
    out
}

/// Macro-averaged precision/recall of a model against a ground-truth model's
/// predictions (the paper's Table V uses RE as ground truth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrScores {
    pub precision: f64,
    pub recall: f64,
}

/// Computes `model`'s precision/recall treating `ground_truth`'s per-item
/// prediction sets as labels. Items where the ground truth is empty are
/// skipped (no labels to score against).
pub fn precision_recall_vs(eval: &Evaluation, model: &str, ground_truth: &str) -> PrScores {
    let (Some(m), Some(gt)) = (eval.model(model), eval.model(ground_truth)) else {
        return PrScores {
            precision: 0.0,
            recall: 0.0,
        };
    };
    let mut precision_sum = 0.0;
    let mut recall_sum = 0.0;
    let mut counted = 0usize;
    for (preds, labels) in m.per_item.iter().zip(&gt.per_item) {
        if labels.is_empty() {
            continue;
        }
        counted += 1;
        let label_set: FxHashSet<&str> = labels.iter().map(|p| p.text.as_str()).collect();
        let hits = preds
            .iter()
            .filter(|p| label_set.contains(p.text.as_str()))
            .count();
        if !preds.is_empty() {
            precision_sum += hits as f64 / preds.len() as f64;
        }
        recall_sum += hits as f64 / label_set.len() as f64;
    }
    if counted == 0 {
        return PrScores {
            precision: 0.0,
            recall: 0.0,
        };
    }
    PrScores {
        precision: precision_sum / counted as f64,
        recall: recall_sum / counted as f64,
    }
}

/// Perception-centred top-k set quality (the "From Precision to
/// Perception" axes, arXiv:2504.21667): precision metrics cannot tell a
/// varied top-k from ten paraphrases of the winner, so these score the
/// *set*, not its members.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkDiversity {
    pub model: String,
    /// Intra-list diversity: mean pairwise `1 − Jaccard(token sets)`
    /// over each item's top-k, macro-averaged across items. 1.0 = every
    /// pair of predictions is lexically disjoint.
    pub diversity: f64,
    /// Marginal redundancy: for each prediction after the first, its max
    /// Jaccard similarity to any *earlier-ranked* prediction, averaged.
    /// High = later ranks mostly re-say earlier ones.
    pub redundancy: f64,
    /// Distinct-token ratio: unique tokens across the top-k over total
    /// tokens emitted, macro-averaged. A vocabulary-width complement to
    /// the pairwise measures.
    pub distinct_token_ratio: f64,
}

/// Lowercased whitespace token set of one keyphrase.
fn token_set(text: &str) -> FxHashSet<String> {
    text.split_whitespace().map(|t| t.to_lowercase()).collect()
}

fn jaccard(a: &FxHashSet<String>, b: &FxHashSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0; // two empty phrases are identical, not disjoint
    }
    let inter = a.iter().filter(|t| b.contains(*t)).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union.max(1) as f64
}

/// Scores every model's top-k diversity/redundancy (see
/// [`TopkDiversity`]). Items with fewer than two predictions contribute
/// nothing to the pairwise measures (there is no pair to compare) but
/// still count toward the distinct-token ratio.
pub fn topk_diversity(eval: &Evaluation) -> Vec<TopkDiversity> {
    eval.models
        .iter()
        .map(|m| {
            let mut diversity_sum = 0.0;
            let mut diversity_items = 0usize;
            let mut redundancy_sum = 0.0;
            let mut redundancy_items = 0usize;
            let mut distinct_sum = 0.0;
            let mut distinct_items = 0usize;
            for preds in &m.per_item {
                if preds.is_empty() {
                    continue;
                }
                let tokens: Vec<FxHashSet<String>> =
                    preds.iter().map(|p| token_set(&p.text)).collect();
                let total_tokens: usize = tokens.iter().map(FxHashSet::len).sum();
                if total_tokens > 0 {
                    let mut vocabulary: FxHashSet<&String> = FxHashSet::default();
                    for set in &tokens {
                        vocabulary.extend(set.iter());
                    }
                    distinct_sum += vocabulary.len() as f64 / total_tokens as f64;
                    distinct_items += 1;
                }
                if tokens.len() < 2 {
                    continue;
                }
                let mut pair_sum = 0.0;
                let mut pairs = 0usize;
                let mut marginal_sum = 0.0;
                for i in 1..tokens.len() {
                    let mut max_similarity = 0.0f64;
                    for j in 0..i {
                        let similarity = jaccard(&tokens[i], &tokens[j]);
                        pair_sum += 1.0 - similarity;
                        pairs += 1;
                        max_similarity = max_similarity.max(similarity);
                    }
                    marginal_sum += max_similarity;
                }
                diversity_sum += pair_sum / pairs as f64;
                diversity_items += 1;
                redundancy_sum += marginal_sum / (tokens.len() - 1) as f64;
                redundancy_items += 1;
            }
            let avg = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
            TopkDiversity {
                model: m.name.clone(),
                diversity: avg(diversity_sum, diversity_items),
                redundancy: avg(redundancy_sum, redundancy_items),
                distinct_token_ratio: avg(distinct_sum, distinct_items),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{JudgedPrediction, ModelOutcome};
    use crate::judge::HeadThreshold;

    fn pred(text: &str, relevant: bool, head: bool) -> JudgedPrediction {
        JudgedPrediction {
            text: text.into(),
            relevant,
            head,
        }
    }

    fn eval_fixture() -> Evaluation {
        // Two items, three models.
        let a = ModelOutcome {
            name: "A".into(),
            per_item: vec![
                vec![
                    pred("x", true, true),
                    pred("y", true, false),
                    pred("z", false, false),
                ],
                vec![pred("w", true, true)],
            ],
        };
        let b = ModelOutcome {
            name: "B".into(),
            per_item: vec![vec![pred("x", true, true), pred("q", true, true)], vec![]],
        };
        let c = ModelOutcome {
            name: "C".into(),
            per_item: vec![vec![pred("z", false, false)], vec![pred("w", true, true)]],
        };
        Evaluation {
            items: vec![0, 1],
            models: vec![a, b, c],
            head_threshold: HeadThreshold {
                min_search_count: 0,
            },
        }
    }

    #[test]
    fn fig4_averages() {
        let eval = eval_fixture();
        let rows = fig4_rows(&eval);
        let a = &rows[0];
        assert_eq!(a.model, "A");
        assert!((a.avg_total - 2.0).abs() < 1e-12); // 4 preds / 2 items
        assert!((a.avg_irrelevant - 0.5).abs() < 1e-12);
        assert!((a.avg_relevant_head - 1.0).abs() < 1e-12); // x, w
        assert!((a.avg_relevant_tail - 0.5).abs() < 1e-12); // y
    }

    #[test]
    fn exclusive_head_excludes_shared_texts() {
        let eval = eval_fixture();
        let ex = exclusive_relevant_head(&eval);
        // A: item0 — "x" shared with B → not exclusive; item1 — "w" shared
        // with C → not exclusive. A total 0.
        assert_eq!(ex[0], ("A".to_string(), 0.0));
        // B: "x" shared; "q" exclusive relevant head → 1 over 2 items = 0.5.
        assert_eq!(ex[1], ("B".to_string(), 0.5));
        // C: "z" irrelevant, "w" shared → 0.
        assert_eq!(ex[2], ("C".to_string(), 0.0));
    }

    #[test]
    fn venn_counts_unique_plus_shared_is_total() {
        let eval = eval_fixture();
        for (name, unique, shared) in venn_counts(&eval) {
            let m = eval.model(&name).unwrap();
            assert_eq!(unique + shared, m.total_predictions());
        }
    }

    #[test]
    fn precision_recall_vs_ground_truth() {
        let eval = eval_fixture();
        // Use B as ground truth: item0 labels {x,q}; item1 labels {} (skipped).
        // A's item0 preds {x,y,z}: hits 1 → P=1/3, R=1/2.
        let pr = precision_recall_vs(&eval, "A", "B");
        assert!((pr.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((pr.recall - 0.5).abs() < 1e-12);
        // Perfect self-comparison.
        let self_pr = precision_recall_vs(&eval, "B", "B");
        assert!((self_pr.precision - 1.0).abs() < 1e-12);
        assert!((self_pr.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_models_yield_zero() {
        let eval = eval_fixture();
        let pr = precision_recall_vs(&eval, "nope", "B");
        assert_eq!(
            pr,
            PrScores {
                precision: 0.0,
                recall: 0.0
            }
        );
    }

    fn judged(text: &str) -> crate::harness::JudgedPrediction {
        crate::harness::JudgedPrediction {
            text: text.into(),
            relevant: true,
            head: false,
        }
    }

    fn diversity_eval(per_item: Vec<Vec<&str>>) -> Evaluation {
        Evaluation {
            items: (0..per_item.len() as u32).collect(),
            models: vec![crate::harness::ModelOutcome {
                name: "M".into(),
                per_item: per_item
                    .into_iter()
                    .map(|preds| preds.into_iter().map(judged).collect())
                    .collect(),
            }],
            head_threshold: HeadThreshold {
                min_search_count: 0,
            },
        }
    }

    #[test]
    fn disjoint_topk_scores_full_diversity_zero_redundancy() {
        let eval = diversity_eval(vec![vec!["alpha one", "beta two", "gamma three"]]);
        let scores = topk_diversity(&eval);
        let m = &scores[0];
        assert!((m.diversity - 1.0).abs() < 1e-12, "{m:?}");
        assert!(m.redundancy.abs() < 1e-12, "{m:?}");
        assert!((m.distinct_token_ratio - 1.0).abs() < 1e-12, "{m:?}");
    }

    #[test]
    fn duplicate_topk_scores_zero_diversity_full_redundancy() {
        let eval = diversity_eval(vec![vec!["solar panel", "solar panel", "solar panel"]]);
        let scores = topk_diversity(&eval);
        let m = &scores[0];
        assert!(m.diversity.abs() < 1e-12, "{m:?}");
        assert!((m.redundancy - 1.0).abs() < 1e-12, "{m:?}");
        assert!((m.distinct_token_ratio - 2.0 / 6.0).abs() < 1e-12, "{m:?}");
    }

    #[test]
    fn partial_overlap_is_between_the_extremes() {
        // "solar panel" vs "solar panel kit": Jaccard 2/3.
        let eval = diversity_eval(vec![vec!["solar panel", "solar panel kit"]]);
        let m = &topk_diversity(&eval)[0];
        assert!((m.diversity - 1.0 / 3.0).abs() < 1e-12, "{m:?}");
        assert!((m.redundancy - 2.0 / 3.0).abs() < 1e-12, "{m:?}");
        // 3 unique tokens over 5 emitted (2 + 3).
        assert!((m.distinct_token_ratio - 3.0 / 5.0).abs() < 1e-12, "{m:?}");
        // Tokenization is case-insensitive.
        let upper = diversity_eval(vec![vec!["Solar Panel", "solar panel"]]);
        assert!(topk_diversity(&upper)[0].diversity.abs() < 1e-12);
    }

    #[test]
    fn single_prediction_items_skip_pairwise_but_count_tokens() {
        let eval = diversity_eval(vec![vec!["only one"], vec![]]);
        let m = &topk_diversity(&eval)[0];
        assert_eq!((m.diversity, m.redundancy), (0.0, 0.0));
        assert!((m.distinct_token_ratio - 1.0).abs() < 1e-12);
    }
}
