//! fastText-like linear text classifier.
//!
//! Paper Sec. II: fastText "creates word embeddings using the CBOW model and
//! employs a straightforward linear neural network model with hierarchical
//! softmax" and is the CPU-feasible XMC workhorse at eBay. We reproduce the
//! algorithmic skeleton:
//!
//! * hashed input features: unigrams + adjacent bigrams into a fixed bucket
//!   table (fastText's `-bucket`);
//! * hidden vector = mean of input feature embeddings;
//! * label scores = `hidden · output_matrix` rows, trained with logistic
//!   loss and **negative sampling** (we trade hierarchical softmax for
//!   negative sampling — same asymptotic training cost, simpler inference,
//!   identical tail-bias behaviour because both optimize click likelihood);
//! * training data = (title, clicked query) pairs from the log, which is
//!   exactly how the tail-keyphrase bias of Sec. I-A1 enters the model.
//!
//! Like the original it is cold-start capable and its model size is
//! dominated by the dense input/output matrices (Fig. 6b's "fastText is
//! largest" shape).

use crate::{ItemRef, Rec, Recommender};
use graphex_marketsim::CategoryDataset;
use graphex_textkit::{FxHashMap, Tokenizer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct FastTextConfig {
    pub dim: usize,
    /// Hashed feature buckets (vocabulary + collisions live here).
    pub buckets: usize,
    pub epochs: usize,
    pub learning_rate: f32,
    pub negatives: usize,
    pub seed: u64,
}

impl Default for FastTextConfig {
    fn default() -> Self {
        // The simulated click log is far smaller than eBay's, so the epoch
        // count compensates where the original compensates with data volume
        // (training still finishes in seconds; the paper's fastText trains
        // for hours on real logs).
        Self {
            dim: 48,
            buckets: 1 << 15,
            epochs: 20,
            learning_rate: 0.18,
            negatives: 5,
            seed: 42,
        }
    }
}

/// The trained classifier.
pub struct FastTextLike {
    config: FastTextConfig,
    tokenizer: Tokenizer,
    /// `buckets × dim` input embedding table.
    input: Vec<f32>,
    /// `labels × dim` output matrix.
    output: Vec<f32>,
    /// Label id → query text.
    labels: Vec<String>,
}

impl std::fmt::Debug for FastTextLike {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastTextLike")
            .field("labels", &self.labels.len())
            .field("dim", &self.config.dim)
            .field("buckets", &self.config.buckets)
            .finish()
    }
}

impl FastTextLike {
    /// Trains on the dataset's click log.
    pub fn train(ds: &CategoryDataset, config: FastTextConfig) -> Self {
        let tokenizer = Tokenizer::default();
        // Label space: queries with at least one click (the XMC label set).
        let mut label_of_query: FxHashMap<u32, u32> = FxHashMap::default();
        let mut labels: Vec<String> = Vec::new();
        let mut label_freq: Vec<f64> = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new(); // (item, label)
        for (item_id, assoc) in ds.train_log.item_clicks.iter().enumerate() {
            for &(q, clicks) in assoc {
                let label = *label_of_query.entry(q).or_insert_with(|| {
                    labels.push(ds.queries[q as usize].text.clone());
                    label_freq.push(0.0);
                    (labels.len() - 1) as u32
                });
                label_freq[label as usize] += f64::from(clicks);
                // Repeat pairs by (damped) click count: heavier clicks,
                // more gradient mass.
                let reps = 1 + (f64::from(clicks)).ln().floor() as usize;
                for _ in 0..reps {
                    pairs.push((item_id as u32, label));
                }
            }
        }

        let dim = config.dim;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut input = vec![0.0f32; config.buckets * dim];
        for v in &mut input {
            *v = (rng.gen_range(-0.5..0.5)) / dim as f32;
        }
        let output = vec![0.0f32; labels.len() * dim];

        let mut model = Self {
            config,
            tokenizer,
            input,
            output,
            labels,
        };
        if pairs.is_empty() {
            return model;
        }

        // Unigram^0.75 negative-sampling table.
        let neg_table = build_negative_table(&label_freq, 1 << 16);

        // Pre-extract features per item (titles are reused across epochs).
        let mut item_features: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for &(item, _) in &pairs {
            item_features
                .entry(item)
                .or_insert_with(|| model.features(&ds.marketplace.items[item as usize].title));
        }

        let mut hidden = vec![0.0f32; dim];
        let mut grad = vec![0.0f32; dim];
        let epochs = model.config.epochs;
        let negatives = model.config.negatives;
        let lr0 = model.config.learning_rate;
        let total_steps = (epochs * pairs.len()) as f32;
        let mut step = 0f32;
        for _ in 0..epochs {
            // In-place shuffle of pair order per epoch.
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.gen_range(0..=i));
            }
            for &(item, label) in &pairs {
                let lr = lr0 * (1.0 - step / total_steps).max(0.05);
                step += 1.0;
                let features = &item_features[&item];
                if features.is_empty() {
                    continue;
                }
                model.forward(features, &mut hidden);
                grad.fill(0.0);
                // positive + negatives
                model.sgd_pair(&hidden, label as usize, 1.0, lr, &mut grad);
                for _ in 0..negatives {
                    let neg = neg_table[rng.gen_range(0..neg_table.len())];
                    if neg != label {
                        model.sgd_pair(&hidden, neg as usize, 0.0, lr, &mut grad);
                    }
                }
                // propagate to input vectors
                let scale = 1.0 / features.len() as f32;
                for &f in features {
                    let row = &mut model.input[f as usize * dim..(f as usize + 1) * dim];
                    for (w, g) in row.iter_mut().zip(&grad) {
                        *w += g * scale;
                    }
                }
            }
        }
        model
    }

    /// Hashed unigram+bigram feature ids of a title.
    fn features(&self, title: &str) -> Vec<u32> {
        let tokens: Vec<String> = self.tokenizer.tokenize(title).collect();
        let mut out = Vec::with_capacity(tokens.len() * 2);
        let mask = (self.config.buckets - 1) as u64;
        for t in &tokens {
            out.push((crate::embedding::token_hash(t) & mask) as u32);
        }
        for pair in tokens.windows(2) {
            let h = crate::embedding::token_hash(&pair[0])
                ^ crate::embedding::token_hash(&pair[1]).rotate_left(21);
            out.push((h & mask) as u32);
        }
        out
    }

    /// hidden = mean of feature embeddings.
    fn forward(&self, features: &[u32], hidden: &mut [f32]) {
        let dim = self.config.dim;
        hidden.fill(0.0);
        for &f in features {
            let row = &self.input[f as usize * dim..(f as usize + 1) * dim];
            for (h, w) in hidden.iter_mut().zip(row) {
                *h += w;
            }
        }
        let inv = 1.0 / features.len() as f32;
        for h in hidden.iter_mut() {
            *h *= inv;
        }
    }

    /// One logistic-regression step against `label`; accumulates the hidden
    /// gradient into `grad` and updates the output row in place.
    fn sgd_pair(&mut self, hidden: &[f32], label: usize, target: f32, lr: f32, grad: &mut [f32]) {
        let dim = self.config.dim;
        let row = &mut self.output[label * dim..(label + 1) * dim];
        let mut score = 0.0f32;
        for (h, w) in hidden.iter().zip(row.iter()) {
            score += h * w;
        }
        let pred = sigmoid(score);
        let alpha = lr * (target - pred);
        for ((g, w), h) in grad.iter_mut().zip(row.iter_mut()).zip(hidden) {
            *g += alpha * *w;
            *w += alpha * h;
        }
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Negative-sampling lookup table: label frequency^0.75, as in word2vec.
fn build_negative_table(freq: &[f64], size: usize) -> Vec<u32> {
    if freq.is_empty() {
        return vec![0];
    }
    let powered: Vec<f64> = freq.iter().map(|f| f.max(1.0).powf(0.75)).collect();
    let total: f64 = powered.iter().sum();
    let mut table = Vec::with_capacity(size);
    for (label, p) in powered.iter().enumerate() {
        let count = ((p / total) * size as f64).ceil() as usize;
        for _ in 0..count.max(1) {
            table.push(label as u32);
        }
    }
    table
}

impl Recommender for FastTextLike {
    fn name(&self) -> &'static str {
        "fastText"
    }

    fn recommend(&self, item: &ItemRef<'_>, k: usize) -> Vec<Rec> {
        let features = self.features(item.title);
        if features.is_empty() || self.labels.is_empty() {
            return Vec::new();
        }
        let dim = self.config.dim;
        let mut hidden = vec![0.0f32; dim];
        self.forward(&features, &mut hidden);
        let mut scored: Vec<(usize, f32)> = (0..self.labels.len())
            .map(|l| {
                let row = &self.output[l * dim..(l + 1) * dim];
                let mut s = 0.0;
                for (h, w) in hidden.iter().zip(row) {
                    s += h * w;
                }
                (l, s)
            })
            .collect();
        let m = k.min(scored.len());
        if m == 0 {
            return Vec::new();
        }
        scored.select_nth_unstable_by(m - 1, |a, b| b.1.partial_cmp(&a.1).unwrap());
        scored.truncate(m);
        scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        // Probability cutoff so the prediction count varies with confidence
        // (production taggers threshold rather than pad to the budget).
        scored
            .into_iter()
            .map(|(l, s)| (l, sigmoid(s)))
            .filter(|&(_, p)| p >= 0.3)
            .map(|(l, p)| Rec {
                text: self.labels[l].clone(),
                score: f64::from(p),
            })
            .collect()
    }

    fn size_bytes(&self) -> usize {
        (self.input.len() + self.output.len()) * 4
            + self.labels.iter().map(|t| t.len() + 8).sum::<usize>()
    }

    fn cold_start_capable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_marketsim::{CategoryDataset, CategorySpec};

    fn quick_config() -> FastTextConfig {
        // The tiny dataset has few click pairs, so give SGD more passes
        // than the production default to converge.
        FastTextConfig {
            dim: 24,
            buckets: 1 << 12,
            epochs: 25,
            learning_rate: 0.3,
            ..Default::default()
        }
    }

    fn setup() -> (CategoryDataset, FastTextLike) {
        let ds = CategoryDataset::generate(CategorySpec::tiny(81));
        let ft = FastTextLike::train(&ds, quick_config());
        (ds, ft)
    }

    #[test]
    fn labels_are_clicked_queries() {
        let (ds, ft) = setup();
        let clicked: std::collections::BTreeSet<u32> = ds
            .train_log
            .query_clicks
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(q, _)| q as u32)
            .collect();
        assert_eq!(ft.num_labels(), clicked.len());
    }

    #[test]
    fn learns_to_rank_clicked_query_high() {
        let (ds, ft) = setup();
        // For items with clicks, the clicked query should usually appear in
        // the top-10 predictions after training. Require a majority — SGD on
        // a tiny dataset won't be perfect.
        let mut hits = 0usize;
        let mut total = 0usize;
        for (item_id, assoc) in ds.train_log.item_clicks.iter().enumerate() {
            let Some(&(q, _)) = assoc.first() else {
                continue;
            };
            total += 1;
            let item = &ds.marketplace.items[item_id];
            let recs = ft.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 10);
            if recs.iter().any(|r| r.text == ds.queries[q as usize].text) {
                hits += 1;
            }
            if total >= 60 {
                break;
            }
        }
        assert!(hits * 2 > total, "train-recall too low: {hits}/{total}");
    }

    #[test]
    fn cold_start_capable_and_scores_sorted() {
        let (ds, ft) = setup();
        assert!(ft.cold_start_capable());
        let recs = ft.recommend(
            &ItemRef::cold(&ds.marketplace.items[0].title, ds.marketplace.items[0].leaf),
            15,
        );
        assert!(!recs.is_empty());
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn empty_title_yields_nothing() {
        let (ds, ft) = setup();
        assert!(ft
            .recommend(&ItemRef::cold("", ds.marketplace.leaves[0].id), 5)
            .is_empty());
    }

    #[test]
    fn model_size_dominated_by_matrices() {
        let (_, ft) = setup();
        let matrices = (ft.input.len() + ft.output.len()) * 4;
        assert!(ft.size_bytes() >= matrices);
        assert!(matrices > 100_000, "dense model should be big: {matrices}");
    }

    #[test]
    fn deterministic_training() {
        let ds = CategoryDataset::generate(CategorySpec::tiny(82));
        let a = FastTextLike::train(&ds, quick_config());
        let b = FastTextLike::train(&ds, quick_config());
        let item = &ds.marketplace.items[3];
        let ra = a.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 10);
        let rb = b.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 10);
        assert_eq!(ra, rb);
    }
}
