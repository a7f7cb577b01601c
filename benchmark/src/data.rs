//! Inputs, all derived from `--seed`: the `bench200k` marketplace (items
//! to score, keyphrase records to build from), the popularity order the
//! Zipf sampler draws through, request bodies, and the oracle answers
//! the responses are checked against.

use crate::client::render_post;
use crate::rng::{permutation, SplitMix64, Zipf};
use graphex_core::{Engine, GraphExConfig, InferRequest, KeyphraseRecord};
use graphex_marketsim::{CategoryDataset, CategorySpec};
use graphex_serving::batch::BatchItem;
use std::collections::HashMap;
use std::io::Write;

/// Zipf exponent of item popularity (head-heavy, like ad traffic).
const ZIPF_S: f64 = 1.1;
/// Keyphrases asked for per item, everywhere.
pub const K: usize = 10;
/// Items whose answers are checked against the oracle on every response.
const PROBES: usize = 256;

pub struct Dataset {
    pub seed: u64,
    pub items: Vec<BatchItem>,
    pub records: Vec<KeyphraseRecord>,
    pub config: GraphExConfig,
}

impl Dataset {
    /// `bench200k`: 48 leaves, 200k items, 2M sessions; with
    /// `min_search_count = 2` about 72k records curate to 67k keyphrases
    /// and a 6 MB snapshot. `cat1` at the default threshold curates to
    /// 3.8k keyphrases and a 2 µs kernel — too small for an engine-bound
    /// workload to exist. `smoke` is a tiny spec for the tests.
    pub fn generate(seed: u64, smoke: bool) -> Self {
        let spec = if smoke {
            CategorySpec {
                name: "benchsmoke".into(),
                seed,
                num_leaves: 6,
                products_per_leaf: 30,
                num_items: 1_500,
                num_sessions: 20_000,
                leaf_id_base: 1_000,
            }
        } else {
            CategorySpec {
                name: "bench200k".into(),
                seed,
                num_leaves: 48,
                products_per_leaf: 400,
                num_items: 200_000,
                num_sessions: 1_000_000,
                leaf_id_base: 1_000,
            }
        };
        let generated = CategoryDataset::generate(spec);
        let records = generated.keyphrase_records();
        let items: Vec<BatchItem> = generated
            .marketplace
            .items
            .into_iter()
            .map(|item| BatchItem {
                id: item.id,
                title: item.title,
                leaf: item.leaf,
            })
            .collect();
        // Bodies are rendered without JSON escaping.
        assert!(
            items.iter().all(|i| i
                .title
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b' ')),
            "marketsim titles are expected to be plain words"
        );
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 2;
        Self {
            seed,
            items,
            records,
            config,
        }
    }
}

/// Draws items by popularity: Zipf over ranks, rank → item through a
/// seeded permutation of the first `population` items.
pub struct Popularity {
    zipf: Zipf,
    by_rank: Vec<u32>,
}

impl Popularity {
    pub fn new(population: usize, seed: u64) -> Self {
        let by_rank = permutation(population, &mut SplitMix64::new(seed ^ 0x5EED_2157));
        Self {
            zipf: Zipf::new(population, ZIPF_S),
            by_rank,
        }
    }

    /// Index into `Dataset::items`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.by_rank[self.zipf.sample(rng)] as usize
    }

    pub fn population(&self) -> usize {
        self.by_rank.len()
    }
}

/// `POST /v1/infer` for one item under `id` into `request`; `body` is
/// scratch and holds the JSON body afterwards.
pub fn render_infer(item: &BatchItem, id: u64, body: &mut Vec<u8>, request: &mut Vec<u8>) {
    body.clear();
    push_infer_body(item, id, body);
    render_post("/v1/infer", body, request);
}

/// `POST /v1/infer` with a `{"requests":[..]}` envelope over `indices`
/// (each item under its own id); `body` as in [`render_infer`].
pub fn render_envelope(
    data: &Dataset,
    indices: &[usize],
    body: &mut Vec<u8>,
    request: &mut Vec<u8>,
) {
    body.clear();
    body.extend_from_slice(br#"{"requests":["#);
    for (i, &index) in indices.iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        let item = &data.items[index];
        push_infer_body(item, u64::from(item.id), body);
    }
    body.extend_from_slice(b"]}");
    render_post("/v1/infer", body, request);
}

/// `{"title":..,"leaf":..,"k":10,"id":..}` appended to `out`.
fn push_infer_body(item: &BatchItem, id: u64, out: &mut Vec<u8>) {
    write!(
        out,
        r#"{{"title":"{}","leaf":{},"k":{K},"id":{id}}}"#,
        item.title, item.leaf.0
    )
    .expect("write to Vec");
}

/// The oracle: for a fixed set of probe items — the most popular half,
/// the rest drawn by popularity — what `Engine::infer` answers on the
/// model the servers were built from, rendered the way a response
/// carries it (`"a","b"`, the inside of the `keyphrases` array).
pub struct Probes {
    expected: HashMap<u32, Vec<u8>>,
}

impl Probes {
    pub fn new(data: &Dataset, popularity: &Popularity, engine: &Engine) -> Self {
        let mut rng = SplitMix64::new(data.seed ^ 0x0AC1E);
        let count = PROBES.min(popularity.population());
        let mut expected = HashMap::with_capacity(count);
        let mut rank = 0;
        while expected.len() < count {
            let index = if expected.len() < count / 2 {
                rank += 1;
                popularity.by_rank[rank - 1] as usize
            } else {
                popularity.sample(&mut rng)
            };
            let item = &data.items[index];
            let answer = engine.infer(
                &InferRequest::new(&item.title, item.leaf)
                    .k(K)
                    .resolve_texts(true),
            );
            expected.insert(index as u32, render_keyphrases(&answer.texts));
        }
        Self { expected }
    }

    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.expected.keys().map(|&i| i as usize)
    }

    /// `None` when `index` is not a probe item; otherwise whether the
    /// response's keyphrases equal the oracle's.
    pub fn check(&self, index: usize, keyphrases: &[u8]) -> Option<bool> {
        self.expected
            .get(&(index as u32))
            .map(|want| want == keyphrases)
    }
}

pub fn render_keyphrases(texts: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'"');
        out.extend_from_slice(text.as_bytes());
        out.push(b'"');
    }
    out
}

/// The inside of each `"keyphrases":[...]` array of a response body, in
/// order (keyphrase texts are plain words, so the first `]` ends it).
pub fn keyphrase_spans(body: &[u8]) -> impl Iterator<Item = &[u8]> {
    const OPEN: &[u8] = br#""keyphrases":["#;
    let mut rest = body;
    std::iter::from_fn(move || {
        let start = crate::client::find(rest, OPEN)? + OPEN.len();
        let len = rest[start..].iter().position(|&b| b == b']')?;
        let span = &rest[start..start + len];
        rest = &rest[start + len..];
        Some(span)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_walk_a_batch_response_in_order() {
        let body = br#"{"responses":[{"id":1,"keyphrases":["a b","c"],"x":1},{"keyphrases":[]},{"keyphrases":["d"]}]}"#;
        let spans: Vec<&[u8]> = keyphrase_spans(body).collect();
        assert_eq!(spans, [&br#""a b","c""#[..], b"", br#""d""#]);
        assert_eq!(
            render_keyphrases(&["a b".into(), "c".into()]),
            br#""a b","c""#
        );
    }

    #[test]
    fn popularity_is_deterministic_per_seed() {
        let draw = |seed| {
            let pop = Popularity::new(500, seed);
            let mut rng = SplitMix64::new(seed);
            (0..200).map(|_| pop.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
