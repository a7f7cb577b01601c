//! Category tree, product archetypes, and item generation.
//!
//! A *product archetype* is the latent entity both item titles and buyer
//! queries derive from: a brand, a product line (model name), a product
//! type (1–2 tokens shared by all products of that kind in the leaf) and a
//! set of attributes. This shared generative root is what makes relevance
//! decidable by the [`crate::oracle`] without any human labels.

use crate::wordgen::WordGen;
use graphex_core::LeafId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Scale parameters of one simulated meta category.
#[derive(Debug, Clone, PartialEq)]
pub struct CategorySpec {
    /// Display name, e.g. "CAT_1".
    pub name: String,
    /// Seed for every RNG in the pipeline; same seed ⇒ identical dataset.
    pub seed: u64,
    /// Leaf categories under this meta category.
    pub num_leaves: usize,
    /// Product archetypes per leaf.
    pub products_per_leaf: usize,
    /// Items listed (instances of archetypes, skewed towards popular ones).
    pub num_items: usize,
    /// Buyer sessions simulated for the *training* log window.
    pub num_sessions: usize,
    /// First leaf id (so different categories never share leaf ids).
    pub leaf_id_base: u32,
}

impl CategorySpec {
    /// Large category: the paper's CAT_1 (200 M items) scaled ×1000 down.
    pub fn cat1() -> Self {
        Self {
            name: "CAT_1".into(),
            seed: 0xC1,
            num_leaves: 48,
            products_per_leaf: 60,
            num_items: 200_000,
            num_sessions: 400_000,
            leaf_id_base: 1_000,
        }
    }

    /// Medium category: CAT_2 (14 M items) scaled ×1000 down.
    pub fn cat2() -> Self {
        Self {
            name: "CAT_2".into(),
            seed: 0xC2,
            num_leaves: 20,
            products_per_leaf: 45,
            num_items: 14_000,
            num_sessions: 60_000,
            leaf_id_base: 2_000,
        }
    }

    /// Small category: CAT_3 (7 M items) scaled ×1000 down.
    pub fn cat3() -> Self {
        Self {
            name: "CAT_3".into(),
            seed: 0xC3,
            num_leaves: 10,
            products_per_leaf: 30,
            num_items: 7_000,
            num_sessions: 25_000,
            leaf_id_base: 3_000,
        }
    }

    /// Miniature category for unit tests (fast to generate).
    pub fn tiny(seed: u64) -> Self {
        Self {
            name: "TINY".into(),
            seed,
            num_leaves: 3,
            products_per_leaf: 8,
            num_items: 400,
            num_sessions: 3_000,
            leaf_id_base: 9_000,
        }
    }
}

/// One leaf category.
#[derive(Debug, Clone)]
pub struct Leaf {
    pub id: LeafId,
    /// Product-type token pairs available in this leaf; every product picks
    /// one. E.g. `["gaming", "headphones"]`.
    pub type_pool: Vec<Vec<String>>,
    /// Attribute token pool for products in this leaf.
    pub attr_pool: Vec<String>,
}

/// A product archetype.
#[derive(Debug, Clone)]
pub struct Product {
    pub id: u32,
    pub leaf: LeafId,
    /// Brand token (index into [`Marketplace::brands`]).
    pub brand: u32,
    /// Product-line tokens, unique to this product ("maxwell").
    pub line: Vec<String>,
    /// Index of the type within the leaf's `type_pool`.
    pub type_idx: u32,
    /// Attribute tokens (subset of the leaf pool).
    pub attrs: Vec<String>,
    /// Latent popularity in (0, 1]; drives listing counts, ranking and
    /// clicks — the source of popularity bias.
    pub popularity: f64,
}

/// One listed item.
#[derive(Debug, Clone)]
pub struct Item {
    pub id: u32,
    pub product: u32,
    pub leaf: LeafId,
    pub title: String,
    /// Item-level popularity (product popularity × listing jitter).
    pub popularity: f64,
}

/// A fully generated meta category.
#[derive(Debug)]
pub struct Marketplace {
    pub spec: CategorySpec,
    pub brands: Vec<String>,
    pub leaves: Vec<Leaf>,
    pub products: Vec<Product>,
    pub items: Vec<Item>,
    /// Items of each product (indices into `items`).
    pub product_items: Vec<Vec<u32>>,
}

/// Filler words sellers pad titles with; never part of any query constraint.
const NOISE_WORDS: &[&str] = &[
    "new",
    "genuine",
    "original",
    "for",
    "with",
    "gift",
    "sale",
    "premium",
    "deluxe",
    "2024",
    "edition",
    "authentic",
    "fast",
    "shipping",
    "oem",
    "bundle",
];

impl Marketplace {
    /// Generates the catalog for `spec`. Deterministic in `spec.seed`.
    pub fn generate(spec: CategorySpec) -> Self {
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let mut words = WordGen::new();

        // Brand universe: shared across leaves (brands span product kinds).
        let num_brands = (spec.num_leaves * 3).clamp(8, 120);
        let brands: Vec<String> = (0..num_brands).map(|_| words.word(&mut rng, 2)).collect();

        // Leaves with type and attribute pools.
        let mut leaves = Vec::with_capacity(spec.num_leaves);
        for l in 0..spec.num_leaves {
            let num_types = rng.gen_range(2..=4);
            let type_pool: Vec<Vec<String>> = (0..num_types)
                .map(|_| {
                    let qualifier = words.word(&mut rng, 2);
                    let noun = words.word(&mut rng, 2);
                    vec![qualifier, noun]
                })
                .collect();
            let attr_pool: Vec<String> = (0..rng.gen_range(8..=14))
                .map(|_| words.word(&mut rng, 1))
                .collect();
            leaves.push(Leaf {
                id: LeafId(spec.leaf_id_base + l as u32),
                type_pool,
                attr_pool,
            });
        }

        // Products.
        let mut products = Vec::with_capacity(spec.num_leaves * spec.products_per_leaf);
        for leaf in &leaves {
            for _ in 0..spec.products_per_leaf {
                let id = products.len() as u32;
                let brand = rng.gen_range(0..brands.len()) as u32;
                let line_len = if rng.gen_bool(0.3) { 2 } else { 1 };
                let line: Vec<String> = (0..line_len).map(|_| words.word(&mut rng, 2)).collect();
                let type_idx = rng.gen_range(0..leaf.type_pool.len()) as u32;
                let num_attrs = rng.gen_range(2..=5);
                let mut attrs: Vec<String> = leaf
                    .attr_pool
                    .choose_multiple(&mut rng, num_attrs)
                    .cloned()
                    .collect();
                attrs.sort_unstable();
                // Pareto-ish popularity: a few hits, a long tail.
                let popularity = rng.gen_range(0.0f64..1.0).powf(3.0).max(1e-4);
                products.push(Product {
                    id,
                    leaf: leaf.id,
                    brand,
                    line,
                    type_idx,
                    attrs,
                    popularity,
                });
            }
        }

        // Items: choose products popularity-weighted, instantiate titles.
        let weights: Vec<f64> = products.iter().map(|p| p.popularity).collect();
        let cumulative = cumsum(&weights);
        let mut items = Vec::with_capacity(spec.num_items);
        let mut product_items = vec![Vec::new(); products.len()];
        for id in 0..spec.num_items as u32 {
            let pick = sample_cumulative(&cumulative, &mut rng);
            let product = &products[pick];
            let leaf = &leaves[(product.leaf.0 - spec.leaf_id_base) as usize];
            let title = compose_title(product, leaf, &brands, &mut rng);
            let popularity = (product.popularity * rng.gen_range(0.2..1.0)).max(1e-6);
            product_items[pick].push(id);
            items.push(Item {
                id,
                product: pick as u32,
                leaf: product.leaf,
                title,
                popularity,
            });
        }

        Self {
            spec,
            brands,
            leaves,
            products,
            items,
            product_items,
        }
    }

    /// Leaf struct by id.
    pub fn leaf(&self, id: LeafId) -> Option<&Leaf> {
        self.leaves.iter().find(|l| l.id == id)
    }

    /// The type tokens of a product.
    pub fn type_tokens(&self, product: &Product) -> &[String] {
        let leaf = &self.leaves[(product.leaf.0 - self.spec.leaf_id_base) as usize];
        &leaf.type_pool[product.type_idx as usize]
    }

    /// Brand token of a product.
    pub fn brand_token(&self, product: &Product) -> &str {
        &self.brands[product.brand as usize]
    }
}

/// Builds a plausible title: brand → line → some attrs → type → noise.
fn compose_title(product: &Product, leaf: &Leaf, brands: &[String], rng: &mut SmallRng) -> String {
    let mut parts: Vec<&str> = Vec::with_capacity(12);
    parts.push(&brands[product.brand as usize]);
    for t in &product.line {
        parts.push(t);
    }
    let shown_attrs = rng.gen_range(1..=product.attrs.len().min(3));
    for attr in product.attrs.iter().take(shown_attrs) {
        parts.push(attr);
    }
    for t in &leaf.type_pool[product.type_idx as usize] {
        parts.push(t);
    }
    for _ in 0..rng.gen_range(0..=3) {
        parts.push(NOISE_WORDS[rng.gen_range(0..NOISE_WORDS.len())]);
    }
    parts.join(" ")
}

/// Prefix sums for weighted sampling.
pub(crate) fn cumsum(weights: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w.max(0.0);
            acc
        })
        .collect()
}

/// Samples an index proportional to the weights behind `cumulative`.
pub(crate) fn sample_cumulative(cumulative: &[f64], rng: &mut SmallRng) -> usize {
    let total = *cumulative.last().expect("empty weight vector");
    let x = rng.gen_range(0.0..total);
    cumulative
        .partition_point(|&c| c <= x)
        .min(cumulative.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let a = Marketplace::generate(CategorySpec::tiny(5));
        let b = Marketplace::generate(CategorySpec::tiny(5));
        assert_eq!(a.items.len(), b.items.len());
        assert_eq!(a.items[0].title, b.items[0].title);
        assert_eq!(a.products.len(), b.products.len());
        let c = Marketplace::generate(CategorySpec::tiny(6));
        assert_ne!(a.items[0].title, c.items[0].title);
    }

    #[test]
    fn spec_counts_respected() {
        let spec = CategorySpec::tiny(1);
        let mp = Marketplace::generate(spec.clone());
        assert_eq!(mp.leaves.len(), spec.num_leaves);
        assert_eq!(mp.products.len(), spec.num_leaves * spec.products_per_leaf);
        assert_eq!(mp.items.len(), spec.num_items);
    }

    #[test]
    fn items_reference_valid_products_and_leaves() {
        let mp = Marketplace::generate(CategorySpec::tiny(2));
        for item in &mp.items {
            let product = &mp.products[item.product as usize];
            assert_eq!(product.leaf, item.leaf);
            assert!(mp.leaf(item.leaf).is_some());
            assert!(!item.title.is_empty());
        }
    }

    #[test]
    fn titles_contain_product_tokens() {
        let mp = Marketplace::generate(CategorySpec::tiny(3));
        for item in mp.items.iter().take(50) {
            let product = &mp.products[item.product as usize];
            let brand = mp.brand_token(product);
            assert!(
                item.title.contains(brand),
                "title {:?} missing brand {brand}",
                item.title
            );
            for t in mp.type_tokens(product) {
                assert!(item.title.contains(t.as_str()));
            }
        }
    }

    #[test]
    fn product_items_index_is_consistent() {
        let mp = Marketplace::generate(CategorySpec::tiny(4));
        let total: usize = mp.product_items.iter().map(Vec::len).sum();
        assert_eq!(total, mp.items.len());
        for (pid, item_ids) in mp.product_items.iter().enumerate() {
            for &iid in item_ids {
                assert_eq!(mp.items[iid as usize].product as usize, pid);
            }
        }
    }

    #[test]
    fn popularity_is_skewed() {
        // Pareto shape: the top 20% of products should own well over 35% of
        // the items (with cubed-uniform popularity it's typically > 60%).
        let mp = Marketplace::generate(CategorySpec::tiny(7));
        let mut counts: Vec<usize> = mp.product_items.iter().map(Vec::len).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top20: usize = counts.iter().take(counts.len() / 5).sum();
        assert!(
            top20 * 100 / mp.items.len() > 35,
            "top-20% share too small: {top20}"
        );
    }

    #[test]
    fn cumulative_sampling_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        let cumulative = cumsum(&[0.1, 0.0, 2.0, 0.5]);
        for _ in 0..1000 {
            let idx = sample_cumulative(&cumulative, &mut rng);
            assert!(idx < 4);
            assert_ne!(idx, 1, "zero-weight bucket sampled");
        }
    }

    #[test]
    fn presets_have_distinct_leaf_ranges() {
        let c1 = CategorySpec::cat1();
        let c2 = CategorySpec::cat2();
        let c3 = CategorySpec::cat3();
        assert!(c1.leaf_id_base + (c1.num_leaves as u32) <= c2.leaf_id_base);
        assert!(c2.leaf_id_base + (c2.num_leaves as u32) <= c3.leaf_id_base);
    }
}
