//! Buyer query universe.
//!
//! Queries derive from the same product archetypes as item titles, in the
//! shapes real e-commerce query logs show: generic type queries
//! ("gaming headphones" — head), branded type queries, product-line queries
//! ("audeze maxwell"), and attribute-qualified variants (tail). Every query
//! carries its generative **constraint**, which is what makes ground-truth
//! relevance decidable later.

use crate::catalog::Marketplace;
use graphex_core::LeafId;
use graphex_textkit::FxHashMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The semantic constraint a query imposes on matching items.
///
/// An item satisfies the constraint iff **all** present components match
/// its product archetype. A `product` pin (the query names the product
/// line) implies brand/type/attrs of that product, so the other fields are
/// left empty in that case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryConstraint {
    /// Query names a specific product line → only that product matches.
    pub product: Option<u32>,
    /// Required product type (leaf-local type index) for non-pinned queries.
    pub type_idx: Option<u32>,
    /// Required brand.
    pub brand: Option<u32>,
    /// Required attribute tokens.
    pub attrs: Vec<String>,
}

/// One buyer query (keyphrase).
#[derive(Debug, Clone)]
pub struct Query {
    pub id: u32,
    pub text: String,
    /// Leaf category Cassini assigns (same as the archetype's leaf).
    pub leaf: LeafId,
    pub constraint: QueryConstraint,
    /// Latent demand weight used to sample sessions; observed search counts
    /// come out of the simulated log, not from this.
    pub weight: f64,
}

/// Generates the query universe for a marketplace. Deterministic given the
/// marketplace (seeded off `spec.seed`). Queries are deduplicated by text.
pub fn generate_queries(mp: &Marketplace) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(mp.spec.seed ^ 0x5EED_0001);
    let mut queries: Vec<Query> = Vec::new();
    let mut by_text: FxHashMap<String, u32> = FxHashMap::default();

    let push = |text: String,
                leaf: LeafId,
                constraint: QueryConstraint,
                weight: f64,
                by_text: &mut FxHashMap<String, u32>,
                queries: &mut Vec<Query>| {
        if let Some(&existing) = by_text.get(&text) {
            // Same text can be emitted for several products of one brand;
            // the constraint is identical by construction — just add demand.
            queries[existing as usize].weight += weight;
            return;
        }
        let id = queries.len() as u32;
        by_text.insert(text.clone(), id);
        queries.push(Query {
            id,
            text,
            leaf,
            constraint,
            weight,
        });
    };

    // Leaf-level demand skew: some leaves are simply busier.
    let leaf_demand: Vec<f64> = (0..mp.leaves.len())
        .map(|_| rng.gen_range(0.3..1.0))
        .collect();

    // Attributes that actually occur on products of each (leaf, type): a
    // curated query always has positive recall, so attribute-qualified
    // queries may only use facets some product carries.
    let mut type_attrs: FxHashMap<(LeafId, u32), std::collections::BTreeSet<String>> =
        FxHashMap::default();
    for product in &mp.products {
        type_attrs
            .entry((product.leaf, product.type_idx))
            .or_default()
            .extend(product.attrs.iter().cloned());
    }

    for (leaf_pos, leaf) in mp.leaves.iter().enumerate() {
        let demand = leaf_demand[leaf_pos];
        // 1. Generic type queries — the head of the distribution. Only for
        //    types some product actually has (zero-recall queries are never
        //    curated).
        for (type_idx, type_tokens) in leaf.type_pool.iter().enumerate() {
            let Some(attrs) = type_attrs.get(&(leaf.id, type_idx as u32)) else {
                continue;
            };
            push(
                type_tokens.join(" "),
                leaf.id,
                QueryConstraint {
                    product: None,
                    type_idx: Some(type_idx as u32),
                    brand: None,
                    attrs: vec![],
                },
                60.0 * demand,
                &mut by_text,
                &mut queries,
            );
            // Attribute-qualified type queries over real facets.
            for attr in attrs.iter().take(4) {
                push(
                    format!("{attr} {}", type_tokens.join(" ")),
                    leaf.id,
                    QueryConstraint {
                        product: None,
                        type_idx: Some(type_idx as u32),
                        brand: None,
                        attrs: vec![attr.clone()],
                    },
                    6.0 * demand,
                    &mut by_text,
                    &mut queries,
                );
            }
        }
    }

    for product in &mp.products {
        let leaf_pos = (product.leaf.0 - mp.spec.leaf_id_base) as usize;
        let demand = leaf_demand[leaf_pos] * (0.2 + product.popularity);
        let brand = mp.brand_token(product).to_string();
        let type_tokens = mp.type_tokens(product).join(" ");
        let line = product.line.join(" ");

        // 2. brand + type ("audeze headphones") — head-ish.
        push(
            format!("{brand} {type_tokens}"),
            product.leaf,
            QueryConstraint {
                product: None,
                type_idx: Some(product.type_idx),
                brand: Some(product.brand),
                attrs: vec![],
            },
            14.0 * demand,
            &mut by_text,
            &mut queries,
        );

        // 3. brand + line ("audeze maxwell") — product-pinned.
        push(
            format!("{brand} {line}"),
            product.leaf,
            QueryConstraint {
                product: Some(product.id),
                type_idx: None,
                brand: None,
                attrs: vec![],
            },
            8.0 * demand,
            &mut by_text,
            &mut queries,
        );

        // 4. line + type ("maxwell headphones").
        if rng.gen_bool(0.8) {
            push(
                format!("{line} {type_tokens}"),
                product.leaf,
                QueryConstraint {
                    product: Some(product.id),
                    type_idx: None,
                    brand: None,
                    attrs: vec![],
                },
                4.0 * demand,
                &mut by_text,
                &mut queries,
            );
        }

        // 5. brand + attr + type — tail.
        if let Some(attr) = product.attrs.first() {
            if rng.gen_bool(0.7) {
                push(
                    format!("{brand} {attr} {type_tokens}"),
                    product.leaf,
                    QueryConstraint {
                        product: None,
                        type_idx: Some(product.type_idx),
                        brand: Some(product.brand),
                        attrs: vec![attr.clone()],
                    },
                    1.5 * demand,
                    &mut by_text,
                    &mut queries,
                );
            }
        }

        // 6. full spec: brand + line + type — tail.
        if rng.gen_bool(0.5) {
            push(
                format!("{brand} {line} {type_tokens}"),
                product.leaf,
                QueryConstraint {
                    product: Some(product.id),
                    type_idx: None,
                    brand: None,
                    attrs: vec![],
                },
                1.0 * demand,
                &mut by_text,
                &mut queries,
            );
        }

        // 7. bare line query ("maxwell") — sparse tail.
        if rng.gen_bool(0.25) {
            push(
                line.clone(),
                product.leaf,
                QueryConstraint {
                    product: Some(product.id),
                    type_idx: None,
                    brand: None,
                    attrs: vec![],
                },
                0.8 * demand,
                &mut by_text,
                &mut queries,
            );
        }
    }

    queries
}

/// Precomputed retrieval structures: per query, the full matching item set
/// size (recall count) and the top-of-ranking SRP page.
#[derive(Debug)]
pub struct QueryIndex {
    /// Recall count per query (paper Sec. III-B).
    pub recall: Vec<u32>,
    /// SRP page: up to `srp_len` matching items, popularity-ranked. This cap
    /// *is* the exposure bias — items beyond it are never seen.
    pub srp: Vec<Vec<u32>>,
}

/// SRP page length (how many results a buyer can see/scroll).
pub const SRP_LEN: usize = 50;

/// Does `item`'s archetype satisfy `q`'s constraint?
pub fn matches(mp: &Marketplace, q: &Query, item_product: u32) -> bool {
    let product = &mp.products[item_product as usize];
    if product.leaf != q.leaf {
        return false;
    }
    let c = &q.constraint;
    if let Some(pin) = c.product {
        return pin == item_product;
    }
    if let Some(t) = c.type_idx {
        if product.type_idx != t {
            return false;
        }
    }
    if let Some(b) = c.brand {
        if product.brand != b {
            return false;
        }
    }
    c.attrs
        .iter()
        .all(|a| product.attrs.binary_search(a).is_ok())
}

/// Builds the [`QueryIndex`] by ranking each query's matching items by
/// popularity (the simulated search engine's ranking function — the source
/// of position/popularity bias).
pub fn build_index(mp: &Marketplace, queries: &[Query]) -> QueryIndex {
    // Product → queries it can match is the expensive direction; instead we
    // match at product granularity: constraint checks depend only on the
    // product archetype, so compute matching products per query, then expand
    // to items.
    let mut recall = Vec::with_capacity(queries.len());
    let mut srp = Vec::with_capacity(queries.len());
    // Group products by leaf for cheap candidate enumeration.
    let mut leaf_products: FxHashMap<LeafId, Vec<u32>> = FxHashMap::default();
    for p in &mp.products {
        leaf_products.entry(p.leaf).or_default().push(p.id);
    }

    let mut page: Vec<u32> = Vec::new();
    for q in queries {
        page.clear();
        let mut matched_items = 0u32;
        if let Some(pin) = q.constraint.product {
            matched_items = mp.product_items[pin as usize].len() as u32;
            page.extend_from_slice(&mp.product_items[pin as usize]);
        } else if let Some(candidates) = leaf_products.get(&q.leaf) {
            for &pid in candidates {
                if matches(mp, q, pid) {
                    matched_items += mp.product_items[pid as usize].len() as u32;
                    page.extend_from_slice(&mp.product_items[pid as usize]);
                }
            }
        }
        // Rank by item popularity, keep the visible page.
        page.sort_unstable_by(|&a, &b| {
            mp.items[b as usize]
                .popularity
                .partial_cmp(&mp.items[a as usize].popularity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        page.truncate(SRP_LEN);
        recall.push(matched_items);
        srp.push(page.clone());
    }
    QueryIndex { recall, srp }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CategorySpec;

    fn setup() -> (Marketplace, Vec<Query>) {
        let mp = Marketplace::generate(CategorySpec::tiny(11));
        let qs = generate_queries(&mp);
        (mp, qs)
    }

    #[test]
    fn queries_are_unique_by_text() {
        let (_, qs) = setup();
        let mut texts: Vec<&str> = qs.iter().map(|q| q.text.as_str()).collect();
        let before = texts.len();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(before, texts.len());
        assert!(before > 50, "too few queries generated: {before}");
    }

    #[test]
    fn generation_is_deterministic() {
        let mp = Marketplace::generate(CategorySpec::tiny(11));
        let a = generate_queries(&mp);
        let b = generate_queries(&mp);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.text == y.text && x.weight == y.weight));
    }

    #[test]
    fn pinned_queries_match_only_their_product() {
        let (mp, qs) = setup();
        let pinned = qs.iter().find(|q| q.constraint.product.is_some()).unwrap();
        let pin = pinned.constraint.product.unwrap();
        for p in &mp.products {
            assert_eq!(matches(&mp, pinned, p.id), p.id == pin);
        }
    }

    #[test]
    fn generic_queries_match_all_products_of_type() {
        let (mp, qs) = setup();
        let generic = qs
            .iter()
            .find(|q| {
                q.constraint.product.is_none()
                    && q.constraint.brand.is_none()
                    && q.constraint.attrs.is_empty()
            })
            .unwrap();
        let t = generic.constraint.type_idx.unwrap();
        for p in mp.products.iter().filter(|p| p.leaf == generic.leaf) {
            assert_eq!(matches(&mp, generic, p.id), p.type_idx == t);
        }
    }

    #[test]
    fn index_recall_counts_items_not_products() {
        let (mp, qs) = setup();
        let index = build_index(&mp, &qs);
        for q in &qs {
            let brute: u32 = mp
                .items
                .iter()
                .filter(|item| matches(&mp, q, item.product))
                .count() as u32;
            assert_eq!(index.recall[q.id as usize], brute, "query {:?}", q.text);
        }
    }

    #[test]
    fn srp_is_popularity_ranked_and_capped() {
        let (mp, qs) = setup();
        let index = build_index(&mp, &qs);
        for q in &qs {
            let page = &index.srp[q.id as usize];
            assert!(page.len() <= SRP_LEN);
            for w in page.windows(2) {
                assert!(mp.items[w[0] as usize].popularity >= mp.items[w[1] as usize].popularity);
            }
            for &iid in page {
                assert!(matches(&mp, q, mp.items[iid as usize].product));
            }
        }
    }

    #[test]
    fn head_generic_queries_have_more_weight() {
        let (_, qs) = setup();
        let generic_avg: f64 = {
            let g: Vec<f64> = qs
                .iter()
                .filter(|q| {
                    q.constraint.type_idx.is_some()
                        && q.constraint.brand.is_none()
                        && q.constraint.attrs.is_empty()
                })
                .map(|q| q.weight)
                .collect();
            g.iter().sum::<f64>() / g.len() as f64
        };
        let pinned_avg: f64 = {
            let p: Vec<f64> = qs
                .iter()
                .filter(|q| q.constraint.product.is_some())
                .map(|q| q.weight)
                .collect();
            p.iter().sum::<f64>() / p.len() as f64
        };
        assert!(
            generic_avg > pinned_avg * 2.0,
            "generic {generic_avg} vs pinned {pinned_avg}"
        );
    }
}
