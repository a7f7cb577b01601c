//! [`Recommender`] adapters over the core inference service, so the
//! evaluation harness can treat GraphEx — raw engine or a whole serving
//! stack — exactly like every baseline.

use crate::{ItemRef, Rec, Recommender};
use graphex_core::{Engine, GraphExModel, InferRequest, KeyphraseService};

/// GraphEx wrapped as a [`Recommender`].
///
/// The trait's `&self` signature requires interior scratch management; the
/// core [`Engine`] provides it (a lock-free-enough pooled [`graphex_core::Scratch`]
/// per concurrent caller, reused afterwards).
#[derive(Debug, Clone)]
pub struct GraphExRecommender {
    engine: Engine,
    /// Production prediction budget: the paper generates "a predetermined
    /// number of keyphrases (10–20)" per item (Sec. III-F) even when the
    /// evaluation allows up to 40; requests above this are clamped.
    max_k: usize,
}

impl GraphExRecommender {
    pub fn new(model: GraphExModel) -> Self {
        Self::with_budget(model, 20)
    }

    /// Recommender with an explicit per-item prediction budget.
    pub fn with_budget(model: GraphExModel, max_k: usize) -> Self {
        Self {
            engine: Engine::from_model(model),
            max_k: max_k.max(1),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &GraphExModel {
        self.engine.model()
    }

    /// The wrapped engine (shared scratch pool included).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Recommender for GraphExRecommender {
    fn name(&self) -> &'static str {
        "GraphEx"
    }

    fn recommend(&self, item: &ItemRef<'_>, k: usize) -> Vec<Rec> {
        let request = InferRequest::new(item.title, item.leaf)
            .k(k.min(self.max_k))
            .resolve_texts(true);
        let response = self.engine.infer(&request);
        let alignment = self.engine.model().alignment();
        response
            .texts
            .into_iter()
            .zip(&response.predictions)
            .map(|(text, p)| Rec {
                text,
                score: p.score(alignment),
            })
            .collect()
    }

    fn size_bytes(&self) -> usize {
        self.model().size_bytes()
    }

    fn cold_start_capable(&self) -> bool {
        true
    }
}

/// Any [`KeyphraseService`] exposed as a [`Recommender`], so the
/// evaluation harness can score a *serving stack* (e.g. the store-backed
/// `ServingApi`) with the same metrics as the models themselves.
///
/// Known items carry their id into the request (a store-backed service
/// uses it as the KV key); cold items go id-less and are computed
/// directly. By default `Rec::score` is rank-based (descending by
/// construction — a KV-served response carries texts, not per-prediction
/// attributes, and the adapter cannot see the service's default
/// alignment). [`ServiceRecommender::with_alignment`] pins an explicit
/// alignment instead: it rides every request (so the service *ranks* with
/// it) and, **whenever the response carries prediction attributes**
/// (always for an [`graphex_core::Engine`]; only freshly computed answers
/// for a store-backed service), scores them with the same function,
/// making those scores comparable with [`GraphExRecommender`]. KV-served
/// answers hold texts only, so they fall back to rank-based scores —
/// compare scores across recommenders only over attribute-carrying
/// services, or treat them as ordering, not magnitude.
pub struct ServiceRecommender<S> {
    service: S,
    name: &'static str,
    alignment: Option<graphex_core::Alignment>,
}

impl<S: KeyphraseService> ServiceRecommender<S> {
    pub fn new(name: &'static str, service: S) -> Self {
        Self {
            service,
            name,
            alignment: None,
        }
    }

    /// Adapter that ranks *and* scores with an explicit alignment.
    pub fn with_alignment(
        name: &'static str,
        service: S,
        alignment: graphex_core::Alignment,
    ) -> Self {
        Self {
            service,
            name,
            alignment: Some(alignment),
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &S {
        &self.service
    }
}

impl<S: KeyphraseService> Recommender for ServiceRecommender<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn recommend(&self, item: &ItemRef<'_>, k: usize) -> Vec<Rec> {
        let mut request = InferRequest::new(item.title, item.leaf)
            .k(k)
            .resolve_texts(true);
        if let Some(id) = item.id {
            request = request.id(u64::from(id));
        }
        if let Some(alignment) = self.alignment {
            request = request.alignment(alignment);
        }
        let response = self.service.infer(&request);
        match self.alignment {
            // Attributes present and the ranking alignment is known →
            // real scores, consistent with the order the service used.
            Some(alignment) if response.predictions.len() == response.texts.len() => response
                .texts
                .into_iter()
                .zip(&response.predictions)
                .map(|(text, p)| Rec {
                    text,
                    score: p.score(alignment),
                })
                .collect(),
            // Texts only (store-served) or unknown alignment → rank-based
            // scores, monotonically descending by construction.
            _ => {
                let n = response.texts.len();
                response
                    .texts
                    .into_iter()
                    .enumerate()
                    .map(|(rank, text)| Rec {
                        text,
                        score: (n - rank) as f64,
                    })
                    .collect()
            }
        }
    }

    fn size_bytes(&self) -> usize {
        0 // the service fronts a model measured elsewhere
    }

    fn cold_start_capable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, LeafId};

    fn recommender() -> GraphExRecommender {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let model = GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("audeze maxwell", LeafId(7), 900, 120),
                KeyphraseRecord::new("gaming headphones xbox", LeafId(7), 800, 700),
            ])
            .build()
            .unwrap();
        GraphExRecommender::new(model)
    }

    #[test]
    fn adapter_matches_direct_inference() {
        let rec = recommender();
        let item = ItemRef::cold("audeze maxwell gaming headphones xbox", LeafId(7));
        let recs = rec.recommend(&item, 5);
        let direct = rec.engine().infer(
            &InferRequest::new(item.title, item.leaf)
                .k(5)
                .resolve_texts(true),
        );
        assert_eq!(recs.len(), direct.texts.len());
        for (r, text) in recs.iter().zip(&direct.texts) {
            assert_eq!(&r.text, text);
        }
        assert_eq!(rec.name(), "GraphEx");
        assert!(rec.cold_start_capable());
        assert!(rec.size_bytes() > 0);
    }

    #[test]
    fn pool_reuse_is_correct_across_calls() {
        let rec = recommender();
        let item = ItemRef::cold("audeze maxwell gaming headphones xbox", LeafId(7));
        let first = rec.recommend(&item, 5);
        for _ in 0..10 {
            assert_eq!(rec.recommend(&item, 5), first);
        }
    }

    #[test]
    fn concurrent_callers() {
        let rec = std::sync::Arc::new(recommender());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                let item = ItemRef::cold("audeze maxwell gaming headphones xbox", LeafId(7));
                for _ in 0..100 {
                    assert_eq!(rec.recommend(&item, 5).len(), 2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn service_recommender_over_an_engine() {
        let rec = recommender();
        let via_service = ServiceRecommender::new("GraphEx(service)", rec.engine().clone());
        let item = ItemRef::known(3, "audeze maxwell gaming headphones xbox", LeafId(7));
        let a = rec.recommend(&item, 5);
        let b = via_service.recommend(&item, 5);
        assert_eq!(
            a.iter().map(|r| &r.text).collect::<Vec<_>>(),
            b.iter().map(|r| &r.text).collect::<Vec<_>>()
        );
        // Rank-based scores are descending by construction.
        for w in b.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert_eq!(via_service.name(), "GraphEx(service)");
        assert!(via_service.cold_start_capable());
    }

    #[test]
    fn service_recommender_with_alignment_matches_direct_scores() {
        use graphex_core::Alignment;
        let rec = recommender(); // model default alignment is LTA
        let via_service = ServiceRecommender::with_alignment(
            "GraphEx(service)",
            rec.engine().clone(),
            Alignment::Lta,
        );
        let item = ItemRef::known(3, "audeze maxwell gaming headphones xbox", LeafId(7));
        let a = rec.recommend(&item, 5);
        let b = via_service.recommend(&item, 5);
        assert_eq!(a, b, "same alignment → identical texts and scores");
        for w in b.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
