//! Multithreaded batch inference (paper Sec. IV-A / IV-H).
//!
//! GraphEx "employs coarse-grained multithreading, assigning each input's
//! inference to an individual thread". One driver, [`batch_infer_with`],
//! gives each worker a contiguous chunk of the batch and one
//! [`crate::Scratch`] from a [`ScratchPool`], and hands every answer to the
//! caller's sink on the worker that computed it — so what is done with an
//! answer (collect it, store it, count it) runs in parallel too, and a
//! worker allocates only what its answers and its sink do.
//!
//! Requests are full [`InferRequest`] envelopes: every item in a batch can
//! carry its own `k`, alignment override, and resolve-texts flag. Each
//! answer is tagged with the [`crate::Outcome`] that explains it — a batch
//! never aborts because one item is in a cold category; that item simply
//! reports `UnknownLeaf`.

use crate::model::GraphExModel;
use crate::service::{InferRequest, InferResponse, ScratchPool};

/// Runs inference for every request, in order, using up to `num_threads`
/// worker threads (`0` = all available cores).
///
/// Per-request parameters are honoured; the result is identical to calling
/// [`GraphExModel::infer_request`] sequentially (pinned by a property test
/// in `crates/core/tests/service_props.rs`). Prefer
/// [`crate::Engine::infer_batch`] when calling repeatedly — the engine's
/// pool keeps scratch buffers warm across batches.
pub fn batch_infer(
    model: &GraphExModel,
    requests: &[InferRequest<'_>],
    num_threads: usize,
) -> Vec<InferResponse> {
    batch_infer_pooled(model, requests, num_threads, &ScratchPool::new())
}

/// [`batch_infer`] drawing scratches from an existing pool (the
/// [`crate::Engine`] path): the driver with a sink that collects each
/// worker's answers, joined in chunk order.
pub(crate) fn batch_infer_pooled(
    model: &GraphExModel,
    requests: &[InferRequest<'_>],
    num_threads: usize,
    pool: &ScratchPool,
) -> Vec<InferResponse> {
    let collect = |answers: &mut Vec<InferResponse>, _, response| answers.push(response);
    let mut chunks = batch_infer_with(
        model,
        requests.len(),
        |i| requests[i],
        num_threads,
        pool,
        collect,
    )
    .into_iter();
    let mut answers = chunks.next().expect("at least one worker");
    answers.extend(chunks.flatten());
    answers
}

/// The batch driver. Answers `request(i)` for every `i` in `0..count` on up
/// to `num_threads` workers (`0` = all available cores), each taking one
/// contiguous chunk in index order, and calls `sink(state, i, response)`
/// on the worker that computed the response; `state` is that worker's own
/// `T`, starting from `T::default()`. Returns the workers' states in chunk
/// order; a single worker runs on the calling thread.
pub fn batch_infer_with<'r, T, R, S>(
    model: &GraphExModel,
    count: usize,
    request: R,
    num_threads: usize,
    pool: &ScratchPool,
    sink: S,
) -> Vec<T>
where
    T: Default + Send,
    R: Fn(usize) -> InferRequest<'r> + Sync,
    S: Fn(&mut T, usize, InferResponse) + Sync,
{
    let work = |range: std::ops::Range<usize>| {
        let mut state = T::default();
        let mut scratch = pool.take();
        for i in range {
            sink(
                &mut state,
                i,
                model.infer_request(&request(i), &mut scratch),
            );
        }
        pool.give(scratch);
        state
    };
    let threads = effective_threads(num_threads, count);
    if threads <= 1 {
        return vec![work(0..count)];
    }
    let chunk = count.div_ceil(threads);
    let work = &work;
    crossbeam::thread::scope(|scope| {
        let workers: Vec<_> = (0..count)
            .step_by(chunk)
            .map(|start| scope.spawn(move |_| work(start..count.min(start + chunk))))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("batch inference worker panicked"))
            .collect()
    })
    .expect("batch inference worker panicked")
}

fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = if requested == 0 { hw } else { requested };
    threads.min(work_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphExBuilder, GraphExConfig};
    use crate::service::Outcome;
    use crate::types::{KeyphraseRecord, LeafId};

    fn model() -> GraphExModel {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = false;
        GraphExBuilder::new(config)
            .add_records((0..50).map(|i| {
                KeyphraseRecord::new(
                    format!("brand{i} model{i} widget"),
                    LeafId(i % 5),
                    100 + i,
                    10 + i,
                )
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn batch_matches_sequential() {
        let model = model();
        let titles: Vec<String> = (0..40)
            .map(|i| format!("brand{i} model{i} widget deluxe edition"))
            .collect();
        let requests: Vec<InferRequest<'_>> = titles
            .iter()
            .enumerate()
            .map(|(i, t)| InferRequest::new(t, LeafId(i as u32 % 5)).k(10))
            .collect();
        let seq = batch_infer(&model, &requests, 1);
        let par = batch_infer(&model, &requests, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn driver_gives_each_worker_one_chunk_in_index_order() {
        let model = model();
        let request = |i: usize| InferRequest::new("brand1 model1 widget", LeafId(1)).id(i as u64);
        let note = |seen: &mut Vec<usize>, i: usize, response: InferResponse| {
            assert_eq!(response.id, Some(i as u64));
            seen.push(i);
        };
        let pool = ScratchPool::new();
        let chunks = batch_infer_with(&model, 10, request, 4, &pool, note);
        assert_eq!(
            chunks,
            [vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8], vec![9]]
        );
        assert_eq!(
            batch_infer_with(&model, 10, request, 1, &pool, note),
            [(0..10).collect::<Vec<_>>()]
        );
        assert_eq!(
            batch_infer_with(&model, 0, request, 4, &pool, note),
            [vec![]]
        );
    }

    #[test]
    fn per_request_params_are_honoured() {
        let model = model();
        let title = "brand1 model1 widget deluxe";
        let requests = [
            InferRequest::new(title, LeafId(1)).k(1),
            InferRequest::new(title, LeafId(1))
                .k(10)
                .resolve_texts(true),
        ];
        let out = batch_infer(&model, &requests, 2);
        assert_eq!(out[0].predictions.len(), 1);
        assert!(out[1].predictions.len() > 1);
        assert!(out[0].texts.is_empty());
        assert_eq!(out[1].texts.len(), out[1].predictions.len());
    }

    #[test]
    fn unknown_leaf_in_batch_is_reported_not_fatal() {
        let model = model();
        let requests = [
            InferRequest::new("brand1 model1 widget", LeafId(1)).k(5),
            InferRequest::new("anything", LeafId(999)).k(5),
        ];
        let out = batch_infer(&model, &requests, 2);
        assert_eq!(out[0].outcome, Outcome::ExactLeaf);
        assert_eq!(out[1].outcome, Outcome::UnknownLeaf);
        assert!(out[1].is_empty());
    }

    #[test]
    fn empty_batch() {
        let model = model();
        let out = batch_infer(&model, &[], 0);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let model = model();
        let requests = [InferRequest::new("brand1 model1 widget", LeafId(1)).k(5)];
        let out = batch_infer(&model, &requests, 0);
        assert_eq!(out.len(), 1);
    }
}
