//! Quickstart: build a GraphEx model from curated keyphrases and recommend
//! for an item title — the paper's Figure 3 walkthrough.
//!
//! ```bash
//! cargo run --release -p graphex-suite --example quickstart
//! ```

use graphex_core::{
    Alignment, Engine, GraphExBuilder, GraphExConfig, InferRequest, KeyphraseRecord, LeafId,
};

fn main() {
    // Curated buyer queries for one leaf category ("gaming headsets"),
    // with their Search and Recall counts from the search logs.
    let leaf = LeafId(7);
    let records = vec![
        KeyphraseRecord::new("audeze maxwell", leaf, 900, 120),
        KeyphraseRecord::new("audeze headphones", leaf, 450, 300),
        KeyphraseRecord::new("gaming headphones xbox", leaf, 800, 700),
        KeyphraseRecord::new("wireless headphones xbox", leaf, 650, 800),
        KeyphraseRecord::new("bluetooth wireless headphones", leaf, 300, 900),
    ];

    // Construction phase: per-leaf bipartite word→keyphrase graphs.
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0; // demo data is tiny; keep everything
    let model = GraphExBuilder::new(config)
        .add_records(records)
        .build()
        .expect("build model");
    let stats = model.stats();
    println!(
        "model: {} keyphrases, {} tokens, {} edges, {} bytes serialized\n",
        stats.num_keyphrases,
        stats.num_tokens,
        stats.total_edges,
        model.size_bytes()
    );

    // Inference phase: Algorithm 1 (enumeration) + LTA ranking, through
    // the request/response envelope every frontend uses.
    let engine = Engine::from_model(model);
    let title = "Audeze Maxwell gaming headphones for Xbox";
    println!("item title: {title:?}\n");
    let request = InferRequest::new(title, leaf).k(10).resolve_texts(true);
    let response = engine.infer(&request);
    println!(
        "outcome: {} ({} keyphrases)\n",
        response.outcome.name(),
        response.len()
    );
    println!(
        "{:<32} {:>7} {:>9} {:>8} {:>8}",
        "keyphrase", "LTA", "matched", "search", "recall"
    );
    for (p, text) in response.predictions.iter().zip(&response.texts) {
        println!(
            "{:<32} {:>7.2} {:>6}/{:<2} {:>8} {:>8}",
            text,
            p.score(Alignment::Lta),
            p.matched,
            p.label_len,
            p.search_count,
            p.recall_count,
        );
    }
}
