//! Diagnostic: how often do WMR/JAC/LTA produce different top-k sets?

use graphex_bench::experiments::{build_graphex, default_threshold};
use graphex_core::{Alignment, InferRequest, Scratch};
use graphex_marketsim::{CategoryDataset, CategorySpec};

fn main() {
    let ds = CategoryDataset::generate(CategorySpec::cat2());
    let model = build_graphex(&ds, default_threshold(&ds));
    let mut scratch = Scratch::new();
    for k in [3usize, 5, 8, 10, 15] {
        probe(&ds, &model, &mut scratch, k);
    }
    // RP per alignment at small k (judged with the exact oracle).
    let oracle = ds.oracle();
    for k in [3usize, 5] {
        print!("k={k} RP:");
        for a in [Alignment::Wmr, Alignment::Jac, Alignment::Lta] {
            let (mut relevant, mut total) = (0usize, 0usize);
            for item in ds.test_items(400, 1) {
                let req = InferRequest::new(&item.title, item.leaf)
                    .k(k)
                    .alignment(a)
                    .resolve_texts(true);
                for text in &model.infer_request(&req, &mut scratch).texts {
                    total += 1;
                    if oracle.is_relevant(item, text) {
                        relevant += 1;
                    }
                }
            }
            print!(
                "  {}={:.1}%",
                a.name(),
                100.0 * relevant as f64 / total.max(1) as f64
            );
        }
        println!();
    }
}

fn probe(
    ds: &CategoryDataset,
    model: &graphex_core::GraphExModel,
    scratch: &mut Scratch,
    k: usize,
) {
    let mut diff_sets = [0usize; 3]; // LTA-vs-WMR, LTA-vs-JAC, WMR-vs-JAC
    let mut pool_over_k = 0usize;
    let items = ds.test_items(400, 1);
    for item in &items {
        let run = |a: Alignment, scratch: &mut Scratch| -> Vec<u32> {
            let req = InferRequest::new(&item.title, item.leaf).k(k).alignment(a);
            let mut v: Vec<u32> = model
                .infer_request(&req, scratch)
                .predictions
                .iter()
                .map(|p| p.keyphrase)
                .collect();
            v.sort_unstable();
            v
        };
        let all = InferRequest::new(&item.title, item.leaf)
            .k(usize::MAX)
            .keep_threshold_group(true);
        let pool = model.infer_request(&all, scratch).predictions;
        if pool.len() > k {
            pool_over_k += 1;
        }
        let lta = run(Alignment::Lta, scratch);
        let wmr = run(Alignment::Wmr, scratch);
        let jac = run(Alignment::Jac, scratch);
        if lta != wmr {
            diff_sets[0] += 1;
        }
        if lta != jac {
            diff_sets[1] += 1;
        }
        if wmr != jac {
            diff_sets[2] += 1;
        }
    }
    println!(
        "k={k}: items: {}  pool>k: {}  set-diffs LTA/WMR: {}  LTA/JAC: {}  WMR/JAC: {}",
        items.len(),
        pool_over_k,
        diff_sets[0],
        diff_sets[1],
        diff_sets[2]
    );
}
