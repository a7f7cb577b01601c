//! Regenerates every table and figure of the paper in one run, sharing the
//! datasets, trained models and judged evaluation across experiments —
//! or one of them with `--only <section>`, which trains only the
//! categories that section reads.
//!
//! ```bash
//! cargo run --release -p graphex-bench --bin repro_all                   # full scale
//! GRAPHEX_SCALE=quick cargo run --release -p graphex-bench --bin repro_all
//! cargo run --release -p graphex-bench --bin repro_all -- --only table3  # one section
//! ```

use graphex_bench::experiments::{render, run_studies, run_study, Study};
use graphex_bench::Scale;

/// Which categories a section reads (ordered: a run trains what its
/// greediest section reads).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Reads {
    /// None: the section is static.
    Nothing,
    /// The first (largest) category.
    First,
    /// Every category of the scale.
    All,
}

type Render = fn(&[Study]) -> String;

/// Every section, in output order.
const SECTIONS: [(&str, Reads, Render); 12] = [
    ("table1", Reads::Nothing, |_| render::table1()),
    ("table2", Reads::All, render::table2),
    ("fig2", Reads::First, |s| render::fig2(&s[0])),
    ("fig4", Reads::All, render::fig4),
    ("table3", Reads::All, render::table3),
    ("table4", Reads::All, render::table4),
    ("fig5", Reads::First, |s| render::fig5(&s[0])),
    ("table5", Reads::All, render::table5),
    ("table6", Reads::All, render::table6),
    ("table7", Reads::First, |s| render::table7(&s[0])),
    ("fig6", Reads::All, render::fig6),
    ("serving_demo", Reads::First, |s| render::serving_demo(&s[0])),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sections: Vec<_> = match args.as_slice() {
        [] => SECTIONS.to_vec(),
        [flag, name] if flag == "--only" => {
            SECTIONS.iter().filter(|(n, _, _)| n == name).copied().collect()
        }
        _ => Vec::new(),
    };
    if sections.is_empty() {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _, _)| *name).collect();
        eprintln!("usage: repro_all [--only <section>]\nsections: {}", names.join(", "));
        std::process::exit(2);
    }

    let scale = Scale::from_env();
    eprintln!("[repro_all] scale: {scale:?}");
    let studies = match sections.iter().map(|(_, reads, _)| *reads).max() {
        Some(Reads::All) => run_studies(scale),
        Some(Reads::First) => {
            let spec = scale.specs().remove(0);
            vec![run_study(spec, scale.test_set_sizes()[0])]
        }
        _ => Vec::new(),
    };

    let mut out = String::new();
    for (_, _, render) in sections {
        out.push_str(&render(&studies));
        out.push_str("\n================================================================\n\n");
    }
    // Single locked write: the output is the artifact.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    lock.write_all(out.as_bytes()).expect("stdout write");
}
