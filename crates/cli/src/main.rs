//! `graphex` — the GraphEx command-line tool.
//!
//! ```text
//! graphex simulate --preset cat3 --output records.tsv
//! graphex build    --input records.tsv --output model.gexm --min-search 10
//! graphex infer    --model model.gexm --leaf 3001 --title "audeze maxwell headphones"
//! graphex explain  --model model.gexm --leaf 3001 --title "audeze maxwell headphones"
//! graphex stats    --model model.gexm
//! ```
//!
//! Record TSV format (one keyphrase per line):
//! `text<TAB>leaf_id<TAB>search_count<TAB>recall_count`

#![forbid(unsafe_code)]

use graphex_cli::{dispatch, usage};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(output) => {
            use std::io::Write;
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let _ = lock.write_all(output.as_bytes());
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            std::process::exit(1);
        }
    }
}
