//! `graphex explain` — inference with full token-level provenance
//! (Sec. III-G interpretability) rendered one rationale per line.

use super::{load_model, parse_leaf};
use crate::args::ParsedArgs;
use graphex_core::{InferenceParams, Scratch};
use std::fmt::Write as _;

pub fn run(args: &ParsedArgs) -> Result<String, String> {
    let model = load_model(args)?;
    let leaf = parse_leaf(args)?;
    let title = args.require("title")?;
    let k = args.get_num::<usize>("k", 10)?;
    let mut scratch = Scratch::new();
    let explained = model
        .explain(title, leaf, &InferenceParams::with_k(k), &mut scratch)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "title: {title:?} ({leaf}, {} candidates)",
        explained.len()
    );
    for (rank, e) in explained.iter().enumerate() {
        let _ = writeln!(out, "{:>3}. {}", rank + 1, e.rationale());
    }
    Ok(out)
}
