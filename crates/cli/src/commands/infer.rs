//! `graphex infer` — recommend keyphrases for one title (`--title`) or a
//! stream of titles (`--stdin`, one per line). Output is TSV:
//! `rank<TAB>keyphrase<TAB>score<TAB>search<TAB>recall` (with a leading
//! title column in stream mode). `--alignment` overrides the model's
//! ranking function per request; `--outcome` appends a `# outcome: …`
//! line showing the inference provenance (exact leaf vs. meta fallback).

use super::{load_model, parse_leaf};
use crate::args::ParsedArgs;
use graphex_core::{Alignment, Engine, InferRequest, Outcome, Session};
use std::fmt::Write as _;
use std::io::BufRead;

pub fn run(args: &ParsedArgs) -> Result<String, String> {
    let engine = Engine::from_model(load_model(args)?);
    let leaf = parse_leaf(args)?;
    let k = args.get_num::<usize>("k", 20)?;
    let alignment = match args.get("alignment") {
        None => None,
        Some("lta") => Some(Alignment::Lta),
        Some("wmr") => Some(Alignment::Wmr),
        Some("jac") => Some(Alignment::Jac),
        Some(other) => return Err(format!("unknown alignment {other:?} (lta|wmr|jac)")),
    };
    let show_outcome = args.switch("outcome");
    let mut session = engine.session();

    let template = {
        let mut req = InferRequest::new("", leaf).k(k).resolve_texts(true);
        if let Some(a) = alignment {
            req = req.alignment(a);
        }
        req
    };

    if args.switch("stdin") {
        let stdin = std::io::stdin();
        let mut out = String::new();
        for line in stdin.lock().lines() {
            let title = line.map_err(|e| format!("stdin: {e}"))?;
            if title.trim().is_empty() {
                continue;
            }
            render_response(
                &mut session,
                InferRequest {
                    title: &title,
                    ..template
                },
                true,
                show_outcome,
                &mut out,
            )?;
        }
        Ok(out)
    } else {
        let title = args.require("title")?;
        let mut out = String::new();
        render_response(
            &mut session,
            InferRequest { title, ..template },
            false,
            show_outcome,
            &mut out,
        )?;
        Ok(out)
    }
}

fn render_response(
    session: &mut Session<'_>,
    request: InferRequest<'_>,
    include_title: bool,
    show_outcome: bool,
    out: &mut String,
) -> Result<(), String> {
    let response = session.infer(&request);
    if response.outcome == Outcome::UnknownLeaf {
        return Err(format!(
            "no graph for {} and no fallback built into this model",
            request.leaf
        ));
    }
    let alignment = request
        .alignment
        .unwrap_or_else(|| session.engine().model().alignment());
    for (rank, (p, text)) in response.predictions.iter().zip(&response.texts).enumerate() {
        if include_title {
            let _ = write!(out, "{}\t", request.title);
        }
        let _ = writeln!(
            out,
            "{}\t{}\t{:.4}\t{}\t{}",
            rank + 1,
            text,
            p.score(alignment),
            p.search_count,
            p.recall_count,
        );
    }
    if show_outcome {
        let _ = writeln!(out, "# outcome: {}", response.outcome.name());
    }
    Ok(())
}
