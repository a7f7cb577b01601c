//! `graphex diff` — compare two model files (daily-refresh gate).

use crate::args::ParsedArgs;
use graphex_core::diff::diff_models;
use graphex_core::serialize;
use std::fmt::Write as _;

pub fn run(args: &ParsedArgs) -> Result<String, String> {
    let old_path = args.require("old")?;
    let new_path = args.require("new")?;
    let old = serialize::load_from(old_path).map_err(|e| format!("load {old_path}: {e}"))?;
    let new = serialize::load_from(new_path).map_err(|e| format!("load {new_path}: {e}"))?;
    let diff = diff_models(&old, &new);

    let mut out = String::new();
    let _ = writeln!(out, "{}", diff.summary());
    let max_listed = args.get_num::<usize>("max-listed", 10)?;
    for (leaf, change) in diff.changed_leaves.iter().take(max_listed) {
        let _ = writeln!(
            out,
            "  leaf {leaf}: +{} -{} (={})",
            change.added.len(),
            change.removed.len(),
            change.retained
        );
        for phrase in change.added.iter().take(3) {
            let _ = writeln!(out, "    + {phrase}");
        }
        for phrase in change.removed.iter().take(3) {
            let _ = writeln!(out, "    - {phrase}");
        }
    }
    if diff.changed_leaves.len() > max_listed {
        let _ = writeln!(
            out,
            "  ... {} more changed leaves",
            diff.changed_leaves.len() - max_listed
        );
    }
    Ok(out)
}
