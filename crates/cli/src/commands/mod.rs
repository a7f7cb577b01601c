//! CLI subcommands. Each `run` takes parsed args and returns the stdout
//! payload, so tests exercise commands as plain functions.

pub mod build;
pub mod cluster;
pub mod diff;
pub mod explain;
pub mod infer;
pub mod model;
pub mod overlay;
pub mod report;
pub mod route;
pub mod serve;
pub mod simulate;
pub mod stats;
pub mod tenant;
pub mod trace;

use crate::args::ParsedArgs;
use graphex_core::{GraphExModel, LeafId};
use graphex_server::Json;

/// Loads a model from `--model`.
pub(crate) fn load_model(args: &ParsedArgs) -> Result<GraphExModel, String> {
    let path = args.require("model")?;
    graphex_core::serialize::load_from(path).map_err(|e| format!("load {path}: {e}"))
}

/// Parses `--leaf`.
pub(crate) fn parse_leaf(args: &ParsedArgs) -> Result<LeafId, String> {
    Ok(LeafId(args.get_num::<u32>("leaf", 0).and_then(|v| {
        if args.get("leaf").is_none() {
            Err("missing --leaf".to_string())
        } else {
            Ok(v)
        }
    })?))
}

/// A running server's `/statusz`, parsed.
pub(crate) fn fetch_statusz(addr: &str) -> Result<Json, String> {
    let mut client =
        graphex_server::HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let response = client
        .get("/statusz")
        .map_err(|e| format!("GET /statusz: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET /statusz: HTTP {}", response.status));
    }
    graphex_server::json::parse(&response.text()).map_err(|e| format!("statusz is not JSON: {e}"))
}

/// The serving rows of a `/statusz` document, each under its tenant's
/// name: a single server's one row is the document itself (no name), a
/// fleet's rows are its tenant table, kept to `name`'s when one is given.
/// No row left is an error.
pub(crate) fn statusz_rows<'a>(
    statusz: &'a Json,
    name: Option<&str>,
) -> Result<Vec<(Option<&'a str>, &'a Json)>, String> {
    let Some(tenants) = statusz.get("tenants").and_then(Json::as_arr) else {
        return Ok(vec![(None, statusz)]);
    };
    let rows: Vec<_> = tenants
        .iter()
        .map(|row| (row.get("name").and_then(Json::as_str), row))
        .filter(|(row_name, _)| name.is_none() || *row_name == name)
        .collect();
    if rows.is_empty() {
        return Err(match name {
            Some(wanted) => format!("server knows no tenant {wanted:?}"),
            None => "server reported an empty fleet".into(),
        });
    }
    Ok(rows)
}

/// A counter of a `/statusz` object (0 when absent).
pub(crate) fn num(object: &Json, key: &str) -> u64 {
    object.get(key).and_then(Json::as_u64).unwrap_or(0)
}
