//! The shard map: which backend serves which leaf residue class.
//!
//! Same plain-text `key value` philosophy as the registry `MANIFEST` and
//! the pipeline `BUILDINFO` (forward-compatible, diffable, no codec):
//!
//! ```text
//! graphex-shardmap 1
//! shards 3
//! backend 0 127.0.0.1:7001
//! backend 1 127.0.0.1:7002
//! backend 2 127.0.0.1:7003
//! ```
//!
//! Routing is the same arithmetic the pipeline uses for emission
//! (`graphex_pipeline::shard_of`): leaf `l` lives on backend
//! `l % shards`. The map is valid only when every index in `0..shards`
//! names exactly one backend — a partial map would silently blackhole
//! residue classes, so parsing rejects it.

use std::path::Path;

/// A validated shard map: `backends[i]` serves every leaf with
/// `leaf % len == i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    backends: Vec<String>,
}

impl ShardMap {
    /// A map over backends listed in shard order (index = position).
    pub fn from_backends(backends: Vec<String>) -> Result<Self, String> {
        if backends.is_empty() {
            return Err("shard map needs at least one backend".into());
        }
        for (i, addr) in backends.iter().enumerate() {
            if addr.trim().is_empty() {
                return Err(format!("backend {i} has an empty address"));
            }
        }
        Ok(Self { backends })
    }

    /// Number of shards (== number of backends).
    pub fn shards(&self) -> u32 {
        self.backends.len() as u32
    }

    /// Backend addresses in shard order.
    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// The shard index owning `leaf`.
    pub fn shard_for_leaf(&self, leaf: u32) -> usize {
        (leaf % self.shards()) as usize
    }

    /// The backend address owning `leaf`.
    pub fn backend_for_leaf(&self, leaf: u32) -> &str {
        &self.backends[self.shard_for_leaf(leaf)]
    }

    /// Serializes to shard-map text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graphex-shardmap 1");
        let _ = writeln!(out, "shards {}", self.backends.len());
        for (i, addr) in self.backends.iter().enumerate() {
            let _ = writeln!(out, "backend {i} {addr}");
        }
        out
    }

    /// Parses shard-map text, requiring every shard index exactly once.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut declared: Option<usize> = None;
        let mut versioned = false;
        let mut slots: Vec<Option<String>> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            let fail = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            match key {
                "graphex-shardmap" => {
                    if value.split_whitespace().next() != Some("1") {
                        return Err(fail("unsupported shardmap version"));
                    }
                    versioned = true;
                }
                "shards" => {
                    let n: usize = value.parse().map_err(|_| fail("bad shard count"))?;
                    if n == 0 {
                        return Err(fail("shard count must be at least 1"));
                    }
                    declared = Some(n);
                    slots.resize(n, None);
                }
                "backend" => {
                    let n = declared.ok_or_else(|| fail("backend before shards line"))?;
                    let (index, addr) = value
                        .split_once(' ')
                        .ok_or_else(|| fail("bad backend line"))?;
                    let index: usize = index.parse().map_err(|_| fail("bad backend index"))?;
                    if index >= n {
                        return Err(fail("backend index out of range"));
                    }
                    if addr.trim().is_empty() {
                        return Err(fail("empty backend address"));
                    }
                    if slots[index].replace(addr.trim().to_string()).is_some() {
                        return Err(fail("duplicate backend index"));
                    }
                }
                _ => {} // forward-compatible
            }
        }
        if !versioned {
            return Err("missing graphex-shardmap header".into());
        }
        let declared = declared.ok_or("missing shards line")?;
        let mut backends = Vec::with_capacity(declared);
        for (i, slot) in slots.into_iter().enumerate() {
            backends.push(slot.ok_or_else(|| format!("shard {i} has no backend"))?);
        }
        Self::from_backends(backends)
    }

    /// Reads and parses a shard-map file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardMap {
        ShardMap::from_backends(vec![
            "127.0.0.1:7001".into(),
            "127.0.0.1:7002".into(),
            "127.0.0.1:7003".into(),
        ])
        .unwrap()
    }

    #[test]
    fn render_parse_roundtrip() {
        let map = sample();
        assert_eq!(ShardMap::parse(&map.render()).unwrap(), map);
        // Out-of-order backend lines are fine; index wins.
        let shuffled = "graphex-shardmap 1\nshards 2\nbackend 1 b\nbackend 0 a\n";
        let map = ShardMap::parse(shuffled).unwrap();
        assert_eq!(map.backends(), ["a", "b"]);
    }

    #[test]
    fn routing_is_modular() {
        let map = sample();
        assert_eq!(map.shard_for_leaf(4000), 4000 % 3);
        assert_eq!(map.backend_for_leaf(7), map.backends()[1]);
        for leaf in 0..100u32 {
            assert_eq!(map.shard_for_leaf(leaf), (leaf % 3) as usize);
        }
    }

    #[test]
    fn rejects_incomplete_or_malformed_maps() {
        for (bad, why) in [
            ("", "missing header"),
            ("graphex-shardmap 2\nshards 1\nbackend 0 a\n", "bad version"),
            ("graphex-shardmap 1\n", "missing shards"),
            ("graphex-shardmap 1\nshards 0\n", "zero shards"),
            (
                "graphex-shardmap 1\nshards 2\nbackend 0 a\n",
                "missing shard 1",
            ),
            (
                "graphex-shardmap 1\nshards 1\nbackend 0 a\nbackend 0 b\n",
                "duplicate",
            ),
            (
                "graphex-shardmap 1\nshards 1\nbackend 5 a\n",
                "out of range",
            ),
            (
                "graphex-shardmap 1\nbackend 0 a\nshards 1\n",
                "backend before shards",
            ),
            (
                "graphex-shardmap 1\nshards 1\nbackend 0  \n",
                "empty address",
            ),
        ] {
            assert!(ShardMap::parse(bad).is_err(), "accepted {why}: {bad:?}");
        }
    }

    #[test]
    fn unknown_keys_and_comments_are_ignored() {
        let text = "# local cluster\ngraphex-shardmap 1\nshards 1\nbackend 0 a\nfuture x y\n";
        assert_eq!(ShardMap::parse(text).unwrap().backends(), ["a"]);
    }
}
