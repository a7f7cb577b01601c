//! # bench — the experiment harness regenerating every table and figure
//!
//! One binary, `repro_all`, built on the shared [`experiments`] machinery:
//! generate the three category datasets (Table II), train all six models,
//! run the judged evaluation once, and render the paper's tables from it —
//! all of them, or one with `--only <section>`.
//!
//! Scale control: set `GRAPHEX_SCALE=quick` to run everything on miniature
//! datasets (seconds, for smoke-testing the harness); the default is the
//! full laptop-scale presets (the CAT_1/2/3 specs of `graphex-marketsim`).
//!
//! ```bash
//! cargo run --release -p graphex-bench --bin repro_all -- --only table3  # one experiment
//! cargo run --release -p graphex-bench --bin repro_all                   # everything
//! cargo bench -p graphex-bench                                           # criterion suite
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod tables;

use graphex_marketsim::CategorySpec;

/// Dataset scale for the repro binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The CAT_1/2/3 presets (paper Table II scaled ×1000 down).
    Full,
    /// Miniature datasets for smoke runs.
    Quick,
}

impl Scale {
    /// Reads `GRAPHEX_SCALE` (`quick` → [`Scale::Quick`], anything else →
    /// [`Scale::Full`]).
    pub fn from_env() -> Self {
        match std::env::var("GRAPHEX_SCALE").as_deref() {
            Ok("quick") | Ok("QUICK") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// The category specs at this scale.
    pub fn specs(self) -> Vec<CategorySpec> {
        match self {
            Scale::Full => vec![
                CategorySpec::cat1(),
                CategorySpec::cat2(),
                CategorySpec::cat3(),
            ],
            Scale::Quick => {
                let mut c1 = CategorySpec::tiny(0xC1);
                c1.name = "CAT_1".into();
                c1.num_items = 3_000;
                c1.num_sessions = 18_000;
                c1.num_leaves = 6;
                c1.products_per_leaf = 20;
                let mut c2 = CategorySpec::tiny(0xC2);
                c2.name = "CAT_2".into();
                c2.num_items = 1_200;
                c2.num_sessions = 7_000;
                c2.leaf_id_base = 9_500;
                let mut c3 = CategorySpec::tiny(0xC3);
                c3.name = "CAT_3".into();
                c3.num_items = 600;
                c3.num_sessions = 3_000;
                c3.leaf_id_base = 9_800;
                vec![c1, c2, c3]
            }
        }
    }

    /// Test-set sizes per category (paper: 1000/400/200).
    pub fn test_set_sizes(self) -> [usize; 3] {
        match self {
            Scale::Full => [1000, 400, 200],
            Scale::Quick => [120, 80, 50],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_scale_defaults_to_full() {
        // (Cannot mutate the env safely in parallel tests; just check the
        // mapping logic through specs().)
        assert_eq!(Scale::Full.specs().len(), 3);
        assert_eq!(Scale::Quick.specs().len(), 3);
        assert_eq!(Scale::Full.test_set_sizes(), [1000, 400, 200]);
    }

    #[test]
    fn quick_specs_are_small_and_named_like_paper() {
        let specs = Scale::Quick.specs();
        assert_eq!(specs[0].name, "CAT_1");
        assert!(specs.iter().all(|s| s.num_items <= 3_000));
        // Leaf id ranges must not collide across categories.
        assert!(specs[0].leaf_id_base + specs[0].num_leaves as u32 <= specs[1].leaf_id_base);
        assert!(specs[1].leaf_id_base + specs[1].num_leaves as u32 <= specs[2].leaf_id_base);
    }
}
