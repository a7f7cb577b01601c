//! Table I: comparative capability matrix of the framework families.
//!
//! These are qualitative claims from the paper (Sec. I/II), encoded as data
//! so `repro_all --only table1` can print the same matrix and tests can
//! assert the shape (GraphEx is the only row with every ✓).

/// Tri-state capability: yes (✓), no (blank), or depends (?).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cap {
    Yes,
    No,
    Depends,
}

impl Cap {
    pub fn symbol(self) -> &'static str {
        match self {
            Cap::Yes => "yes",
            Cap::No => "-",
            Cap::Depends => "?",
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct FrameworkRow {
    pub framework: &'static str,
    /// Feasible daily batch or real-time prediction latency?
    pub feasible_latency: Cap,
    /// Click data debiasing?
    pub click_debiasing: Cap,
    /// *Not* susceptible to RE de-duplication? (the paper phrases the row
    /// negatively; we store "survives de-dup" so Yes is good everywhere)
    pub survives_re_dedup: Cap,
    /// 100 % targeting of in-vocabulary keyphrases?
    pub full_targeting: Cap,
    /// Focus on popular (head) keyphrases?
    pub head_focus: Cap,
}

/// The paper's Table I.
pub fn framework_capabilities() -> Vec<FrameworkRow> {
    vec![
        FrameworkRow {
            framework: "XMC-tagging",
            feasible_latency: Cap::Yes,
            click_debiasing: Cap::Depends,
            survives_re_dedup: Cap::Depends,
            full_targeting: Cap::Yes,
            head_focus: Cap::No,
        },
        FrameworkRow {
            framework: "OOV",
            feasible_latency: Cap::Yes,
            click_debiasing: Cap::Yes,
            survives_re_dedup: Cap::Yes,
            full_targeting: Cap::No,
            head_focus: Cap::No,
        },
        FrameworkRow {
            framework: "GraphEx",
            feasible_latency: Cap::Yes,
            click_debiasing: Cap::Yes,
            survives_re_dedup: Cap::Yes,
            full_targeting: Cap::Yes,
            head_focus: Cap::Yes,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphex_is_the_only_all_yes_row() {
        let rows = framework_capabilities();
        let all_yes = |r: &FrameworkRow| {
            [r.feasible_latency, r.click_debiasing, r.survives_re_dedup, r.full_targeting, r.head_focus]
                .iter()
                .all(|&c| c == Cap::Yes)
        };
        let winners: Vec<&str> = rows.iter().filter(|r| all_yes(r)).map(|r| r.framework).collect();
        assert_eq!(winners, ["GraphEx"]);
    }

    #[test]
    fn three_framework_families() {
        assert_eq!(framework_capabilities().len(), 3);
    }

    #[test]
    fn symbols() {
        assert_eq!(Cap::Yes.symbol(), "yes");
        assert_eq!(Cap::No.symbol(), "-");
        assert_eq!(Cap::Depends.symbol(), "?");
    }
}
