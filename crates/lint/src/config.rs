//! The embedded workspace model: which crates are deterministic, which are
//! drivers, and which rules apply where.
//!
//! The classification mirrors DESIGN.md: the *deterministic* crates carry
//! the bit-reproducibility invariant behind every golden pin (virtual time
//! only, seeded RNG only, ordered collections), while the *driver* crates
//! (testbed, bench, CLI, and this linter) own wall clocks, I/O, and
//! threads by design. The table is embedded in the tool rather than read
//! from a config file so the invariant cannot drift silently out of CI.

use crate::rules::Rule;

/// How a crate participates in the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Pure event-driven code: virtual time, seeded randomness, ordered
    /// collections and no panicking shortcuts in library paths (clippy
    /// holds those; `unsigned-sub` and `pub-doc-drift` apply here).
    Deterministic,
    /// Runtime drivers that legitimately touch clocks, threads, and I/O.
    Driver,
}

/// Per-crate lint configuration.
#[derive(Debug, Clone, Copy)]
pub struct CrateConfig {
    /// Crate directory name under `crates/` (or `"."` for the root lib).
    pub name: &'static str,
    /// Determinism class.
    pub class: CrateClass,
}

/// The workspace table. Order is the deterministic scan order.
pub const CRATES: &[CrateConfig] = &[
    CrateConfig {
        name: "simcore",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "dist",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "metrics",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "workload",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "policy",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "lifecycle",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "sched",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "faults",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "core",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "obs",
        class: CrateClass::Deterministic,
    },
    CrateConfig {
        name: "testbed",
        class: CrateClass::Driver,
    },
    CrateConfig {
        name: "bench",
        class: CrateClass::Driver,
    },
    CrateConfig {
        name: "cli",
        class: CrateClass::Driver,
    },
    CrateConfig {
        name: "lint",
        class: CrateClass::Driver,
    },
    // The workspace-root umbrella lib (`src/lib.rs`): re-exports only, but
    // it is glue for integration tests, so it is driver-side.
    CrateConfig {
        name: ".",
        class: CrateClass::Driver,
    },
];

/// The synthetic config used in `--paths` mode (fixtures, ad-hoc files):
/// strictest settings so every rule is exercised.
pub const STRICT: CrateConfig = CrateConfig {
    name: "<paths>",
    class: CrateClass::Deterministic,
};

/// Looks up a crate by directory name.
pub fn crate_config(name: &str) -> Option<&'static CrateConfig> {
    CRATES.iter().find(|c| c.name == name)
}

/// Whether `rule` applies to code in `cfg` (test code is always exempt;
/// that filtering happens in the rule engine, not here).
pub fn rule_applies(rule: Rule, cfg: &CrateConfig) -> bool {
    match rule {
        // The subtraction audit and the cross-crate doc contract are
        // scoped to deterministic library code: drivers legitimately
        // bridge to std::time (u128 nanos) and OS APIs, and their
        // conversions are covered by targeted tests instead (see
        // crates/testbed).
        Rule::UnsignedSub | Rule::PubDocDrift => cfg.class == CrateClass::Deterministic,
        // Hot regions only exist where someone wrote a `hot(...)` marker,
        // so the rule is cheap to leave on everywhere.
        Rule::HotAlloc | Rule::MalformedAllow => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_crates_get_determinism_rules() {
        let sched = crate_config("sched").unwrap();
        assert!(rule_applies(Rule::UnsignedSub, sched));
        let testbed = crate_config("testbed").unwrap();
        assert!(!rule_applies(Rule::UnsignedSub, testbed));
        assert!(rule_applies(Rule::HotAlloc, testbed));
    }
}
