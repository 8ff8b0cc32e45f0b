//! Encoding styles: the experimental axis of the paper's §3.1 comparison.
//!
//! Every style runs through the *same* WP calculus and the *same* SMT
//! solver; what differs is the query content, reproducing the documented
//! mechanism that makes each baseline slower than Verus:
//!
//! | Style        | Mechanism modeled |
//! |--------------|-------------------|
//! | `Verus`      | ownership encoding (plain substitution), minimal triggers, reachability-pruned context |
//! | `DafnyLike`  | global-heap select/store encoding with quantified frame axioms per update, broad triggers, whole-crate context |
//! | `FStarLike`  | heap encoding plus monadic wrapping overhead (extra definitional layers per statement) |
//! | `PrustiLike` | re-proves ownership: per-statement permission-accounting obligations |
//! | `CreusotLike`| prophecy encoding of mutable state (final-value variables and resolution equalities) |

/// Verification encoding style.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Style {
    Verus,
    DafnyLike,
    FStarLike,
    PrustiLike,
    CreusotLike,
}

impl Style {
    pub const ALL: [Style; 5] = [
        Style::Verus,
        Style::DafnyLike,
        Style::FStarLike,
        Style::PrustiLike,
        Style::CreusotLike,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Style::Verus => "Verus",
            Style::DafnyLike => "Dafny",
            Style::FStarLike => "F*",
            Style::PrustiLike => "Prusti",
            Style::CreusotLike => "Creusot",
        }
    }

    /// Does this style re-verify ownership/permissions per statement?
    pub fn permission_accounting(self) -> bool {
        matches!(self, Style::PrustiLike)
    }

    /// Extra definitional wrapping layers per statement (monadic encoding).
    pub fn wrapper_layers(self) -> usize {
        match self {
            Style::FStarLike => 2,
            _ => 0,
        }
    }

    /// Broad trigger policy (every candidate subterm becomes a trigger)?
    pub fn broad_triggers(self) -> bool {
        matches!(self, Style::DafnyLike | Style::FStarLike)
    }

    /// Prune the query context to definitions reachable from the function
    /// under verification?
    pub fn prunes_context(self) -> bool {
        matches!(self, Style::Verus | Style::CreusotLike | Style::PrustiLike)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_assignments() {
        assert!(Style::Verus.prunes_context());
        assert!(!Style::Verus.broad_triggers());
        assert!(Style::DafnyLike.broad_triggers());
        assert!(!Style::DafnyLike.prunes_context());
        assert!(Style::PrustiLike.permission_accounting());
        assert_eq!(Style::FStarLike.wrapper_layers(), 2);
    }
}
