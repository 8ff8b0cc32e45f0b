//! # veris-vc — verification-condition generation
//!
//! Turns VIR functions into SMT queries and runs them:
//!
//! - [`wp`] — weakest-precondition calculus with executable well-formedness
//!   obligations (overflow, division by zero, shift bounds, variant checks)
//!   and extraction of `assert ... by(prover)` side obligations;
//! - [`ctx`] — VIR → SMT encoding with per-instance collection theories and
//!   trigger-guarded spec-function definitional axioms (context pruning);
//! - [`style`] — the encoding-style axis (Verus vs Dafny/F*/Prusti/Creusot
//!   mechanisms) used by the paper's comparative evaluation;
//! - [`verify`] — the driver: per-function reports, crate-level parallel
//!   verification scheduled per function, each function on a clone of its
//!   module's once-encoded base session, query-size metrics, and
//!   time-to-error measurement;
//! - [`cache`] — the content-addressed VC result cache: canonical
//!   fingerprints of (visible context, WP goal, config) mapped to persisted
//!   verdicts, so unchanged functions skip the solver on re-runs.

pub mod cache;
pub mod ctx;
pub mod style;
pub mod verify;
pub mod wp;

pub use style::Style;
pub use verify::{
    verify_function, verify_krate, FnReport, KrateReport, ProverOutcome, ProverRegistry, Status,
    VcConfig, DEFAULT_RLIMIT,
};
// Observability types surfaced in reports, re-exported for downstream use.
pub use veris_lint::{ids as lint_ids, lint_krate, LintReport};
pub use veris_obs::{
    LintStats, MeterSnapshot, PhaseTimes, QuantProfile, ResourceMeter, SessionStats, TimeTree,
};
pub use wp::{vc_for_function, SideObligation, WpResult};
