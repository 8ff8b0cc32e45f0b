//! The hand-written known-answer table.
//!
//! Every verdict the benchmark receives is checked against this table, never
//! against an earlier run of the verifier. Function lists are in report
//! order, so a function that disappears from a report, or one that appears
//! without an entry here, fails the request just like a wrong verdict.

use std::ops::RangeInclusive;

use veris_vc::{FnReport, Status};

/// The verdict a function must get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `Verified`. `Failed` and `Unknown` are both wrong: a correct proof
    /// that comes back `Unknown` is a failure.
    Verified,
    /// Anything but `Verified` (a broken proof must never be accepted).
    NotVerified,
}

impl Expect {
    pub fn accepts(self, status: &Status) -> bool {
        match self {
            Expect::Verified => status.is_verified(),
            Expect::NotVerified => !status.is_verified(),
        }
    }
}

/// The Fig 9 corpus, by `casestudy::NAMES` system: every function
/// `verify_krate` reports, all of which verify. An `edit_loop` edit only
/// inserts `assert(true)`, so every function of an edited system must
/// still verify.
pub const CORPUS: [(&str, &[&str]); 6] = [
    ("ironkv", &["dm_get_well_defined", "dm_new_total"]),
    (
        "nr",
        &[
            "CyclicBuffer::initialize",
            "CyclicBuffer::register_node",
            "CyclicBuffer::append",
            "CyclicBuffer::reader_start",
            "CyclicBuffer::reader_finish",
            "CyclicBuffer::advance_head",
            "CyclicBuffer::reader_range_valid",
        ],
    ),
    (
        "pagetable",
        &[
            "paper_mask_bit_lemma",
            "index_extract_bounded",
            "flags_preserve_address",
            "masked_frame_aligned",
            "entry_offset_in_table",
            "entries_do_not_alias_linear",
            "pt_map_op",
            "pt_unmap_op",
            "translate_after_map",
        ],
    ),
    (
        "mimalloc",
        &[
            "segment_mask_le",
            "segment_offset_bounded",
            "blocks_within_page_disjoint",
            "malloc_spec",
            "free_spec",
            "two_mallocs_distinct",
        ],
    ),
    (
        "plog",
        &["alog_append", "alog_advance_head", "append_crash_atomic"],
    ),
    (
        "lists",
        &["nonempty_is_cons", "list_new", "push_head", "list_index"],
    ),
];

/// IronKV's EPR abstraction module and its functions; all verify.
pub const IRONKV_EPR: (&str, &[&str]) = (
    "delegation_epr",
    &["set_preserves_invariants", "get_after_set"],
);

/// The distributed lock's EPR-mode module; all verify.
pub const DISTLOCK_EPR: (&str, &[&str]) = ("distlock_epr", &["epr_transfer_preserves"]);

/// The distributed lock's default-mode proof; verifies.
pub const DISTLOCK_DEFAULT: &str = "transfer_preserves_mutex";

/// Fig 7b: `memory_ops` of `memory_reasoning_krate(p)` verifies for every
/// push count in this range.
pub const MEMORY_OPS: &str = "memory_ops";
pub const MEMORY_PUSHES: RangeInclusive<usize> = 4..=40;

/// Fig 8: `list_index` with its precondition dropped must never verify.
pub const BROKEN_INDEX: &str = "list_index";

/// Check `reports` against the expected function list and verdict.
/// Returns how many functions got the expected verdict, and a description
/// of every mismatch (empty when the reports match the table exactly).
pub fn check(expected: &[&str], expect: Expect, reports: &[FnReport]) -> (usize, Vec<String>) {
    let mut errors = Vec::new();
    let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
    if names != expected {
        errors.push(format!(
            "reported functions {names:?}, expected {expected:?}"
        ));
    }
    let mut ok = 0;
    for r in reports
        .iter()
        .filter(|r| expected.contains(&r.name.as_str()))
    {
        if expect.accepts(&r.status) {
            ok += 1;
        } else {
            errors.push(format!("{}: {:?}, expected {expect:?}", r.name, r.status));
        }
    }
    (ok, errors)
}
