//! Incremental-verification counters: module solver sessions and the
//! content-addressed result cache.
//!
//! The VC layer verifies each function either inside a reused module
//! session (context encoded once, function checked on a clone of it) or
//! straight from the persistent result cache. These counters make that
//! behavior observable — `profile`/`baseline` print them, the Fig 9 macro
//! table reports cache hits, and CI asserts a warm run re-encodes nothing.

/// Counters for one `verify_krate` run. Plain values; per-worker stats are
/// merged with [`SessionStats::add`] for the krate report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Module sessions actually opened (a module whose functions were all
    /// cache hits never opens one).
    pub sessions_opened: u64,
    /// Functions that reused an already-open session instead of re-encoding
    /// the module context — each is one avoided context encoding.
    pub ctx_reencodes_avoided: u64,
    /// Functions answered from the result cache (no SMT work at all).
    pub cache_hits: u64,
    /// Functions that missed the cache and were verified by the solver.
    pub cache_misses: u64,
}

impl SessionStats {
    pub fn new() -> SessionStats {
        SessionStats::default()
    }

    /// Element-wise sum, for merging per-worker stats.
    pub fn add(&self, other: &SessionStats) -> SessionStats {
        SessionStats {
            sessions_opened: self.sessions_opened + other.sessions_opened,
            ctx_reencodes_avoided: self.ctx_reencodes_avoided + other.ctx_reencodes_avoided,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
        }
    }

    /// Total functions accounted for (hit or miss).
    pub fn functions(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// Human-readable two-column table (all four counters, even when 0 —
    /// "0 sessions opened" on a warm run is the interesting datum).
    pub fn render(&self) -> String {
        format!(
            "  {:<22} {}\n  {:<22} {}\n  {:<22} {}\n  {:<22} {}\n",
            "sessions-opened",
            self.sessions_opened,
            "ctx-reencodes-avoided",
            self.ctx_reencodes_avoided,
            "cache-hits",
            self.cache_hits,
            "cache-misses",
            self.cache_misses,
        )
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"sessions_opened\":{},\"ctx_reencodes_avoided\":{},\"cache_hits\":{},\"cache_misses\":{}}}",
            self.sessions_opened, self.ctx_reencodes_avoided, self.cache_hits, self.cache_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_render() {
        let a = SessionStats {
            sessions_opened: 1,
            ctx_reencodes_avoided: 3,
            cache_hits: 0,
            cache_misses: 4,
        };
        let b = SessionStats {
            sessions_opened: 2,
            ctx_reencodes_avoided: 0,
            cache_hits: 5,
            cache_misses: 1,
        };
        let c = a.add(&b);
        assert_eq!(c.sessions_opened, 3);
        assert_eq!(c.ctx_reencodes_avoided, 3);
        assert_eq!(c.cache_hits, 5);
        assert_eq!(c.cache_misses, 5);
        assert_eq!(c.functions(), 10);
        assert!(c.render().contains("ctx-reencodes-avoided"));
        assert!(c.to_json().contains("\"cache_hits\":5"));
    }
}
