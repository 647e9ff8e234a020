//! Span context for end-to-end distributed tracing — no dependencies.
//!
//! A [`TraceContext`] is the identity a request carries through the whole
//! serving path: a 128-bit trace id minted once at `POST /v1/jobs`, a
//! 64-bit span id for the current unit of work, and the parent span id
//! (0 for the root). The context is journaled with the submit record, so
//! a job recovered after a crash keeps the trace id it was born with, and
//! every retry attempt and rank-level phase span links back to the same
//! HTTP request.
//!
//! Child span ids are *derived*, not random: `child(seed)` mixes the
//! trace id, the parent span id and the seed with FNV-1a, so attempt `k`
//! of a job gets the same span id before and after a server restart —
//! the journal and the live view agree without coordination.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Fold bytes into an FNV-1a accumulator.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A span context: trace id + span id + parent span id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit trace id shared by every span of one request. Never 0.
    pub trace_id: u128,
    /// 64-bit id of the current span. Never 0.
    pub span_id: u64,
    /// Id of the parent span; 0 means this is the root span.
    pub parent_span: u64,
}

impl TraceContext {
    /// Mint a fresh root context with process-local entropy.
    ///
    /// Entropy comes from `RandomState` (seeded from the OS per process,
    /// perturbed per instance) plus a monotone counter, so two roots
    /// minted back-to-back never collide within a process and are
    /// unpredictable across processes. No external dependencies.
    pub fn new_root() -> TraceContext {
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(1);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut h1 = RandomState::new().build_hasher();
        h1.write_u64(seq);
        let hi = h1.finish();
        let mut h2 = RandomState::new().build_hasher();
        h2.write_u64(hi ^ seq.rotate_left(17));
        let lo = h2.finish();
        let trace_id = ((hi as u128) << 64 | lo as u128).max(1);
        TraceContext {
            trace_id,
            span_id: mix(trace_id, 0, seq).max(1),
            parent_span: 0,
        }
    }

    /// Derive a child context: same trace id, deterministic span id from
    /// `(trace_id, self.span_id, seed)`, parented to this span. Attempt
    /// `k` of a job conventionally uses `seed = k`.
    pub fn child(&self, seed: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: mix(self.trace_id, self.span_id, seed).max(1),
            parent_span: self.span_id,
        }
    }

    /// Encode as `"<32 hex>-<16 hex>-<16 hex>"` (trace, span, parent) —
    /// the form journaled with the submit record.
    pub fn encode(&self) -> String {
        format!(
            "{:032x}-{:016x}-{:016x}",
            self.trace_id, self.span_id, self.parent_span
        )
    }

    /// Parse the [`encode`](TraceContext::encode) form. Returns `None` on
    /// any malformed field (a corrupt journal line must not panic replay).
    pub fn parse(s: &str) -> Option<TraceContext> {
        let mut parts = s.split('-');
        let trace = parts.next()?;
        let span = parts.next()?;
        let parent = parts.next()?;
        if parts.next().is_some() || trace.len() != 32 || span.len() != 16 || parent.len() != 16 {
            return None;
        }
        let ctx = TraceContext {
            trace_id: u128::from_str_radix(trace, 16).ok()?,
            span_id: u64::from_str_radix(span, 16).ok()?,
            parent_span: u64::from_str_radix(parent, 16).ok()?,
        };
        (ctx.trace_id != 0 && ctx.span_id != 0).then_some(ctx)
    }

    /// The 32-hex trace id alone (what clients correlate on).
    pub fn trace_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// The 16-hex span id alone.
    pub fn span_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }
}

/// Deterministic id mixer: FNV-1a over the three inputs' bytes, with a
/// final avalanche so low-entropy seeds still spread over all 64 bits.
fn mix(trace_id: u128, parent: u64, seed: u64) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &trace_id.to_le_bytes());
    h = fnv1a(h, &parent.to_le_bytes());
    h = fnv1a(h, &seed.to_le_bytes());
    // xorshift-multiply avalanche (splitmix64 finalizer).
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_distinct_and_nonzero() {
        let a = TraceContext::new_root();
        let b = TraceContext::new_root();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_eq!(a.parent_span, 0);
    }

    #[test]
    fn encode_parse_round_trip() {
        let ctx = TraceContext::new_root();
        let text = ctx.encode();
        assert_eq!(text.len(), 32 + 1 + 16 + 1 + 16);
        assert_eq!(TraceContext::parse(&text), Some(ctx));
        let child = ctx.child(2);
        assert_eq!(TraceContext::parse(&child.encode()), Some(child));
    }

    #[test]
    fn malformed_contexts_parse_to_none() {
        for bad in [
            "",
            "zz",
            "deadbeef-0123456789abcdef-0000000000000000",
            &format!(
                "{}-{}-{}-{}",
                "0".repeat(32),
                "1".repeat(16),
                "2".repeat(16),
                "3"
            ),
            &format!("{}-{}-{}", "g".repeat(32), "1".repeat(16), "2".repeat(16)),
            &format!("{}-{}-{}", "0".repeat(32), "1".repeat(16), "2".repeat(16)),
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn children_are_deterministic_and_linked() {
        let root = TraceContext::parse(&format!(
            "{:032x}-{:016x}-{:016x}",
            0x1234_5678_9abc_def0_u128, 0xfeed_face_u64, 0u64
        ))
        .unwrap();
        let a = root.child(3);
        let b = root.child(3);
        assert_eq!(a, b, "child ids are reproducible across restarts");
        assert_eq!(a.trace_id, root.trace_id);
        assert_eq!(a.parent_span, root.span_id);
        assert_ne!(a.span_id, root.span_id);
        assert_ne!(root.child(4).span_id, a.span_id);
    }
}
