//! Process-wide shared trace cache.
//!
//! The evaluation sweep (`repro all`) replays the same six traces across
//! dozens of (policy × cache size × delta) configurations. Before this
//! module existed every job re-synthesized or re-parsed its trace from
//! scratch — roughly 150 redundant generation passes per sweep. The shared
//! cache materializes each distinct trace exactly once into an
//! `Arc<[Request]>` and hands the same immutable slice to every replayer,
//! zero-copy ([`Request`] is `Copy`, so iterating the slice is as cheap as
//! streaming the generator).
//!
//! # Keys
//!
//! A trace is identified by a [`TraceKey`]: either the canonical file path
//! of an MSR CSV, or an injective fingerprint of a
//! [`WorkloadProfile`] (every field,
//! floats by exact bit pattern, the name length-prefixed so no two distinct
//! profiles can collide). Two jobs replaying `ts_0 × 0.25` therefore share
//! one slice; `ts_0 × 0.05` is a different key.
//!
//! # Concurrency
//!
//! The map itself sits behind a `Mutex`, but synthesis runs *outside* the
//! lock: each key maps to an `Arc<OnceLock<..>>` slot, so concurrent
//! requests for the same trace block on `OnceLock::get_or_init` (exactly
//! one thread generates) while requests for different traces proceed in
//! parallel.
//!
//! # Lifetime
//!
//! The cache holds every materialized trace until [`clear`] is called, which
//! trades memory for sweep throughput (the six paper traces at full scale
//! are 12.7 M requests, 0.28 GiB at 24 bytes each). It is always on: every
//! replay reads its trace through it, and `tests/sweep.rs` pins that a
//! cached replay equals one over a trace regenerated from scratch.

use crate::msr::{self, ParseError};
use crate::profiles::WorkloadProfile;
use crate::request::Request;
use crate::synth::SyntheticTrace;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Identity of a materialized trace.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TraceKey {
    /// Synthetic workload, identified by an injective profile fingerprint
    /// (see [`fingerprint`]).
    Synthetic(String),
    /// MSR-Cambridge CSV file, identified by path.
    File(PathBuf),
}

/// Injective textual fingerprint of a profile: every field participates,
/// floats by exact bit pattern (`f64::to_bits`), and the free-form name is
/// length-prefixed so a crafted name cannot collide with another profile's
/// encoding.
pub fn fingerprint(p: &WorkloadProfile) -> String {
    let f = f64::to_bits;
    format!(
        "{}:{}|{}|{:x}|{:x}|{:x}|{}|{}|{}|{}|{:x}|{}|{}|{:x}|{:x}|{:x}|{:x}|{:x}|{}|{}|{}",
        p.name.len(),
        p.name,
        p.requests,
        f(p.write_ratio),
        f(p.target_mean_write_pages),
        f(p.small_write_mean_pages),
        p.small_write_max_pages,
        p.large_write_min_pages,
        p.large_write_max_pages,
        p.hot_extents,
        f(p.zipf_s),
        p.streaming_pages,
        p.streams,
        f(p.p_stream_jump),
        f(p.p_large_rewrite),
        f(p.read_recent_small),
        f(p.read_hot),
        f(p.read_recent_large),
        p.cold_read_extra_pages,
        p.mean_interarrival_ns,
        p.seed,
    )
}

type Slot = Arc<OnceLock<Arc<[Request]>>>;

fn cache() -> &'static Mutex<HashMap<TraceKey, Slot>> {
    static CACHE: OnceLock<Mutex<HashMap<TraceKey, Slot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drop every cached trace. Slices still held by running jobs stay alive
/// (they are `Arc`s); only the cache's own references are released.
pub fn clear() {
    cache().lock().unwrap().clear();
}

fn slot_for(key: TraceKey) -> Slot {
    cache().lock().unwrap().entry(key).or_default().clone()
}

/// The shared request slice for `key`, materializing it with `build` if no
/// other caller has yet. Concurrent callers for the same key block until
/// the single builder finishes; callers for other keys are unaffected.
pub fn get_or_build<F>(key: TraceKey, build: F) -> Arc<[Request]>
where
    F: FnOnce() -> Arc<[Request]>,
{
    slot_for(key).get_or_init(build).clone()
}

/// The shared slice for a synthetic workload, generating it on first use.
///
/// The requests are written straight into the shared allocation: a
/// collect over a counted range allocates the `Arc<[Request]>` once, where
/// `Arc::from(Vec)` would hold the trace twice while it copies.
pub fn synthetic(profile: &WorkloadProfile) -> Arc<[Request]> {
    get_or_build(TraceKey::Synthetic(fingerprint(profile)), || {
        let mut gen = SyntheticTrace::new(profile.clone());
        (0..gen.len()).map(|_| gen.next().expect("the generator yields len() requests")).collect()
    })
}

/// The shared slice for an MSR CSV file, parsing it on first use.
///
/// [`msr::parse_file`] reads the file twice and collects the second pass
/// straight into the slice the cache keeps, so loading holds the trace
/// once. Parsing happens outside the per-key slot so an I/O or syntax error
/// is returned to the caller instead of wedging the slot; if two threads
/// race on a cold file both parse and one result wins (the parse is
/// deterministic, so the loser's copy is identical and simply dropped).
pub fn msr_file(path: &Path) -> Result<Arc<[Request]>, ParseError> {
    let slot = slot_for(TraceKey::File(path.to_path_buf()));
    if let Some(cached) = slot.get() {
        return Ok(cached.clone());
    }
    let parsed = msr::parse_file(path)?;
    Ok(slot.get_or_init(|| parsed).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ts_0;

    #[test]
    fn same_profile_shares_one_slice() {
        let p = ts_0().scaled(0.0007);
        let a = synthetic(&p);
        let b = synthetic(&p);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the slice");
        assert!(!a.is_empty());
    }

    #[test]
    fn different_scales_are_different_keys() {
        let a = synthetic(&ts_0().scaled(0.0007));
        let b = synthetic(&ts_0().scaled(0.0009));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.len(), b.len());
    }

    #[test]
    fn fingerprint_is_field_sensitive() {
        let base = ts_0().scaled(0.001);
        let mut seeded = base.clone();
        seeded.seed ^= 1;
        let mut renamed = base.clone();
        renamed.name.push('x');
        assert_ne!(fingerprint(&base), fingerprint(&seeded));
        assert_ne!(fingerprint(&base), fingerprint(&renamed));
        assert_eq!(fingerprint(&base), fingerprint(&base.clone()));
    }

    #[test]
    fn cached_slice_matches_fresh_generation() {
        let p = ts_0().scaled(0.0011);
        let cached = synthetic(&p);
        let fresh = SyntheticTrace::new(p).generate_all();
        assert_eq!(&cached[..], &fresh[..]);
    }

    #[test]
    fn msr_file_caches_by_path() {
        let p = ts_0().scaled(0.0005);
        let reqs = SyntheticTrace::new(p).generate_all();
        let path = std::env::temp_dir().join("reqblock_shared_trace_test.csv");
        msr::write_file(&path, reqs.iter().copied()).unwrap();
        let a = msr_file(&path).unwrap();
        let b = msr_file(&path).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), reqs.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_msr_file_is_an_error_not_a_poisoned_slot() {
        let path = std::env::temp_dir().join("reqblock_shared_trace_missing.csv");
        let _ = std::fs::remove_file(&path);
        assert!(msr_file(&path).is_err());
        // The slot must stay usable: create the file and retry.
        let p = ts_0().scaled(0.0004);
        let reqs = SyntheticTrace::new(p).generate_all();
        msr::write_file(&path, reqs.iter().copied()).unwrap();
        assert_eq!(msr_file(&path).unwrap().len(), reqs.len());
        let _ = std::fs::remove_file(&path);
    }
}
