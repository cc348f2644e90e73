//! Every paper profile's synthetic trace, pinned by request count and
//! digest at x0.05 and at full scale.
//!
//! The generator's fast paths (the Zipf guide table, constants hoisted out
//! of the request loop) are exact: they must leave every request as it
//! was. At the x0.001 scale of the pinned `repro all` digests every profile
//! floors at 50 hot extents, so no Zipf guide table there has more than 64
//! buckets; at x0.05 `lun_1` has 2 250 hot extents and `usr_0` 600. The
//! full-scale check replays 12.7 M requests and is `#[ignore]`d; run it
//! with `cargo test --release -p reqblock-trace -- --ignored`.

use reqblock_trace::{paper_profiles, OpType, SyntheticTrace};

/// `(profile, requests at x0.05, digest at x0.05, requests at x1, digest
/// at x1)`.
const PINNED: [(&str, u64, u64, u64, u64); 6] = [
    ("hm_1", 30_465, 0x2ad4cb7fffd6b5f5, 609_312, 0x9914f529f6535189),
    ("lun_1", 94_719, 0x57c01da369f2b4e3, 1_894_391, 0x33b44f91f2d17e96),
    ("usr_0", 111_894, 0x1dba67f2ce604505, 2_237_889, 0x6e722ea12a645015),
    ("src1_2", 95_388, 0x032e07baad049733, 1_907_773, 0x524f1f85bd067666),
    ("ts_0", 90_086, 0x71bab5c4e19e6882, 1_801_734, 0x4b6b5898d979b667),
    ("proj_0", 211_226, 0xcba5fc4e19e6036d, 4_224_525, 0x70de281c4c0db424),
];

/// Request count and FNV-1a digest over the words `time_ns`, `op` (Read 0,
/// Write 1), `offset` and `len` of every request of `name` at `scale`.
fn digest(name: &str, scale: f64) -> (u64, u64) {
    let profile = paper_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no paper profile {name}"));
    let (mut n, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for r in SyntheticTrace::new(profile.scaled(scale)) {
        let op = match r.op {
            OpType::Read => 0,
            OpType::Write => 1,
        };
        for w in [r.time_ns, op, r.offset, u64::from(r.len)] {
            h ^= w;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        n += 1;
    }
    (n, h)
}

#[test]
fn paper_profiles_are_pinned_at_scale_0_05() {
    for (name, requests, pinned, ..) in PINNED {
        let (n, h) = digest(name, 0.05);
        assert_eq!((n, h), (requests, pinned), "{name} x0.05: got {n} requests, {h:016x}");
    }
}

#[test]
#[ignore = "12.7 M requests: run in release with --ignored"]
fn paper_profiles_are_pinned_at_full_scale() {
    for (name, .., requests, pinned) in PINNED {
        let (n, h) = digest(name, 1.0);
        assert_eq!((n, h), (requests, pinned), "{name} x1: got {n} requests, {h:016x}");
    }
}
