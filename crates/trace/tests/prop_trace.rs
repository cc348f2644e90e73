//! Property-based tests for the trace substrate.

use proptest::prelude::*;
use reqblock_trace::msr;
use reqblock_trace::zipf::Zipf;
use reqblock_trace::{OpType, Request, PAGE_SIZE};

proptest! {
    /// Page math: the page-count formula always matches the enumeration,
    /// and every enumerated page overlaps the byte range.
    #[test]
    fn page_count_matches_enumeration(offset in 0u64..1 << 40, len in 1u64..1 << 20) {
        let r = Request::new(0, OpType::Write, offset, len);
        let pages: Vec<_> = r.lpns().collect();
        prop_assert_eq!(pages.len() as u64, r.page_count());
        // Pages are contiguous and ascending.
        for w in pages.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
        // First and last page must intersect the byte range.
        let first = pages[0];
        let last = *pages.last().unwrap();
        prop_assert!(first * PAGE_SIZE <= offset && offset < (first + 1) * PAGE_SIZE);
        let end = offset + len - 1;
        prop_assert!(last * PAGE_SIZE <= end && end < (last + 1) * PAGE_SIZE);
    }

    /// Byte ranges covering whole pages have exactly len/PAGE_SIZE pages.
    #[test]
    fn aligned_requests_have_exact_page_count(lpn in 0u64..1 << 28, pages in 1u64..256) {
        let r = Request::write_pages(0, lpn, pages);
        prop_assert_eq!(r.page_count(), pages);
        prop_assert_eq!(r.start_lpn(), lpn);
    }

    /// Zipf samples stay in the universe and the pmf sums to one.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..2_000, s in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Zipf pmf is non-increasing in rank for any positive exponent.
    #[test]
    fn zipf_pmf_monotone(n in 2usize..500, s in 0.01f64..2.0) {
        let z = Zipf::new(n, s);
        for k in 1..n {
            prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    /// The MSR writer and parser round-trip arbitrary tick-aligned requests.
    #[test]
    fn msr_roundtrip(reqs in proptest::collection::vec(
        (0u64..1 << 40, any::<bool>(), 0u64..1 << 35, 1u32..1 << 20),
        1..50,
    )) {
        let requests: Vec<Request> = reqs
            .iter()
            .map(|&(ticks, is_write, offset, len)| Request {
                time_ns: ticks * 100,
                op: if is_write { OpType::Write } else { OpType::Read },
                offset,
                len,
            })
            .collect();
        let parsed = msr::parse_str(&msr::write_csv(&requests)).unwrap();
        prop_assert_eq!(parsed.len(), requests.len());
        let base = requests.iter().map(|r| r.time_ns).min().unwrap();
        for (orig, round) in requests.iter().zip(parsed.iter()) {
            prop_assert_eq!(round.op, orig.op);
            prop_assert_eq!(round.offset, orig.offset);
            prop_assert_eq!(round.len, orig.len);
            prop_assert_eq!(round.time_ns, orig.time_ns - base);
        }
    }

    /// Scaled profiles always validate and respect their floors.
    #[test]
    fn scaling_preserves_validity(factor in 0.0001f64..2.0, idx in 0usize..6) {
        let profile = reqblock_trace::paper_profiles().swap_remove(idx);
        let scaled = profile.scaled(factor);
        prop_assert!(scaled.validate().is_ok(), "{:?}", scaled.validate());
        prop_assert!(scaled.requests >= 1_000);
        prop_assert!(scaled.hot_extents >= 50);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every generated request stays inside the declared footprint and the
    /// stream is deterministic in length.
    #[test]
    fn generator_respects_footprint(idx in 0usize..6, factor in 0.001f64..0.01) {
        let profile = reqblock_trace::paper_profiles().swap_remove(idx).scaled(factor);
        let gen = reqblock_trace::SyntheticTrace::new(profile.clone());
        let fp = gen.footprint_pages();
        let mut count = 0u64;
        for r in gen {
            prop_assert!(r.start_lpn() + r.page_count() <= fp);
            prop_assert!(r.page_count() >= 1);
            count += 1;
        }
        prop_assert_eq!(count, profile.requests);
    }
}
