//! An analytic oracle for FTL + greedy GC write amplification.
//!
//! Uniform random single-page overwrites with no Trim have a classic
//! closed form, the LRW model (Desnoyers, SYSTOR 2012): the victim block's
//! valid fraction `x` solves `x = e^(-α(1-x))`, and write amplification is
//! `1 / (1 - x)`, where `α` is the physical pages GC can fill over the
//! logical pages in use. Greedy victim choice never does worse than this
//! bound and approaches it as pages per block grow, so at 64 pages per
//! block the simulated WA must sit just below the model. Unlike the
//! goldens, this check does not come from this codebase.

use reqblock_flash::{FlashTimeline, SsdConfig};
use reqblock_ftl::{Ftl, Placement};

/// 2 channels x 2 chips, 256 blocks per chip, 64 pages per block, 10 % GC
/// threshold.
fn geometry() -> SsdConfig {
    let mut cfg = SsdConfig::paper();
    cfg.channels = 2;
    cfg.chips_per_channel = 2;
    cfg.pages_per_block = 64;
    cfg.gc_threshold = 0.10;
    cfg.capacity_bytes = 4 * 256 * 64 * cfg.page_size;
    cfg
}

/// xorshift64: a seeded, dependency-free uniform source.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Simulated WA of uniform random single-page writes over `u` LPNs: write
/// each once, warm up with `8u` random overwrites, then measure `16u` more.
fn simulated_wa(cfg: &SsdConfig, u: u64) -> f64 {
    let mut ftl = Ftl::new(cfg);
    let mut tl = FlashTimeline::new(cfg);
    let mut write = |ftl: &mut Ftl, lpn: u64| {
        ftl.write_pages(&[lpn], 0, Placement::Striped, &mut tl);
    };
    for lpn in 0..u {
        write(&mut ftl, lpn);
    }
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    for _ in 0..8 * u {
        write(&mut ftl, rng.below(u));
    }
    let migrated_before = ftl.stats().gc_migrated_pages;
    let host = 16 * u;
    for _ in 0..host {
        write(&mut ftl, rng.below(u));
    }
    let migrated = ftl.stats().gc_migrated_pages - migrated_before;
    (host + migrated) as f64 / host as f64
}

/// LRW model WA for `u` logical pages on `cfg`. GC keeps `floor + 1` blocks
/// per chip out of play (the free floor plus the open block), so those
/// pages do not count as spare space.
fn model_wa(cfg: &SsdConfig, u: u64) -> f64 {
    let reserved_blocks = cfg.total_chips() * (cfg.gc_free_blocks_floor() + 1);
    let reserved = (reserved_blocks * cfg.pages_per_block) as u64;
    let alpha = (cfg.total_pages() - reserved) as f64 / u as f64;
    let mut x = 0.0f64;
    for _ in 0..10_000 {
        x = (-alpha * (1.0 - x)).exp();
    }
    1.0 / (1.0 - x)
}

#[test]
fn greedy_gc_write_amplification_tracks_the_lrw_model() {
    let cfg = geometry();
    assert_eq!(cfg.total_pages(), 65_536);
    for rho in [0.5, 0.6, 0.7, 0.75] {
        let u = (rho * cfg.total_pages() as f64) as u64;
        let (sim, model) = (simulated_wa(&cfg, u), model_wa(&cfg, u));
        let ratio = sim / model;
        assert!(
            (0.9..=1.0).contains(&ratio),
            "rho {rho}: simulated WA {sim:.3} vs LRW model {model:.3} (ratio {ratio:.3})"
        );
    }
}
