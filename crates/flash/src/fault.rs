//! Deterministic fault injection for the flash substrate.
//!
//! Real NAND fails: reads suffer raw bit errors that force retries with
//! tuned reference voltages, programs fail and condemn their block, and
//! erases fail and retire blocks outright. The simulator reproduces those
//! behaviours with a seeded [`FaultModel`], one fixed rate per operation
//! kind whatever the block's wear, so that reliability experiments stay
//! exactly as reproducible as the happy path: identical seed + config ⇒
//! the same operations fail at the same points ⇒ byte-identical telemetry.
//!
//! Design constraints (see DESIGN.md §9):
//!
//! * **No external dependencies.** The PRNG is an inline xorshift64*
//!   generator, consistent with the offline-build policy (the `compat/`
//!   stand-ins provide no real randomness on purpose).
//! * **Integer probabilities.** Fail rates are expressed in parts per
//!   million ([`PPM_SCALE`]) and compared against `next_u64 % 1_000_000`,
//!   so there is no floating-point rounding to drift across platforms.
//! * **Zero-fault is free.** With every rate at 0 (the
//!   [`FaultConfig::default`]), [`FaultModel::is_inert`] is true, every
//!   decision short-circuits before touching the PRNG, and the simulator
//!   behaves bit-for-bit like a build without the fault layer — the golden
//!   determinism tests and the hot-path bench gate run with the layer
//!   enabled-but-zeroed.
//!
//! The model only *decides*; the FTL (`reqblock-ftl`) owns the consequences
//! (retry scheduling, page remap, block retirement, degraded mode) and
//! accounts them in [`FaultStats`].

use serde::{Deserialize, Serialize};

/// Probability scale: rates are parts per million (1_000_000 = always).
pub const PPM_SCALE: u32 = 1_000_000;

/// Read retries attempted before declaring a read uncorrectable. Each retry
/// is a full flash read that re-occupies the chip/bus timelines.
pub const MAX_READ_RETRIES: u32 = 3;

/// Configuration of the deterministic fault layer. All-zero rates (the
/// default) disable injection entirely.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// PRNG seed; together with the operation sequence it fully determines
    /// which operations fail.
    pub seed: u64,
    /// Probability that a flash read needs retries, in ppm.
    pub read_fail_ppm: u32,
    /// Probability that a program operation fails, in ppm.
    pub program_fail_ppm: u32,
    /// Probability that an erase operation fails, in ppm.
    pub erase_fail_ppm: u32,
    /// Per-chip free-block floor below which the device turns read-only;
    /// `0` (the default) never degrades, preserving the legacy
    /// out-of-space panic.
    pub read_only_free_floor: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED_F417_C0DE_2022,
            read_fail_ppm: 0,
            program_fail_ppm: 0,
            erase_fail_ppm: 0,
            read_only_free_floor: 0,
        }
    }
}

impl FaultConfig {
    /// A config failing reads/programs/erases at the given rates (ppm) with
    /// the given seed and no free-block floor.
    pub fn with_rates(seed: u64, read_ppm: u32, program_ppm: u32, erase_ppm: u32) -> Self {
        Self {
            seed,
            read_fail_ppm: read_ppm,
            program_fail_ppm: program_ppm,
            erase_fail_ppm: erase_ppm,
            ..Self::default()
        }
    }

    /// True when no operation can ever fail under this config.
    pub fn is_inert(&self) -> bool {
        self.read_fail_ppm == 0 && self.program_fail_ppm == 0 && self.erase_fail_ppm == 0
    }
}

/// Reliability counters, owned by the FTL. Kept separate from
/// [`crate::OpCounters`] and `FtlStats` (whose exact shapes are pinned by
/// golden tests) — same pattern as `FtlObs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Reads whose first attempt failed (each then entered the retry loop).
    pub read_faults: u64,
    /// Total retry read operations issued (each a full timed flash read).
    pub read_retries: u64,
    /// Reads still failing after [`MAX_READ_RETRIES`] retries.
    pub read_uncorrectable: u64,
    /// Program operations that failed (each retires a block).
    pub program_failures: u64,
    /// Erase operations that failed (each retires a block).
    pub erase_failures: u64,
    /// Blocks permanently retired (marked bad).
    pub retired_blocks: u64,
    /// Valid pages migrated off retiring blocks (remap traffic).
    pub remapped_pages: u64,
    /// Host write pages rejected while the device was in read-only
    /// degraded mode.
    pub rejected_write_pages: u64,
}

/// Seeded fault decision engine: one per FTL instance.
///
/// Decisions are drawn from an inline xorshift64* PRNG, consumed **only**
/// when the corresponding rate is nonzero, so enabling the layer
/// with zero rates changes nothing — and a run with only program faults
/// draws exactly one number per program, never for reads or erases.
#[derive(Debug, Clone)]
pub struct FaultModel {
    cfg: FaultConfig,
    state: u64,
    inert: bool,
}

impl FaultModel {
    /// Build a model; the PRNG state derives from `cfg.seed`.
    pub fn new(cfg: FaultConfig) -> Self {
        let inert = cfg.is_inert();
        // xorshift must not start at 0; fold in a constant and force a bit.
        let state = (cfg.seed ^ 0x9E37_79B9_7F4A_7C15) | 1;
        Self { cfg, state, inert }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when no operation can ever fail (all rates zero): callers may
    /// skip the fault bookkeeping entirely.
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.inert
    }

    /// xorshift64* step.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// One fault decision at `ppm`. Consumes a PRNG draw only when the
    /// rate is nonzero.
    #[inline]
    fn roll(&mut self, ppm: u32) -> bool {
        ppm != 0 && self.next_u64() % (PPM_SCALE as u64) < ppm as u64
    }

    /// Does a read (initial attempt or retry) fail?
    #[inline]
    pub fn read_fails(&mut self) -> bool {
        self.roll(self.cfg.read_fail_ppm)
    }

    /// Does a program fail?
    #[inline]
    pub fn program_fails(&mut self) -> bool {
        self.roll(self.cfg.program_fail_ppm)
    }

    /// Does an erase fail?
    #[inline]
    pub fn erase_fails(&mut self) -> bool {
        self.roll(self.cfg.erase_fail_ppm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let cfg = FaultConfig::default();
        assert!(cfg.is_inert());
        let mut m = FaultModel::new(cfg);
        assert!(m.is_inert());
        for _ in 0..3 {
            assert!(!m.read_fails());
            assert!(!m.program_fails());
            assert!(!m.erase_fails());
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = FaultConfig::with_rates(42, 250_000, 125_000, 62_500);
        let mut a = FaultModel::new(cfg.clone());
        let mut b = FaultModel::new(cfg);
        for _ in 0..1_000 {
            assert_eq!(a.read_fails(), b.read_fails());
            assert_eq!(a.program_fails(), b.program_fails());
            assert_eq!(a.erase_fails(), b.erase_fails());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultModel::new(FaultConfig::with_rates(1, 500_000, 0, 0));
        let mut b = FaultModel::new(FaultConfig::with_rates(2, 500_000, 0, 0));
        let diverged = (0..256).any(|_| a.read_fails() != b.read_fails());
        assert!(diverged, "seeds 1 and 2 produced identical decision streams");
    }

    #[test]
    fn certain_failure_at_full_scale() {
        let mut m = FaultModel::new(FaultConfig::with_rates(7, PPM_SCALE, PPM_SCALE, PPM_SCALE));
        for _ in 0..64 {
            assert!(m.read_fails());
            assert!(m.program_fails());
            assert!(m.erase_fails());
        }
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        // 10% read-fail rate over 100k trials: the observed frequency must
        // land well inside ±1.5% (xorshift64* is far better than that).
        let mut m = FaultModel::new(FaultConfig::with_rates(1234, 100_000, 0, 0));
        let trials = 100_000;
        let fails = (0..trials).filter(|_| m.read_fails()).count();
        let rate = fails as f64 / trials as f64;
        assert!((rate - 0.10).abs() < 0.015, "observed {rate}");
    }

    #[test]
    fn zero_rate_ops_consume_no_randomness() {
        // Only programs can fail: interleaving read decisions must not
        // perturb the program decision stream.
        let cfg = FaultConfig::with_rates(11, 0, 300_000, 0);
        let mut plain = FaultModel::new(cfg.clone());
        let with_reads = {
            let mut m = FaultModel::new(cfg);
            (0..500)
                .map(|_| {
                    assert!(!m.read_fails());
                    m.program_fails()
                })
                .collect::<Vec<_>>()
        };
        let alone: Vec<bool> = (0..500).map(|_| plain.program_fails()).collect();
        assert_eq!(with_reads, alone);
    }
}
