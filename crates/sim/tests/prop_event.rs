//! Property-based tests of the host's flush window: driven the way `Ssd`
//! drives it (retire up to each arrival, then admit the flushes
//! that arrival triggers), `FlushWindow` must agree step for step with a
//! naive sorted-`Vec` model on what a full window waits for, how many
//! flushes are in flight, and the high-water mark. Depths run past the
//! largest builtin queue depth (32), and flush-ready offsets reach 400 ms,
//! far beyond the slowest single flash operation (a 15 ms erase).

use proptest::prelude::*;
use reqblock_sim::{FlushWindow, SubmitMode};

/// One submit step: the gap to the next arrival (often 0, so several
/// flushes share an instant), then a flush ready that far past it.
fn steps() -> impl Strategy<Value = Vec<(u64, u64)>> {
    let gap = prop_oneof![Just(0u64), 0u64..5_000_000];
    proptest::collection::vec((gap, 0u64..400_000_000), 1..400)
}

/// The reference window: retire times kept sorted, earliest first.
#[derive(Default)]
struct Model {
    inflight: Vec<u64>,
    max: usize,
}

impl Model {
    fn retire_until(&mut self, now: u64) {
        self.inflight.retain(|&t| t > now);
    }

    fn admit(&mut self, slots: usize, ready: u64) -> Option<u64> {
        let waited = (self.inflight.len() >= slots).then(|| self.inflight.remove(0));
        let at = self.inflight.partition_point(|&t| t <= ready);
        self.inflight.insert(at, ready);
        self.max = self.max.max(self.inflight.len());
        waited
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flush_window_matches_sorted_vec_model(depth in 2u32..40, steps in steps()) {
        let mut window = FlushWindow::new(SubmitMode::Queued { depth });
        let slots = window.capacity();
        prop_assert_eq!(slots, depth as usize - 1);
        let mut model = Model::default();
        let mut now = 0u64;
        for (gap, offset) in steps {
            now += gap;
            window.retire_until(now);
            model.retire_until(now);
            prop_assert_eq!(window.outstanding(), model.inflight.len());
            let ready = now + offset;
            prop_assert_eq!(window.admit(ready), model.admit(slots, ready));
            prop_assert_eq!(window.outstanding(), model.inflight.len());
            prop_assert_eq!(window.max_outstanding(), model.max);
            prop_assert!(window.outstanding() <= slots);
        }
        // Far past every ready time the window drains completely.
        window.retire_until(u64::MAX);
        prop_assert_eq!(window.outstanding(), 0);
        prop_assert_eq!(window.max_outstanding(), model.max);
    }

    #[test]
    fn reset_window_replays_like_a_fresh_one(depth in 2u32..40, steps in steps()) {
        let mode = SubmitMode::Queued { depth };
        let mut reused = FlushWindow::new(SubmitMode::Queued { depth: 42 - depth });
        let mut now = 0u64;
        for &(gap, offset) in &steps {
            now += gap;
            reused.admit(now + offset);
        }
        reused.reset(mode);
        prop_assert_eq!(reused.outstanding(), 0);
        prop_assert_eq!(reused.max_outstanding(), 0);
        let mut fresh = FlushWindow::new(mode);
        let mut now = 0u64;
        for (gap, offset) in steps {
            now += gap;
            reused.retire_until(now);
            fresh.retire_until(now);
            prop_assert_eq!(reused.admit(now + offset), fresh.admit(now + offset));
            prop_assert_eq!(reused.outstanding(), fresh.outstanding());
        }
        prop_assert_eq!(reused.max_outstanding(), fresh.max_outstanding());
    }
}
