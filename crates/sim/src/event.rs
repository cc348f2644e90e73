//! Per-chip completion ledger: the simulator's NCQ-style bookkeeping of
//! outstanding flash operations (DESIGN.md §7.3).
//!
//! [`ChipCursors`] keeps per-chip FIFO rings of outstanding completion
//! times. Chip timelines serialize (a read holds the chip through its bus
//! transfer, a program holds it to the end of the array operation), so
//! per-chip completion times are monotone and a plain ring with a head
//! cursor drains ready completions in batches with one comparison each —
//! no ordering structure at all. [`crate::Ssd`] samples this ledger in queued
//! mode. The host's flush window, the one out-of-order structure the
//! simulator needs, is [`crate::host::FlushWindow`].

/// Per-chip FIFO rings of outstanding completion times.
///
/// Completion times are monotone per chip (the flash timeline serializes
/// each chip's operations), so ready completions drain from each ring's
/// head in a batch — one comparison per drained event, no re-ordering.
#[derive(Debug, Clone)]
pub struct ChipCursors {
    /// One ring per chip: `(buffer, head)`. Entries at/after `head` are in
    /// flight; the prefix before it is drained and reclaimed when the ring
    /// empties.
    rings: Vec<(Vec<u64>, usize)>,
    /// Total in-flight completions across chips.
    outstanding: usize,
    /// High-water mark of `outstanding`.
    max_outstanding: usize,
}

impl ChipCursors {
    /// Cursors for a `chips`-chip device.
    pub fn new(chips: usize) -> Self {
        Self { rings: vec![(Vec::new(), 0); chips], outstanding: 0, max_outstanding: 0 }
    }

    /// Reset to an empty ledger for a `chips`-chip device, keeping the ring
    /// allocations when the chip count is unchanged. Equivalent to
    /// `ChipCursors::new(chips)`; part of the simulator reset path.
    pub fn reset(&mut self, chips: usize) {
        if self.rings.len() == chips {
            for (ring, head) in &mut self.rings {
                ring.clear();
                *head = 0;
            }
        } else {
            self.rings = vec![(Vec::new(), 0); chips];
        }
        self.outstanding = 0;
        self.max_outstanding = 0;
    }

    /// Record a completion on `chip` retiring at `ready_ns`. Completion
    /// times must be monotone per chip (the timeline guarantees this).
    pub fn push(&mut self, chip: usize, ready_ns: u64) {
        let (ring, head) = &mut self.rings[chip];
        debug_assert!(ring.last().is_none_or(|&t| t <= ready_ns), "per-chip completions must be monotone");
        if *head == ring.len() {
            // Ring fully drained: reclaim the buffer instead of growing.
            ring.clear();
            *head = 0;
        }
        ring.push(ready_ns);
        self.outstanding += 1;
        self.max_outstanding = self.max_outstanding.max(self.outstanding);
    }

    /// Drain every completion ready at or before `now` (batch per chip:
    /// advance the head cursor while the head entry is ready).
    pub fn drain_ready(&mut self, now: u64) {
        for (ring, head) in &mut self.rings {
            while *head < ring.len() && ring[*head] <= now {
                *head += 1;
                self.outstanding -= 1;
            }
        }
    }

    /// Completions currently in flight across all chips.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// In-flight completions on `chip`.
    pub fn outstanding_on(&self, chip: usize) -> usize {
        let (ring, head) = &self.rings[chip];
        ring.len() - head
    }

    /// High-water mark of [`ChipCursors::outstanding`].
    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_cursors_drain_in_batches() {
        let mut c = ChipCursors::new(2);
        c.push(0, 100);
        c.push(0, 200);
        c.push(1, 150);
        assert_eq!(c.outstanding(), 3);
        assert_eq!(c.max_outstanding(), 3);
        c.drain_ready(150);
        assert_eq!(c.outstanding(), 1);
        assert_eq!(c.outstanding_on(0), 1);
        assert_eq!(c.outstanding_on(1), 0);
        c.drain_ready(200);
        assert_eq!(c.outstanding(), 0);
        assert_eq!(c.max_outstanding(), 3);
    }

    #[test]
    fn chip_cursor_buffers_are_reclaimed() {
        let mut c = ChipCursors::new(1);
        for round in 0..1_000u64 {
            c.push(0, round * 10);
            c.drain_ready(round * 10);
        }
        let (ring, head) = &c.rings[0];
        assert!(ring.capacity() <= 8, "drained ring must reclaim, not grow");
        assert_eq!(*head, ring.len());
    }
}
