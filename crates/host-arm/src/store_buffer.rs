//! A core's FIFO store buffer.
//!
//! Stores wait here, invisible to other cores, until they are drained to
//! shared memory: all of them at a synchronizing instruction, the oldest
//! on its own once it is [`DRAIN_AGE`] cycles old or the buffer holds
//! more than [`STORE_BUFFER_CAP`] entries. The machine asks "is anything
//! due?" before every step, so the buffer keeps the answer ready as one
//! number, the *drain deadline* [`StoreBuffer::due`], and the question is
//! a compare against the core's clock.

/// Store-buffer capacity per core.
pub(crate) const STORE_BUFFER_CAP: usize = 16;
/// Age (cycles) after which a buffered store drains on its own.
pub(crate) const DRAIN_AGE: u64 = 96;

/// Ring size. A step drains what is due and then buffers at most one
/// store, so at most `STORE_BUFFER_CAP + 1` entries are ever live.
const SLOTS: usize = (STORE_BUFFER_CAP + 1).next_power_of_two();

/// What a 64-bit access at some address finds in the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// No buffered store touches the accessed bytes.
    Clear,
    /// Every buffered store that touches them is to exactly this
    /// address; the newest one's value is what a load forwards.
    Forward(u64),
    /// Some buffered store overlaps the access without being equal to
    /// it. The u64-granular buffer cannot merge those: drain first.
    Overlap,
}

#[derive(Debug, Clone)]
pub(crate) struct StoreBuffer {
    /// `u64::MAX` when empty, `0` while over capacity, otherwise the
    /// oldest entry's insertion clock plus [`DRAIN_AGE`]. Only the oldest
    /// entry and the count decide it, so it is recomputed on pop, on the
    /// first push and on the push that overflows, and nowhere else.
    due: u64,
    /// Slot of the oldest entry.
    head: usize,
    len: usize,
    addrs: [u64; SLOTS],
    values: [u64; SLOTS],
    /// The owning core's clock when the entry was pushed.
    stamps: [u64; SLOTS],
}

impl StoreBuffer {
    pub(crate) fn new() -> StoreBuffer {
        StoreBuffer {
            due: u64::MAX,
            head: 0,
            len: 0,
            addrs: [0; SLOTS],
            values: [0; SLOTS],
            stamps: [0; SLOTS],
        }
    }

    /// The clock from which [`Self::pop_due`] has something to return.
    #[inline]
    pub(crate) fn due(&self) -> u64 {
        self.due
    }

    /// `true` if nothing is buffered.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffers a store made at the owning core's clock `now`.
    #[inline]
    pub(crate) fn push(&mut self, addr: u64, value: u64, now: u64) {
        debug_assert!(self.len < SLOTS, "a step drains before it stores");
        let slot = (self.head + self.len) % SLOTS;
        self.addrs[slot] = addr;
        self.values[slot] = value;
        self.stamps[slot] = now;
        self.len += 1;
        if self.len == 1 {
            self.due = now + DRAIN_AGE;
        } else if self.len > STORE_BUFFER_CAP {
            self.due = 0;
        }
    }

    /// Removes and returns the oldest store as `(addr, value)` if it is
    /// due at clock `now`; `u64::MAX` takes whatever is buffered.
    #[inline]
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, u64)> {
        if self.len == 0 || now < self.due {
            return None;
        }
        let oldest = (self.addrs[self.head], self.values[self.head]);
        self.head = (self.head + 1) % SLOTS;
        self.len -= 1;
        self.due = if self.len == 0 {
            u64::MAX
        } else if self.len > STORE_BUFFER_CAP {
            0
        } else {
            self.stamps[self.head] + DRAIN_AGE
        };
        Some(oldest)
    }

    /// One pass, newest entry first, for an access to the eight bytes at
    /// `addr` (which wrap around the top of the address space, as the
    /// entries' own bytes do).
    #[inline]
    pub(crate) fn probe(&self, addr: u64) -> Probe {
        let mut found = Probe::Clear;
        for i in (0..self.len).rev() {
            let slot = (self.head + i) % SLOTS;
            // Entry and access are under eight bytes apart, in either
            // direction around the address space: 7 means equal.
            let near = self.addrs[slot].wrapping_sub(addr).wrapping_add(7);
            if near < 15 {
                if near != 7 {
                    return Probe::Overlap;
                }
                if matches!(found, Probe::Clear) {
                    found = Probe::Forward(self.values[slot]);
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::xorshift;
    use std::collections::VecDeque;

    /// The store buffer as the machine had it before this type existed:
    /// a `VecDeque` of `(addr, value, insert_cycle)` and the loops that
    /// walked it, kept as they were to be the reference.
    #[derive(Default)]
    struct Reference {
        store_buffer: VecDeque<(u64, u64, u64)>,
    }

    /// Distance between two addresses around the address space: an access
    /// near the top wraps into the bytes at address zero.
    fn apart(a: u64, b: u64) -> u64 {
        a.wrapping_sub(b).min(b.wrapping_sub(a))
    }

    impl Reference {
        fn push(&mut self, addr: u64, v: u64, cycles: u64) {
            self.store_buffer.push_back((addr, v, cycles));
        }

        fn drain_all(&mut self, drained: &mut Vec<(u64, u64)>) {
            while let Some((a, v, _)) = self.store_buffer.pop_front() {
                drained.push((a, v));
            }
        }

        /// Drains the stores at the head of the buffer that have aged out
        /// or that overflow its capacity.
        fn drain_aged(&mut self, now: u64, drained: &mut Vec<(u64, u64)>) {
            loop {
                let buf = &mut self.store_buffer;
                let Some(&(a, v, t)) = buf.front() else {
                    break;
                };
                if now.saturating_sub(t) < DRAIN_AGE && buf.len() <= STORE_BUFFER_CAP {
                    break;
                }
                buf.pop_front();
                drained.push((a, v));
            }
        }

        fn probe_buffer(&self, addr: u64) -> (Option<u64>, bool) {
            let mut newest = None;
            for &(a, v, _) in self.store_buffer.iter().rev() {
                if a != addr {
                    if apart(a, addr) < 8 {
                        return (None, true);
                    }
                } else if newest.is_none() {
                    newest = Some(v);
                }
            }
            (newest, false)
        }

        /// The byte load's test: it bypasses the buffer, so anything
        /// within a word of it drains first.
        fn near_byte(&self, addr: u64) -> bool {
            self.store_buffer.iter().any(|&(a, _, _)| apart(a, addr) < 8)
        }

        fn due(&self) -> u64 {
            match self.store_buffer.front() {
                None => u64::MAX,
                Some(_) if self.store_buffer.len() > STORE_BUFFER_CAP => 0,
                Some(&(_, _, t)) => t + DRAIN_AGE,
            }
        }
    }

    /// Aligned words, their unaligned neighbours one to seven bytes off,
    /// and both ends of the address space, which are neighbours too.
    fn address(rng: &mut u64) -> u64 {
        const WORDS: u64 = 0x5000;
        let r = xorshift(rng);
        match r % 32 {
            0 => WORDS + 64 + (r >> 8) % 8,
            1 => (r >> 8) % 8,
            2 => u64::MAX - (r >> 8) % 8,
            _ => WORDS + 8 * ((r >> 8) % 40),
        }
    }

    fn drain_all(sb: &mut StoreBuffer, drained: &mut Vec<(u64, u64)>) {
        while let Some(store) = sb.pop_due(u64::MAX) {
            drained.push(store);
        }
    }

    #[test]
    fn agrees_with_the_vecdeque_it_replaced() {
        let mut rng = 0x2545_F491_4F6C_DD1D_u64;
        let (mut sb, mut reference) = (StoreBuffer::new(), Reference::default());
        let mut now = 0u64;
        // What the run has to have exercised to mean anything.
        let (mut aged, mut overflowed, mut forwarded, mut overlapped, mut near_bytes) =
            (0u32, 0u32, 0u32, 0u32, 0u32);
        let mut hurried = false;
        for step in 0..200_000u32 {
            let (mut got, mut expected) = (Vec::new(), Vec::new());

            // The start of a machine step: whatever is due drains.
            match reference.store_buffer.front() {
                Some(_) if reference.store_buffer.len() > STORE_BUFFER_CAP => overflowed += 1,
                Some(&(_, _, t)) if now - t >= DRAIN_AGE => aged += 1,
                _ => {}
            }
            reference.drain_aged(now, &mut expected);
            if now >= sb.due() {
                while let Some(store) = sb.pop_due(now) {
                    got.push(store);
                }
            }
            assert_eq!(got, expected, "step {step}: stores drained at clock {now}");
            assert_eq!(sb.due(), reference.due(), "step {step}: deadline after the drain");

            // The step itself.
            let (addr, r) = (address(&mut rng), xorshift(&mut rng));
            match r % 32 {
                0..=17 => {
                    let overlap = reference.probe_buffer(addr).1;
                    assert_eq!(sb.probe(addr) == Probe::Overlap, overlap, "step {step}: store");
                    if overlap {
                        reference.drain_all(&mut expected);
                        drain_all(&mut sb, &mut got);
                    }
                    reference.push(addr, r, now);
                    sb.push(addr, r, now);
                }
                18..=25 => {
                    let expect = match reference.probe_buffer(addr) {
                        (_, true) => Probe::Overlap,
                        (Some(v), false) => Probe::Forward(v),
                        (None, false) => Probe::Clear,
                    };
                    assert_eq!(sb.probe(addr), expect, "step {step}: load at {addr:#x}");
                    forwarded += matches!(expect, Probe::Forward(_)) as u32;
                    if expect == Probe::Overlap {
                        overlapped += 1;
                        reference.drain_all(&mut expected);
                        drain_all(&mut sb, &mut got);
                    }
                }
                26..=27 => {
                    let near = reference.near_byte(addr);
                    assert_eq!(sb.probe(addr) != Probe::Clear, near, "step {step}: byte load");
                    if near {
                        near_bytes += 1;
                        reference.drain_all(&mut expected);
                        drain_all(&mut sb, &mut got);
                    }
                }
                28 => {
                    reference.drain_all(&mut expected);
                    drain_all(&mut sb, &mut got);
                }
                _ => {}
            }
            assert_eq!(got, expected, "step {step}: stores drained by the instruction");
            assert_eq!(sb.due(), reference.due(), "step {step}: deadline after the instruction");

            // Stretches of back-to-back steps fill the buffer; the slow
            // ones let its head age out.
            if step.is_multiple_of(64) {
                hurried = xorshift(&mut rng) & 1 == 0;
            }
            now += xorshift(&mut rng) % if hurried { 3 } else { 41 };
        }
        let fired = [aged, overflowed, forwarded, overlapped, near_bytes];
        assert!(fired.iter().all(|&n| n > 500), "age, capacity, forward, overlap, byte: {fired:?}");
    }

    #[test]
    fn ring_holds_one_store_over_capacity() {
        let mut sb = StoreBuffer::new();
        for round in 0..3 * SLOTS as u64 {
            for i in 0..=STORE_BUFFER_CAP as u64 {
                assert_eq!(sb.due(), if i == 0 { u64::MAX } else { round + DRAIN_AGE });
                sb.push(8 * i, round + i, round);
            }
            assert_eq!(sb.due(), 0, "over capacity: due at once");
            assert_eq!(sb.pop_due(round), Some((0, round)));
            assert_eq!(sb.due(), round + DRAIN_AGE, "back inside capacity: the head's age decides");
            assert_eq!(sb.pop_due(round + DRAIN_AGE - 1), None);
            for i in 1..=STORE_BUFFER_CAP as u64 {
                assert_eq!(sb.probe(8 * i), Probe::Forward(round + i));
                assert_eq!(sb.pop_due(round + DRAIN_AGE), Some((8 * i, round + i)));
            }
            assert_eq!((sb.pop_due(u64::MAX), sb.due()), (None, u64::MAX));
        }
    }
}
