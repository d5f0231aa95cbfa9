//! Router wake calendar: which routers the network step must visit, and
//! when.
//!
//! Every router holding a buffered packet is filed at exactly one cycle —
//! the first at which it may win a grant (DESIGN §13). Cycles within
//! [`HORIZON`] of the next step live in a ring of router bitmasks, one slot
//! per cycle; anything later (only link-stall faults or very deep pipelines
//! produce such wakes) waits in a small far set and migrates into the ring
//! as the window advances.

use puno_sim::Cycle;

/// Cycles covered by the ring: slot `t % HORIZON` holds the routers due at
/// cycle `t`, for `t` in `[base, base + HORIZON)`.
const HORIZON: Cycle = 64;

#[derive(Clone)]
pub(crate) struct WakeCalendar {
    /// `u64` words per router bitmask.
    words: usize,
    /// `HORIZON` router bitmasks, `words` words each.
    slots: Vec<u64>,
    /// Bit `s` set iff slot `s` files any router.
    nonempty: u64,
    /// First cycle the ring covers: one past the last step.
    base: Cycle,
    /// `(cycle, router)` filings at or past `base + HORIZON`.
    far: Vec<(Cycle, u32)>,
    /// Earliest cycle in `far` (`Cycle::MAX` when empty).
    far_min: Cycle,
    /// Per router: the cycle it is filed at, `Cycle::MAX` if unfiled.
    filed: Vec<Cycle>,
}

impl WakeCalendar {
    pub fn new(routers: usize) -> Self {
        let words = routers.div_ceil(64);
        Self {
            words,
            slots: vec![0; HORIZON as usize * words],
            nonempty: 0,
            base: 0,
            far: Vec::new(),
            far_min: Cycle::MAX,
            filed: vec![Cycle::MAX; routers],
        }
    }

    /// Unfile every router and rewind to cycle 0, keeping allocations.
    pub fn reset(&mut self) {
        self.slots.fill(0);
        self.nonempty = 0;
        self.base = 0;
        self.far.clear();
        self.far_min = Cycle::MAX;
        self.filed.fill(Cycle::MAX);
    }

    /// File router `r` to wake at cycle `at`, replacing its current filing.
    /// `at` must lie after the last step (`at >= base`).
    #[inline]
    pub fn file(&mut self, r: usize, at: Cycle) {
        debug_assert!(
            at >= self.base,
            "filing at {at}, before the window at {}",
            self.base
        );
        if self.filed[r] == at {
            return;
        }
        self.unfile(r);
        self.filed[r] = at;
        if at < self.base + HORIZON {
            self.set(r, (at % HORIZON) as usize);
        } else {
            self.far.push((at, r as u32));
            self.far_min = self.far_min.min(at);
        }
    }

    /// Remove router `r`'s filing, if any.
    #[inline]
    pub fn unfile(&mut self, r: usize) {
        let at = std::mem::replace(&mut self.filed[r], Cycle::MAX);
        if at == Cycle::MAX {
            return;
        }
        if at < self.base + HORIZON {
            let s = (at % HORIZON) as usize;
            let slot = &mut self.slots[s * self.words..(s + 1) * self.words];
            slot[r / 64] &= !(1u64 << (r % 64));
            if slot.iter().all(|&w| w == 0) {
                self.nonempty &= !(1u64 << s);
            }
        } else {
            let i = self
                .far
                .iter()
                .position(|&(_, fr)| fr as usize == r)
                .expect("a far filing is in the far set");
            self.far.swap_remove(i);
            self.far_min = self.far.iter().map(|&(c, _)| c).min().unwrap_or(Cycle::MAX);
        }
    }

    /// Unfile every router due at or before `now`, ORing it into `due`, and
    /// advance the window to start at `now + 1`, migrating far filings that
    /// now fall inside it.
    pub fn take_due(&mut self, now: Cycle, due: &mut [u64]) {
        let span = (now + 1).saturating_sub(self.base).min(HORIZON);
        for t in self.base..self.base + span {
            let s = (t % HORIZON) as usize;
            if self.nonempty & (1u64 << s) == 0 {
                continue;
            }
            self.nonempty &= !(1u64 << s);
            for (w, due_word) in due.iter_mut().enumerate() {
                let mut bits = std::mem::take(&mut self.slots[s * self.words + w]);
                *due_word |= bits;
                while bits != 0 {
                    self.filed[w * 64 + bits.trailing_zeros() as usize] = Cycle::MAX;
                    bits &= bits - 1;
                }
            }
        }
        self.base = self.base.max(now + 1);
        if self.far_min >= self.base + HORIZON {
            return;
        }
        let mut far = std::mem::take(&mut self.far);
        self.far_min = Cycle::MAX;
        far.retain(|&(at, r)| {
            let r = r as usize;
            if at <= now {
                due[r / 64] |= 1u64 << (r % 64);
                self.filed[r] = Cycle::MAX;
            } else if at < self.base + HORIZON {
                self.set(r, (at % HORIZON) as usize);
            } else {
                self.far_min = self.far_min.min(at);
                return true;
            }
            false
        });
        self.far = far;
    }

    /// Earliest filed cycle, `Cycle::MAX` when nothing is filed.
    #[inline]
    pub fn earliest(&self) -> Cycle {
        if self.nonempty == 0 {
            return self.far_min;
        }
        let offset = self
            .nonempty
            .rotate_right((self.base % HORIZON) as u32)
            .trailing_zeros();
        self.base + offset as Cycle
    }

    #[inline]
    fn set(&mut self, r: usize, s: usize) {
        self.slots[s * self.words + r / 64] |= 1u64 << (r % 64);
        self.nonempty |= 1u64 << s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn due(cal: &mut WakeCalendar, now: Cycle) -> Vec<usize> {
        let mut mask = vec![0u64; cal.words];
        cal.take_due(now, &mut mask);
        (0..cal.filed.len())
            .filter(|&r| mask[r / 64] & (1 << (r % 64)) != 0)
            .collect()
    }

    #[test]
    fn wakes_come_due_in_cycle_order_across_the_horizon() {
        let mut cal = WakeCalendar::new(130);
        cal.file(129, 3);
        cal.file(5, 3);
        cal.file(64, 70);
        cal.file(7, 500);
        assert_eq!(cal.earliest(), 3);
        assert_eq!(due(&mut cal, 2), Vec::<usize>::new());
        assert_eq!(due(&mut cal, 3), vec![5, 129]);
        assert_eq!(cal.earliest(), 70);
        // A jump past several filings collects all of them at once.
        assert_eq!(due(&mut cal, 499), vec![64]);
        assert_eq!(cal.earliest(), 500);
        assert_eq!(due(&mut cal, 1_000), vec![7]);
        assert_eq!(cal.earliest(), Cycle::MAX);
    }

    #[test]
    fn refiling_moves_a_router_between_ring_and_far_set() {
        let mut cal = WakeCalendar::new(8);
        cal.file(1, 200);
        cal.file(1, 10);
        assert!(cal.far.is_empty());
        assert_eq!(cal.earliest(), 10);
        cal.file(1, 300);
        assert_eq!((cal.nonempty, cal.earliest()), (0, 300));
        cal.unfile(1);
        assert_eq!(cal.earliest(), Cycle::MAX);
        assert_eq!(due(&mut cal, 400), Vec::<usize>::new());
    }
}
