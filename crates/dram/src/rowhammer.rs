//! Row-hammer exposure monitoring (§III).
//!
//! "Row hammer errors can be mitigated by load balancing requests
//! between the independent replicas" — because Dvé serves reads from the
//! nearest copy, per-row activation pressure on any single physical row
//! is roughly halved relative to a single-copy system. [`RowHammerMonitor`]
//! tracks activations per row within refresh windows and reports the
//! worst-case (victim-adjacent) activation count, the quantity row-hammer
//! thresholds are defined over. The `figures` bin's ablations use it to
//! measure the exposure reduction Dvé's replication provides.
//!
//! Counts live in per-bank pages of 1024 row counters, indexed by
//! `row / 1024` and allocated on a page's first activation, so
//! recording one is two indexed loads and an increment (no hashing). A
//! bank's page table holds one pointer per page up to the highest page
//! touched: 64 for a Table II bank's 65 536 rows. The monitor also lists
//! the rows the current window has activated; that list zeroes their
//! counters at rollover, so the pages are reused window after window.
//!
//! The correlated row-hammer fault source asks [`RowHammerMonitor::rows_over`]
//! for the rows past its trip point on every poll. Within a window a
//! row's count only grows, one activation at a time, so it passes any
//! threshold exactly once: the monitor keeps the rows that passed the
//! lowest threshold queried so far in a list it appends to as they
//! cross, and a query filters that list instead of scanning every row
//! the window touched.

use std::cell::RefCell;

/// Row counters per page of a bank's count table.
const PAGE_ROWS: usize = 1024;

/// One page of row activation counts.
type Page = Box<[u32; PAGE_ROWS]>;

/// Tracks per-row activation counts within refresh windows.
///
/// # Example
///
/// ```
/// use dve_dram::rowhammer::RowHammerMonitor;
///
/// let mut m = RowHammerMonitor::new(23_400 * 8192); // one tREFW in cycles
/// for t in 0..1000u64 {
///     m.record_activation(0, 42, t);
/// }
/// assert_eq!(m.max_activations(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct RowHammerMonitor {
    window_cycles: u64,
    window_start: u64,
    /// Current-window counts: `pages[bank][row / PAGE_ROWS]`, slot
    /// `row % PAGE_ROWS`; `None` until the page's first activation.
    pages: Vec<Vec<Option<Page>>>,
    /// Every `(bank, row)` with a non-zero count this window, in the
    /// order of their first activation.
    touched: Vec<(usize, u64)>,
    max_seen: u64,
    windows: u64,
    /// Index of the current window's rows over the lowest threshold
    /// queried so far. Queries take `&self`, and the first query (or
    /// one below the indexed floor) rebuilds it, hence the cell.
    over: RefCell<OverIndex>,
}

/// Rows of the current window whose count exceeds `floor`, in the
/// order they crossed it. `floor` is `None` until the first query.
#[derive(Debug, Clone, Default)]
struct OverIndex {
    floor: Option<u64>,
    rows: Vec<(usize, u64)>,
}

/// The page index and in-page slot of `row`.
fn page_of(row: u64) -> (usize, usize) {
    let rows = PAGE_ROWS as u64;
    ((row / rows) as usize, (row % rows) as usize)
}

impl RowHammerMonitor {
    /// Creates a monitor with the given refresh-window length in cycles
    /// (tREFW; activations reset each window because refresh restores
    /// the victim rows).
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    pub fn new(window_cycles: u64) -> RowHammerMonitor {
        assert!(window_cycles > 0, "window must be non-zero");
        RowHammerMonitor {
            window_cycles,
            window_start: 0,
            pages: Vec::new(),
            touched: Vec::new(),
            max_seen: 0,
            windows: 0,
            over: RefCell::default(),
        }
    }

    /// The default DDR4 window: 64 ms at 3 GHz.
    pub fn ddr4_default() -> RowHammerMonitor {
        RowHammerMonitor::new(192_000_000)
    }

    /// Records one row activation of `(bank, row)` at time `now`.
    ///
    /// An activation landing exactly on a window boundary belongs to the
    /// *new* window: refresh restored the victim rows at that instant,
    /// so its count starts the fresh window at 1.
    pub fn record_activation(&mut self, bank: usize, row: u64, now: u64) {
        if now >= self.window_start + self.window_cycles {
            for &(b, r) in &self.touched {
                let (page, slot) = page_of(r);
                self.pages[b][page]
                    .as_mut()
                    .expect("touched rows have pages")[slot] = 0;
            }
            self.touched.clear();
            self.over.get_mut().rows.clear();
            // Snap the window origin forward, counting every elapsed
            // window (possibly several empty ones) as completed.
            let skipped = (now - self.window_start) / self.window_cycles;
            self.windows += skipped;
            self.window_start += skipped * self.window_cycles;
        }
        let (page, slot) = page_of(row);
        if bank >= self.pages.len() {
            self.pages.resize_with(bank + 1, Vec::new);
        }
        let table = &mut self.pages[bank];
        if page >= table.len() {
            table.resize_with(page + 1, || None);
        }
        let c = &mut table[page].get_or_insert_with(|| Box::new([0; PAGE_ROWS]))[slot];
        *c = c
            .checked_add(1)
            .expect("row activation count overflows u32");
        let c = u64::from(*c);
        if c == 1 {
            self.touched.push((bank, row));
        }
        self.max_seen = self.max_seen.max(c);
        // Counts step by one, so reaching `floor + 1` is the crossing.
        let over = self.over.get_mut();
        if over.floor == Some(c - 1) {
            over.rows.push((bank, row));
        }
    }

    /// The current-window count of `(bank, row)`, a row this window
    /// touched.
    fn count(&self, bank: usize, row: u64) -> u64 {
        let (page, slot) = page_of(row);
        let page = self.pages[bank][page]
            .as_ref()
            .expect("touched rows have pages");
        u64::from(page[slot])
    }

    /// The largest activation count any row accumulated within a single
    /// window — the row-hammer exposure metric.
    pub fn max_activations(&self) -> u64 {
        self.max_seen
    }

    /// Rows whose current-window count exceeds `threshold` (candidates
    /// for targeted refresh / request throttling), sorted.
    ///
    /// Scans every row the window touched only on the first query and
    /// when `threshold` is below every threshold queried before;
    /// otherwise it filters the rows already known to be over the
    /// lowest one.
    pub fn rows_over(&self, threshold: u64) -> Vec<(usize, u64)> {
        let mut over = self.over.borrow_mut();
        if over.floor.is_none_or(|f| threshold < f) {
            over.floor = Some(threshold);
            over.rows = self
                .touched
                .iter()
                .copied()
                .filter(|&(b, r)| self.count(b, r) > threshold)
                .collect();
        }
        let mut v: Vec<(usize, u64)> = over
            .rows
            .iter()
            .copied()
            .filter(|&(b, r)| self.count(b, r) > threshold)
            .collect();
        v.sort_unstable();
        v
    }

    /// Completed refresh windows.
    pub fn windows(&self) -> u64 {
        self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_within_window() {
        let mut m = RowHammerMonitor::new(1000);
        for t in 0..500 {
            m.record_activation(1, 7, t);
        }
        assert_eq!(m.max_activations(), 500);
        assert_eq!(m.rows_over(400), vec![(1, 7)]);
        assert!(m.rows_over(500).is_empty());
    }

    #[test]
    fn window_rollover_resets_counts() {
        let mut m = RowHammerMonitor::new(1000);
        for t in 0..500 {
            m.record_activation(0, 1, t);
        }
        // Next window: counts restart, max is retained historically.
        m.record_activation(0, 1, 1500);
        assert_eq!(m.max_activations(), 500);
        assert!(
            m.rows_over(100).is_empty(),
            "current window has 1 activation"
        );
        assert_eq!(m.windows(), 1);
    }

    #[test]
    fn distinct_rows_tracked_independently() {
        let mut m = RowHammerMonitor::new(10_000);
        for t in 0..300 {
            m.record_activation(0, t % 3, t);
        }
        assert_eq!(m.max_activations(), 100);
    }

    #[test]
    fn long_idle_skips_windows() {
        let mut m = RowHammerMonitor::new(100);
        m.record_activation(0, 0, 0);
        m.record_activation(0, 0, 100_000);
        assert_eq!(m.max_activations(), 1);
        // Every elapsed window counts as completed, not just one.
        assert_eq!(m.windows(), 1000);
    }

    #[test]
    fn boundary_activation_opens_the_new_window() {
        let mut m = RowHammerMonitor::new(1000);
        for t in 0..500 {
            m.record_activation(0, 9, t);
        }
        // t == 1000 is exactly the boundary: refresh has restored the
        // victims, so this activation starts the new window at 1 and
        // the historical max stays pinned at the old window's 500.
        m.record_activation(0, 9, 1000);
        assert_eq!(m.max_activations(), 500);
        assert_eq!(m.windows(), 1);
        assert!(m.rows_over(1).is_empty(), "new window holds exactly 1");
        m.record_activation(0, 9, 1001);
        assert_eq!(m.rows_over(1), vec![(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        RowHammerMonitor::new(0);
    }
}
