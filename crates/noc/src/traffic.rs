//! Coherence message classes and traffic accounting.
//!
//! Fig. 8 of the paper reports inter-socket traffic *normalized to
//! baseline NUMA*; the correlation between traffic reduction and speedup
//! is its key performance-analysis result. [`TrafficStats`] tallies
//! messages by [`MessageClass`] so the harness can reproduce that
//! figure; bytes follow from each class's fixed wire size.

use std::fmt;

/// Classes of coherence traffic crossing the inter-socket link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// GETS/GETX request (control, 8 B).
    Request,
    /// Data response carrying a cache line (72 B: 64 B + header).
    DataResponse,
    /// Invalidation or downgrade (control, 8 B).
    Invalidation,
    /// Acknowledgement (control, 8 B).
    Ack,
    /// Dirty writeback carrying a line (72 B).
    Writeback,
    /// Replica-directory maintenance (deny-permission pushes, drain
    /// notifications; control, 8 B).
    ReplicaMaintenance,
}

impl MessageClass {
    /// Wire size of one message of this class, in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MessageClass::DataResponse | MessageClass::Writeback => 72,
            _ => 8,
        }
    }

    /// All classes, for iteration in reports.
    pub const ALL: [MessageClass; 6] = [
        MessageClass::Request,
        MessageClass::DataResponse,
        MessageClass::Invalidation,
        MessageClass::Ack,
        MessageClass::Writeback,
        MessageClass::ReplicaMaintenance,
    ];

    fn index(self) -> usize {
        match self {
            MessageClass::Request => 0,
            MessageClass::DataResponse => 1,
            MessageClass::Invalidation => 2,
            MessageClass::Ack => 3,
            MessageClass::Writeback => 4,
            MessageClass::ReplicaMaintenance => 5,
        }
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageClass::Request => "request",
            MessageClass::DataResponse => "data-response",
            MessageClass::Invalidation => "invalidation",
            MessageClass::Ack => "ack",
            MessageClass::Writeback => "writeback",
            MessageClass::ReplicaMaintenance => "replica-maintenance",
        };
        f.write_str(s)
    }
}

/// Per-class message tallies; bytes are messages × [`MessageClass::bytes`].
///
/// # Example
///
/// ```
/// use dve_noc::traffic::{MessageClass, TrafficStats};
///
/// let mut t = TrafficStats::new();
/// t.record(MessageClass::Request);
/// t.record(MessageClass::DataResponse);
/// assert_eq!(t.total_messages(), 2);
/// assert_eq!(t.total_bytes(), 8 + 72);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    messages: [u64; 6],
}

impl TrafficStats {
    /// Creates zeroed stats.
    pub fn new() -> TrafficStats {
        TrafficStats::default()
    }

    /// Records one message of `class`.
    pub fn record(&mut self, class: MessageClass) {
        self.messages[class.index()] += 1;
    }

    /// Messages of a given class.
    pub fn messages(&self, class: MessageClass) -> u64 {
        self.messages[class.index()]
    }

    /// Bytes of a given class.
    pub fn bytes(&self, class: MessageClass) -> u64 {
        self.messages(class) * class.bytes()
    }

    /// All messages.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// All bytes.
    pub fn total_bytes(&self) -> u64 {
        MessageClass::ALL.iter().map(|&c| self.bytes(c)).sum()
    }

    /// Componentwise difference `self - other` (saturating), used to
    /// isolate the measured region of a run from its warm-up.
    pub fn saturating_sub(&self, other: &TrafficStats) -> TrafficStats {
        let mut out = TrafficStats::new();
        for i in 0..6 {
            out.messages[i] = self.messages[i].saturating_sub(other.messages[i]);
        }
        out
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..6 {
            self.messages[i] += other.messages[i];
        }
    }

    /// This tally's bytes as a fraction of `baseline`'s (Fig. 8's
    /// normalization). Returns 1.0 when the baseline saw no traffic.
    pub fn normalized_to(&self, baseline: &TrafficStats) -> f64 {
        if baseline.total_bytes() == 0 {
            1.0
        } else {
            self.total_bytes() as f64 / baseline.total_bytes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_reflect_payloads() {
        assert_eq!(MessageClass::Request.bytes(), 8);
        assert_eq!(MessageClass::DataResponse.bytes(), 72);
        assert_eq!(MessageClass::Writeback.bytes(), 72);
    }

    #[test]
    fn per_class_accounting() {
        let mut t = TrafficStats::new();
        t.record(MessageClass::Request);
        t.record(MessageClass::Request);
        t.record(MessageClass::Writeback);
        assert_eq!(t.messages(MessageClass::Request), 2);
        assert_eq!(t.bytes(MessageClass::Request), 16);
        assert_eq!(t.messages(MessageClass::Writeback), 1);
        assert_eq!(t.total_messages(), 3);
        assert_eq!(t.total_bytes(), 88);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = TrafficStats::new();
        a.record(MessageClass::Ack);
        let mut b = TrafficStats::new();
        b.record(MessageClass::Ack);
        b.record(MessageClass::Invalidation);
        a.merge(&b);
        assert_eq!(a.messages(MessageClass::Ack), 2);
        assert_eq!(a.messages(MessageClass::Invalidation), 1);
    }

    #[test]
    fn normalization() {
        let mut base = TrafficStats::new();
        base.record(MessageClass::DataResponse);
        base.record(MessageClass::DataResponse);
        let mut mine = TrafficStats::new();
        mine.record(MessageClass::DataResponse);
        assert!((mine.normalized_to(&base) - 0.5).abs() < 1e-12);
        let empty = TrafficStats::new();
        assert_eq!(mine.normalized_to(&empty), 1.0);
    }

    #[test]
    fn all_classes_enumerated_once() {
        let mut seen = std::collections::HashSet::new();
        for c in MessageClass::ALL {
            assert!(seen.insert(c.index()));
            assert!(!c.to_string().is_empty());
        }
        assert_eq!(seen.len(), 6);
    }
}
