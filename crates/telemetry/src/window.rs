//! Windowed metric reads over a [`Hub`]: what changed since the last
//! [`mark`](HubWindow::mark).
//!
//! The hub's counters and histograms are cumulative — the right shape for
//! end-of-run reports, the wrong shape for a control loop that must judge
//! *this epoch's* pressure without the whole past averaging it away. A
//! [`HubWindow`] keeps a dense per-slot copy of the registry's counters
//! and histograms as they stood at the last mark (never series or gauges,
//! which no window query reads) and answers delta queries against the
//! live hub: counter differences exactly, histogram windows bucketwise via
//! [`DurationHistogram::delta_since`](dsa_sim::stats::DurationHistogram::delta_since).
//!
//! Marking is incremental. Every registry write stamps its slot with the
//! registry's write clock, so [`mark`](HubWindow::mark) copies only the
//! slots stamped after the previous mark, in place; once every metric
//! has been written once, a mark allocates nothing and its cost follows
//! the metrics written in the epoch, not the length of the run.
//! Everything here is read-only over deterministic state, so windowed
//! observations replay bit-identically with the run that produced them.

use crate::hub::Hub;
use crate::metrics::{Labels, Metric, MetricId, Metrics};
use dsa_sim::stats::DurationHistogram;

/// One slot as it stood at the last mark.
#[derive(Clone, Debug, Default)]
enum Snap {
    /// Unwritten at the mark, or a kind no window reads.
    #[default]
    Absent,
    Counter(u64),
    Histogram(DurationHistogram),
}

impl Snap {
    /// Makes this the mark-time copy of `now`, reusing a histogram's
    /// buckets when the slot already held one.
    fn refresh(&mut self, now: Option<&Metric>) {
        match (&mut *self, now) {
            (Snap::Histogram(was), Some(Metric::Histogram(h))) => was.clone_from(h),
            (_, Some(Metric::Histogram(h))) => *self = Snap::Histogram(h.clone()),
            (_, Some(Metric::Counter(c))) => *self = Snap::Counter(*c),
            _ => *self = Snap::Absent,
        }
    }
}

/// A delta view over a [`Hub`], anchored at the last [`mark`].
///
/// [`mark`]: HubWindow::mark
#[derive(Clone, Debug)]
pub struct HubWindow {
    hub: Hub,
    /// The registry's write clock at the last mark.
    marked: u64,
    /// Per [`MetricId`]: the slot's state at the last mark.
    snapshot: Vec<Snap>,
}

impl HubWindow {
    /// A window over `hub`, anchored at the hub's *current* state (an
    /// immediate query reports empty deltas).
    pub fn new(hub: Hub) -> HubWindow {
        let mut w = HubWindow { hub, marked: 0, snapshot: Vec::new() };
        w.mark();
        w
    }

    /// Re-anchors the window at the hub's current state, closing the
    /// previous epoch. Copies only the slots written since the previous
    /// mark.
    pub fn mark(&mut self) {
        let HubWindow { hub, marked, snapshot } = self;
        hub.with_metrics(|m| {
            if snapshot.len() < m.slot_count() {
                snapshot.resize_with(m.slot_count(), Snap::default);
            }
            for id in m.written_since(*marked) {
                snapshot[id.index()].refresh(m.get(id));
            }
            *marked = m.clock();
        });
    }

    /// The hub this window reads.
    pub fn hub(&self) -> &Hub {
        &self.hub
    }

    fn was(&self, id: MetricId) -> &Snap {
        self.snapshot.get(id.index()).unwrap_or(&Snap::Absent)
    }

    /// Counter growth under `(name, labels)` since the last mark.
    pub fn counter_delta(&self, name: &'static str, labels: Labels) -> u64 {
        self.hub.with_metrics(|m| {
            let Some(id) = m.id(name, labels) else { return 0 };
            let now = match m.get(id) {
                Some(Metric::Counter(c)) => *c,
                _ => 0,
            };
            let was = match self.was(id) {
                Snap::Counter(c) => *c,
                _ => 0,
            };
            now.saturating_sub(was)
        })
    }

    /// The distribution of samples recorded under `(name, labels)` since
    /// the last mark (empty if the key never existed or saw no samples).
    pub fn histogram_delta(&self, name: &'static str, labels: Labels) -> DurationHistogram {
        let mut out = DurationHistogram::new();
        self.hub.with_metrics(|m| {
            if let Some(id) = m.id(name, labels) {
                self.merge_delta(m, id, &mut out);
            }
        });
        out
    }

    /// The merged window distribution under `name` across every label set
    /// belonging to `tenant` — e.g. a tenant's `svc_latency` samples,
    /// which land under per-WQ labels that change when the tenant is
    /// re-wired mid-run. Merging is order-independent (bucket sums and
    /// min/max), so the result does not depend on registration order.
    pub fn histogram_delta_tenant(&self, name: &'static str, tenant: u16) -> DurationHistogram {
        let mut out = DurationHistogram::new();
        self.histogram_delta_tenant_into(name, tenant, &mut out);
        out
    }

    /// [`histogram_delta_tenant`](Self::histogram_delta_tenant) into a
    /// caller-owned buffer, which is cleared first: reads the tenant's
    /// slot list kept at registration and allocates nothing.
    pub fn histogram_delta_tenant_into(
        &self,
        name: &'static str,
        tenant: u16,
        out: &mut DurationHistogram,
    ) {
        out.clear();
        self.hub.with_metrics(|m| {
            for id in m.tenant_ids(name, tenant) {
                self.merge_delta(m, id, out);
            }
        });
    }

    /// Merges slot `id`'s window into `out`: its growth since the mark,
    /// or all of it when the slot was unwritten at the mark.
    fn merge_delta(&self, m: &Metrics, id: MetricId, out: &mut DurationHistogram) {
        if let Some(Metric::Histogram(now)) = m.get(id) {
            match self.was(id) {
                Snap::Histogram(was) => out.merge_delta(now, was),
                _ => out.merge(now),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_sim::time::SimDuration;

    #[test]
    fn deltas_track_only_the_current_epoch() {
        let hub = Hub::new();
        hub.counter_add("jobs", Labels::tenant(0), 5);
        hub.observe("lat", Labels::tenant(0), SimDuration::from_ns(100));

        let mut w = HubWindow::new(hub.clone());
        assert_eq!(w.counter_delta("jobs", Labels::tenant(0)), 0);
        assert_eq!(w.histogram_delta("lat", Labels::tenant(0)).count(), 0);

        hub.counter_add("jobs", Labels::tenant(0), 3);
        hub.observe("lat", Labels::tenant(0), SimDuration::from_us(50));
        assert_eq!(w.counter_delta("jobs", Labels::tenant(0)), 3);
        let win = w.histogram_delta("lat", Labels::tenant(0));
        assert_eq!(win.count(), 1);
        assert!(win.percentile(99.0).unwrap() >= SimDuration::from_us(40));

        w.mark();
        assert_eq!(w.counter_delta("jobs", Labels::tenant(0)), 0);
        assert_eq!(w.histogram_delta("lat", Labels::tenant(0)).count(), 0);
    }

    #[test]
    fn keys_born_inside_the_window_count_in_full() {
        let hub = Hub::new();
        let w = HubWindow::new(hub.clone());
        hub.counter_add("new", Labels::none(), 7);
        hub.observe("fresh", Labels::none(), SimDuration::from_ns(10));
        assert_eq!(w.counter_delta("new", Labels::none()), 7);
        assert_eq!(w.histogram_delta("fresh", Labels::none()).count(), 1);
        assert_eq!(w.counter_delta("absent", Labels::none()), 0);
        assert_eq!(w.histogram_delta("absent", Labels::none()).count(), 0);
    }

    #[test]
    fn registered_but_unwritten_slots_are_born_at_first_write() {
        let hub = Hub::new();
        let lat = hub.histogram_handle("lat", Labels::tenant(1));
        let mut w = HubWindow::new(hub.clone());
        w.mark();
        hub.record(lat, SimDuration::from_ns(1_234));
        // Unwritten at the mark: the window holds the exact histogram,
        // not a bucket-bounded delta.
        let win = w.histogram_delta_tenant("lat", 1);
        assert_eq!(win.min(), SimDuration::from_ns(1_234));
        assert_eq!(win.max(), SimDuration::from_ns(1_234));
    }
}
