//! A labelled metrics registry: counters, gauges, log-linear latency
//! histograms, and utilization time series, keyed by device/WQ/PE.

use dsa_sim::stats::{DurationHistogram, TimeSeries};
use dsa_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Metric labels: which device/WQ/PE/tenant a sample belongs to. `None`
/// means the dimension does not apply (e.g. a job-level counter).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    /// Device index.
    pub device: Option<u16>,
    /// WQ index within the device.
    pub wq: Option<u16>,
    /// Processing-engine index within the device.
    pub pe: Option<u16>,
    /// Service-layer tenant index (multi-tenant client streams).
    pub tenant: Option<u16>,
}

impl Labels {
    /// No labels (global / software-side metrics).
    pub fn none() -> Labels {
        Labels::default()
    }

    /// Device-scoped.
    pub fn device(device: u16) -> Labels {
        Labels { device: Some(device), ..Labels::default() }
    }

    /// WQ-scoped.
    pub fn wq(device: u16, wq: u16) -> Labels {
        Labels { device: Some(device), wq: Some(wq), ..Labels::default() }
    }

    /// PE-scoped.
    pub fn pe(device: u16, pe: u16) -> Labels {
        Labels { device: Some(device), pe: Some(pe), ..Labels::default() }
    }

    /// Tenant-scoped (service-layer per-client metrics).
    pub fn tenant(tenant: u16) -> Labels {
        Labels { tenant: Some(tenant), ..Labels::default() }
    }

    /// Tenant + WQ scoped (which queue a tenant's stream landed on).
    pub fn tenant_wq(tenant: u16, device: u16, wq: u16) -> Labels {
        Labels { device: Some(device), wq: Some(wq), pe: None, tenant: Some(tenant) }
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-write-wins value.
    Gauge(f64),
    /// Log-linear latency distribution (p50/p90/p99/p999).
    Histogram(DurationHistogram),
    /// Sampled utilization timeline (WQ depth, PE occupancy).
    Series(TimeSeries),
}

/// Dense index of one registered metric: its slot in a [`Metrics`]
/// registry. Ids are handed out in registration order and stay valid for
/// the registry's lifetime (a [`Hub::reset`](crate::Hub::reset) empties
/// slots but keeps them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MetricId(usize);

impl MetricId {
    /// Position in the registry's slot vector.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A pre-registered counter: adding through it indexes a slot instead of
/// looking up `(name, labels)`. Valid only for the registry (or hub) that
/// issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterHandle(MetricId);

/// A pre-registered histogram; see [`CounterHandle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramHandle(MetricId);

/// A pre-registered time series; see [`CounterHandle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesHandle(MetricId);

#[derive(Clone, Debug)]
struct Slot {
    name: &'static str,
    /// False until the first write. Registering a handle reserves the
    /// slot ahead of use; an unwritten slot stays out of every read, so
    /// pre-registration never shows up in an export.
    live: bool,
    metric: Metric,
}

/// The registry. Metrics are created on first touch; a name+labels pair
/// always maps to one kind (mixing kinds under one key panics, which
/// catches instrumentation typos early).
///
/// Storage is dense: every metric owns a slot in a `Vec`, and a two-level
/// `BTreeMap` (name, then labels) is the ordered index, so
/// [`iter`](Metrics::iter) keeps deterministic (name, labels) order and a
/// keyed lookup compares only a few names before it reaches integer label
/// compares. Hot
/// recorders resolve a key once into a typed handle
/// ([`counter_handle`](Metrics::counter_handle) and friends) and then
/// write by index; the name-keyed calls are the cold path. Each write
/// stamps its slot with a registry-wide write clock, which lets a
/// [`HubWindow`](crate::HubWindow) refresh only the slots written since
/// its last mark.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    index: BTreeMap<&'static str, BTreeMap<Labels, MetricId>>,
    slots: Vec<Slot>,
    /// Per slot: the write clock at its last write (0 = never written).
    stamps: Vec<u64>,
    clock: u64,
    live: usize,
    /// Tenant-labelled slots by (name, tenant), in registration order.
    by_tenant: BTreeMap<(&'static str, u16), Vec<MetricId>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Resolves `(name, labels)` to a slot of the kind `is_kind` accepts,
    /// registering an unwritten one built by `make` when absent. An
    /// unwritten slot of another kind is re-kinded (it was never visible);
    /// a live one is a kind mismatch.
    fn register(
        &mut self,
        name: &'static str,
        labels: Labels,
        kind: &str,
        is_kind: fn(&Metric) -> bool,
        make: fn() -> Metric,
    ) -> MetricId {
        if let Some(id) = self.id(name, labels) {
            let slot = &mut self.slots[id.index()];
            if !is_kind(&slot.metric) {
                if slot.live {
                    panic!("metric {name} is not a {kind}: {:?}", slot.metric);
                }
                slot.metric = make();
            }
            return id;
        }
        let id = MetricId(self.slots.len());
        self.index.entry(name).or_default().insert(labels, id);
        self.slots.push(Slot { name, live: false, metric: make() });
        self.stamps.push(0);
        if let Some(tenant) = labels.tenant {
            self.by_tenant.entry((name, tenant)).or_default().push(id);
        }
        id
    }

    /// Marks slot `id` written now and returns its metric.
    fn touch(&mut self, id: MetricId) -> &mut Metric {
        self.clock += 1;
        self.stamps[id.index()] = self.clock;
        let slot = &mut self.slots[id.index()];
        if !slot.live {
            slot.live = true;
            self.live += 1;
        }
        &mut slot.metric
    }

    /// Registers (or finds) the counter under `(name, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if a live metric of another kind holds the key.
    pub fn counter_handle(&mut self, name: &'static str, labels: Labels) -> CounterHandle {
        CounterHandle(self.register(
            name,
            labels,
            "counter",
            |m| matches!(m, Metric::Counter(_)),
            || Metric::Counter(0),
        ))
    }

    /// Registers (or finds) the histogram under `(name, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if a live metric of another kind holds the key.
    pub fn histogram_handle(&mut self, name: &'static str, labels: Labels) -> HistogramHandle {
        HistogramHandle(self.register(
            name,
            labels,
            "histogram",
            |m| matches!(m, Metric::Histogram(_)),
            || Metric::Histogram(DurationHistogram::new()),
        ))
    }

    /// Registers (or finds) the time series under `(name, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if a live metric of another kind holds the key.
    pub fn series_handle(&mut self, name: &'static str, labels: Labels) -> SeriesHandle {
        SeriesHandle(self.register(
            name,
            labels,
            "series",
            |m| matches!(m, Metric::Series(_)),
            || Metric::Series(TimeSeries::new()),
        ))
    }

    /// Adds `n` through a counter handle.
    pub fn add(&mut self, h: CounterHandle, n: u64) {
        let name = self.slots[h.0.index()].name;
        match self.touch(h.0) {
            Metric::Counter(c) => *c += n,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Records a duration through a histogram handle.
    pub fn record(&mut self, h: HistogramHandle, d: SimDuration) {
        let name = self.slots[h.0.index()].name;
        match self.touch(h.0) {
            Metric::Histogram(hist) => hist.record(d),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Appends a point through a series handle.
    pub fn push(&mut self, h: SeriesHandle, at: SimTime, v: f64) {
        let name = self.slots[h.0.index()].name;
        match self.touch(h.0) {
            Metric::Series(s) => s.push(at, v),
            other => panic!("metric {name} is not a series: {other:?}"),
        }
    }

    /// Adds `n` to a counter.
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, n: u64) {
        let h = self.counter_handle(name, labels);
        self.add(h, n);
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, v: f64) {
        let id = self.register(
            name,
            labels,
            "gauge",
            |m| matches!(m, Metric::Gauge(_)),
            || Metric::Gauge(0.0),
        );
        if let Metric::Gauge(g) = self.touch(id) {
            *g = v;
        }
    }

    /// Records a duration into a histogram.
    pub fn observe(&mut self, name: &'static str, labels: Labels, d: SimDuration) {
        let h = self.histogram_handle(name, labels);
        self.record(h, d);
    }

    /// Appends a point to a utilization time series.
    pub fn series_push(&mut self, name: &'static str, labels: Labels, at: SimTime, v: f64) {
        let h = self.series_handle(name, labels);
        self.push(h, at, v);
    }

    /// The slot under `(name, labels)`, written or not.
    pub(crate) fn id(&self, name: &'static str, labels: Labels) -> Option<MetricId> {
        self.index.get(name)?.get(&labels).copied()
    }

    /// The metric in slot `id`, if it has been written.
    pub(crate) fn get(&self, id: MetricId) -> Option<&Metric> {
        let slot = &self.slots[id.index()];
        slot.live.then_some(&slot.metric)
    }

    fn lookup(&self, name: &'static str, labels: Labels) -> Option<&Metric> {
        self.id(name, labels).and_then(|id| self.get(id))
    }

    /// Every slot labelled with `tenant` under `name`, written or not —
    /// the per-tenant view a window merges.
    pub(crate) fn tenant_ids(
        &self,
        name: &'static str,
        tenant: u16,
    ) -> impl Iterator<Item = MetricId> + '_ {
        self.by_tenant.get(&(name, tenant)).into_iter().flatten().copied()
    }

    /// Number of slots, registered or written.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The write clock: the number of writes so far. Every slot written
    /// after a reading of `clock()` carries a larger stamp.
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// Slots written after the write clock read `since`, in slot order.
    pub(crate) fn written_since(&self, since: u64) -> impl Iterator<Item = MetricId> + '_ {
        self.stamps.iter().enumerate().filter(move |(_, &s)| s > since).map(|(i, _)| MetricId(i))
    }

    /// Empties every slot, as if nothing had been recorded. Slots and the
    /// handles that point at them stay valid.
    pub fn clear(&mut self) {
        for (slot, stamp) in self.slots.iter_mut().zip(&mut self.stamps) {
            self.clock += 1;
            *stamp = self.clock;
            slot.live = false;
            slot.metric = match slot.metric {
                Metric::Counter(_) => Metric::Counter(0),
                Metric::Gauge(_) => Metric::Gauge(0.0),
                Metric::Histogram(_) => Metric::Histogram(DurationHistogram::new()),
                Metric::Series(_) => Metric::Series(TimeSeries::new()),
            };
        }
        self.live = 0;
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, name: &'static str, labels: Labels) -> u64 {
        match self.lookup(name, labels) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Option<f64> {
        match self.lookup(name, labels) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// A histogram, if one exists under this key.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Option<&DurationHistogram> {
        match self.lookup(name, labels) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// A time series, if one exists under this key.
    pub fn series(&self, name: &'static str, labels: Labels) -> Option<&TimeSeries> {
        match self.lookup(name, labels) {
            Some(Metric::Series(s)) => Some(s),
            _ => None,
        }
    }

    /// Histogram percentile shortcut (`p` in (0, 100]).
    pub fn percentile(&self, name: &'static str, labels: Labels, p: f64) -> Option<SimDuration> {
        self.histogram(name, labels).and_then(|h| h.percentile(p))
    }

    /// Merges every histogram under `name` (across all label sets) into
    /// one distribution — e.g. device-wide latency from per-WQ buckets.
    pub fn merged_histogram(&self, name: &'static str) -> DurationHistogram {
        let mut out = DurationHistogram::new();
        for (n, _, m) in self.iter() {
            if n == name {
                if let Metric::Histogram(h) = m {
                    out.merge(h);
                }
            }
        }
        out
    }

    /// Iterates all metrics in deterministic (name, labels) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Labels, &Metric)> + '_ {
        self.index.iter().flat_map(move |(&n, by_labels)| {
            by_labels.iter().filter_map(move |(&l, &id)| self.get(id).map(|m| (n, l, m)))
        })
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = Metrics::new();
        m.counter_add("descriptors", Labels::wq(0, 0), 3);
        m.counter_add("descriptors", Labels::wq(0, 1), 5);
        m.counter_add("descriptors", Labels::wq(0, 0), 4);
        assert_eq!(m.counter("descriptors", Labels::wq(0, 0)), 7);
        assert_eq!(m.counter("descriptors", Labels::wq(0, 1)), 5);
        assert_eq!(m.counter("descriptors", Labels::none()), 0);
    }

    #[test]
    fn histograms_expose_tail_percentiles() {
        let mut m = Metrics::new();
        for i in 1..=1000u64 {
            m.observe("latency", Labels::wq(0, 0), SimDuration::from_ns(i * 100));
        }
        let p50 = m.percentile("latency", Labels::wq(0, 0), 50.0).unwrap();
        let p99 = m.percentile("latency", Labels::wq(0, 0), 99.0).unwrap();
        let p999 = m.percentile("latency", Labels::wq(0, 0), 99.9).unwrap();
        assert!(p50 < p99 && p99 <= p999);
        // Log-linear buckets: ≤ ~6% relative error on the p99 target.
        let err = (p99.as_ns_f64() - 99_000.0).abs() / 99_000.0;
        assert!(err < 0.07, "p99 off by {err}");
        assert!(m.percentile("latency", Labels::wq(0, 1), 99.0).is_none());
    }

    #[test]
    fn merged_histogram_spans_all_wqs() {
        let mut m = Metrics::new();
        m.observe("latency", Labels::wq(0, 0), SimDuration::from_ns(100));
        m.observe("latency", Labels::wq(0, 1), SimDuration::from_ns(10_000));
        let all = m.merged_histogram("latency");
        assert_eq!(all.count(), 2);
        assert!(all.max() >= SimDuration::from_ns(10_000));
    }

    #[test]
    fn series_and_gauges_roundtrip() {
        let mut m = Metrics::new();
        m.series_push("wq_depth", Labels::wq(0, 0), SimTime::from_ns(10), 3.0);
        m.series_push("wq_depth", Labels::wq(0, 0), SimTime::from_ns(20), 7.0);
        m.gauge_set("pe_util", Labels::pe(0, 2), 0.5);
        assert_eq!(m.series("wq_depth", Labels::wq(0, 0)).unwrap().len(), 2);
        assert_eq!(m.series("wq_depth", Labels::wq(0, 0)).unwrap().max_value(), 7.0);
        assert_eq!(m.gauge("pe_util", Labels::pe(0, 2)), Some(0.5));
    }

    #[test]
    fn handles_and_names_share_one_slot() {
        let mut m = Metrics::new();
        let c = m.counter_handle("jobs", Labels::wq(0, 1));
        let h = m.histogram_handle("lat", Labels::tenant(2));
        let s = m.series_handle("depth", Labels::wq(0, 1));
        // Registered but unwritten: invisible to every read.
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        assert!(m.histogram("lat", Labels::tenant(2)).is_none());
        m.add(c, 2);
        m.counter_add("jobs", Labels::wq(0, 1), 3);
        m.record(h, SimDuration::from_ns(5));
        m.observe("lat", Labels::tenant(2), SimDuration::from_ns(7));
        m.push(s, SimTime::from_ns(1), 1.0);
        assert_eq!(m.counter("jobs", Labels::wq(0, 1)), 5);
        assert_eq!(m.histogram("lat", Labels::tenant(2)).unwrap().count(), 2);
        assert_eq!(m.series("depth", Labels::wq(0, 1)).unwrap().len(), 1);
        assert_eq!(m.counter_handle("jobs", Labels::wq(0, 1)), c);
        assert_eq!(m.len(), 3);
        let names: Vec<_> = m.iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, ["depth", "jobs", "lat"], "iteration stays in key order");
    }

    #[test]
    fn clear_keeps_handles_valid() {
        let mut m = Metrics::new();
        let c = m.counter_handle("jobs", Labels::none());
        m.add(c, 4);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.counter("jobs", Labels::none()), 0);
        m.add(c, 1);
        assert_eq!(m.counter("jobs", Labels::none()), 1);
    }

    #[test]
    fn unwritten_slots_can_change_kind() {
        let mut m = Metrics::new();
        let _ = m.counter_handle("x", Labels::none());
        m.gauge_set("x", Labels::none(), 2.0);
        assert_eq!(m.gauge("x", Labels::none()), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_is_caught() {
        let mut m = Metrics::new();
        m.gauge_set("x", Labels::none(), 1.0);
        m.counter_add("x", Labels::none(), 1);
    }
}
