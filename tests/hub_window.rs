//! The incremental `HubWindow` against a snapshot-everything oracle.
//!
//! A window keeps a per-slot copy of counters and histograms and, at each
//! `mark`, refreshes only the slots whose write stamp is newer than the
//! previous mark. The oracle below is the plain definition: at every mark
//! it clones the whole registry, and a delta is the live metric minus the
//! clone (`DurationHistogram::delta_since`), or the whole live metric when
//! the key did not exist at the mark. A tenant's window merges every
//! label set carrying that tenant, in key order.
//!
//! A seeded stream of counter adds, histogram samples and series points
//! hits many (name, labels) keys, half through handles and half by name.
//! It includes tenant keys born mid-window, handles registered long before
//! their first write, and a tenant whose WQ label moves. After every step
//! every delta the window can answer must equal the oracle's: buckets,
//! count, sum, min, max and p50/p99/p999.

use std::collections::BTreeMap;

use dsa_sim::rng::SplitMix64;
use dsa_sim::stats::DurationHistogram;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_telemetry::{Hub, HubWindow, Labels, Metric, Metrics};

const COUNTERS: [&str; 3] = ["jobs", "bytes", "svc_shed"];
const HISTOGRAMS: [&str; 2] = ["svc_latency", "phase_wait"];
const TENANTS: u16 = 4;
const STEPS: usize = 1_000;

/// Every label set the stream writes under. Tenant 0 moves across three
/// WQs, so its histograms land under several labels at once.
fn label_sets() -> Vec<Labels> {
    let mut out = vec![Labels::none(), Labels::wq(0, 0), Labels::wq(0, 1), Labels::pe(0, 2)];
    for t in 0..TENANTS {
        out.push(Labels::tenant(t));
        out.push(Labels::tenant_wq(t, 0, t % 2));
    }
    out.push(Labels::tenant_wq(0, 0, 5));
    out.push(Labels::tenant_wq(0, 1, 3));
    out
}

/// The oracle's view: the live registry against a full clone taken at the
/// last mark.
fn expected_counter(now: &Metrics, was: &Metrics, name: &'static str, l: Labels) -> u64 {
    now.counter(name, l).saturating_sub(was.counter(name, l))
}

fn expected_delta(now: &DurationHistogram, was: Option<&DurationHistogram>) -> DurationHistogram {
    match was {
        Some(was) => {
            let d = now.delta_since(was);
            let naive: Vec<u64> =
                now.buckets().iter().zip(was.buckets()).map(|(a, b)| a - b).collect();
            assert_eq!(d.buckets(), &naive[..], "delta_since must subtract bucketwise");
            d
        }
        None => now.clone(),
    }
}

fn expected_histogram(
    now: &Metrics,
    was: &Metrics,
    name: &'static str,
    l: Labels,
) -> DurationHistogram {
    match now.histogram(name, l) {
        Some(h) => expected_delta(h, was.histogram(name, l)),
        None => DurationHistogram::new(),
    }
}

fn expected_tenant(now: &Metrics, was: &Metrics, name: &'static str, t: u16) -> DurationHistogram {
    let mut out = DurationHistogram::new();
    for (n, l, m) in now.iter() {
        if let (true, Metric::Histogram(h)) = (n == name && l.tenant == Some(t), m) {
            out.merge(&expected_delta(h, was.histogram(name, l)));
        }
    }
    out
}

fn assert_same(got: &DurationHistogram, want: &DurationHistogram, what: &str) {
    assert_eq!(got.buckets(), want.buckets(), "{what}: buckets");
    assert_eq!(
        (got.count(), got.sum_ps(), got.min(), got.max()),
        (want.count(), want.sum_ps(), want.min(), want.max()),
        "{what}: count, sum, min, max"
    );
    for p in [50.0, 99.0, 99.9] {
        assert_eq!(got.percentile(p), want.percentile(p), "{what}: p{p}");
    }
}

#[test]
fn incremental_window_matches_full_snapshot_oracle() {
    let labels = label_sets();
    let hub = Hub::new();
    let mut rng = SplitMix64::new(0x0B5E_12E5);
    // A few handles exist before the window and stay unwritten for a
    // while: registration alone must not make a key visible.
    hub.histogram_handle("svc_latency", Labels::tenant_wq(3, 0, 1));
    hub.counter_handle("svc_shed", Labels::tenant(2));
    hub.histogram_handle("never", Labels::tenant(1));

    let mut window = HubWindow::new(hub.clone());
    let mut was = hub.with_metrics(Metrics::clone);
    // Shadow totals per key, kept outside the registry: a handle write
    // that missed the name-keyed slot would show up here.
    let mut counted: BTreeMap<(&str, Labels), u64> = BTreeMap::new();
    let mut sampled: BTreeMap<(&str, Labels), u64> = BTreeMap::new();
    let mut marks = 0;
    let mut buf = DurationHistogram::new();
    for step in 0..STEPS {
        let l = labels[rng.next_below(labels.len() as u64) as usize];
        let by_handle = rng.next_below(2) == 0;
        match rng.next_below(16) {
            0..=5 => {
                let name = COUNTERS[rng.next_below(COUNTERS.len() as u64) as usize];
                let n = rng.next_below(5);
                if by_handle {
                    let h = hub.counter_handle(name, l);
                    hub.add(h, n);
                } else {
                    hub.counter_add(name, l, n);
                }
                *counted.entry((name, l)).or_default() += n;
            }
            6..=12 => {
                let name = HISTOGRAMS[rng.next_below(HISTOGRAMS.len() as u64) as usize];
                // Latencies from ps to tens of µs: windows span distant
                // bucket ranges, and some samples repeat exactly.
                let d = SimDuration::from_ps(rng.next_u64() >> (24 + rng.next_below(40)));
                if by_handle {
                    let h = hub.histogram_handle(name, l);
                    hub.record(h, d);
                } else {
                    hub.observe(name, l, d);
                }
                *sampled.entry((name, l)).or_default() += 1;
            }
            13 => {
                let at = SimTime::from_ns(step as u64);
                if by_handle {
                    let h = hub.series_handle("wq_depth", l);
                    hub.push(h, at, step as f64);
                } else {
                    hub.series_push("wq_depth", l, at, step as f64);
                }
            }
            _ => {
                window.mark();
                was = hub.with_metrics(Metrics::clone);
                marks += 1;
            }
        }

        hub.with_metrics(|now| {
            for &l in &labels {
                for name in COUNTERS {
                    let total = counted.get(&(name, l)).copied().unwrap_or(0);
                    assert_eq!(now.counter(name, l), total, "step {step}: {name} {l:?} total");
                    let want = expected_counter(now, &was, name, l);
                    assert_eq!(window.counter_delta(name, l), want, "step {step}: {name} {l:?}");
                }
                for name in HISTOGRAMS {
                    let samples = now.histogram(name, l).map_or(0, |h| h.count());
                    let total = sampled.get(&(name, l)).copied().unwrap_or(0);
                    assert_eq!(samples, total, "step {step}: {name} {l:?} samples");
                    let want = expected_histogram(now, &was, name, l);
                    let got = window.histogram_delta(name, l);
                    assert_same(&got, &want, &format!("step {step}: {name} {l:?}"));
                }
            }
            for t in 0..TENANTS {
                for name in HISTOGRAMS {
                    let want = expected_tenant(now, &was, name, t);
                    assert_same(
                        &window.histogram_delta_tenant(name, t),
                        &want,
                        &format!("step {step}: {name} tenant {t}"),
                    );
                    window.histogram_delta_tenant_into(name, t, &mut buf);
                    assert_same(&buf, &want, &format!("step {step}: {name} tenant {t} into"));
                }
            }
        });
    }
    assert!(marks > 50, "the stream marked only {marks} times");
    // A registration that is never written never surfaces.
    hub.with_metrics(|m| {
        assert!(m.histogram("never", Labels::tenant(1)).is_none());
        assert!(m.iter().all(|(n, _, _)| n != "never"));
    });
    assert_eq!(window.histogram_delta_tenant("never", 1).count(), 0);
}
