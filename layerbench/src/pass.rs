//! What one pass of a workload yields, and the metric sink.

use dsa_svc::prelude::{DsaService, ServiceReport};

/// Model outputs of a pass. They repeat bit for bit for one input; a
/// speed-only change to the simulator must leave them identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sim {
    /// Bytes completed ÷ simulated makespan (GB/s).
    pub gbps: f64,
    /// p99 simulated latency (µs); what it spans is per workload.
    pub p99_us: f64,
    /// Deadline failures ÷ offered.
    pub miss_rate: f64,
    /// Jain fairness index.
    pub jain: f64,
}

/// One pass: generated inputs built, run to completion, checked.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds from generated inputs to the first simulated job.
    pub setup_s: f64,
    /// Host seconds of the run itself.
    pub run_s: f64,
    /// Simulated jobs offered.
    pub offered: u64,
    /// Simulated jobs completed (accelerator + CPU fallback).
    pub completed: u64,
    /// Jobs the model reports failed.
    pub failed: u64,
    /// Replay digest of the pass's outcome.
    pub digest: u64,
    pub sim: Sim,
    /// Broken invariants; any entry fails the run.
    pub problems: Vec<String>,
}

impl Pass {
    pub fn jobs_per_s(&self) -> f64 {
        self.completed as f64 / self.run_s.max(1e-9)
    }
}

/// Named metrics with their units, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Jobs, bytes and model failures of a finished service, with every
/// tenant's offered = completed + shed + failed balance checked.
pub fn service_totals(svc: &DsaService, rep: &ServiceReport, problems: &mut Vec<String>) -> Totals {
    let mut t = Totals::default();
    for (i, r) in rep.tenants.iter().enumerate() {
        let st = svc.stats(i);
        let done = r.dsa_completed + r.cpu_completed;
        if r.offered != done + r.shed + r.failed {
            problems.push(format!(
                "tenant {}: offered {} != completed {} + shed {} + failed {}",
                r.name, r.offered, done, r.shed, r.failed
            ));
        }
        if r.offered != svc.tenant_spec(i).jobs {
            problems.push(format!(
                "tenant {}: offered {} of {} jobs",
                r.name,
                r.offered,
                svc.tenant_spec(i).jobs
            ));
        }
        t.offered += r.offered;
        t.completed += done;
        t.failed += r.failed;
        t.retries += r.retries;
        t.dsa_completed += r.dsa_completed;
        t.bytes += st.dsa_bytes + st.cpu_bytes;
    }
    t
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub offered: u64,
    pub completed: u64,
    pub dsa_completed: u64,
    pub failed: u64,
    pub retries: u64,
    pub bytes: u64,
}

/// p99 arrival→completion latency (µs) over the tenants that carry a
/// deadline, from their merged latency histograms.
pub fn deadline_p99_us(svc: &DsaService) -> f64 {
    let mut merged = None;
    for i in 0..svc.tenant_count() {
        if svc.tenant_spec(i).deadline.is_none() {
            continue;
        }
        let h = &svc.stats(i).latency;
        match merged.as_mut() {
            None => merged = Some(h.clone()),
            Some(m) => m.merge(h),
        }
    }
    merged.and_then(|m| m.percentile(99.0)).map_or(0.0, |d| d.as_ps() as f64 / 1e6)
}

/// Bytes per picosecond × 1000 = GB/s.
pub fn gbps(bytes: u64, makespan_ps: u64) -> f64 {
    if makespan_ps == 0 {
        0.0
    } else {
        bytes as f64 / makespan_ps as f64 * 1000.0
    }
}
