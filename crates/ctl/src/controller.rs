//! The governor: a deterministic SLO control loop over one
//! [`DsaService`].
//!
//! [`Governor::govern`] drives the service in fixed epochs with
//! [`DsaService::run_until`], reads *windowed* telemetry for the epoch
//! just finished (a [`HubWindow`] over the service's hub — deltas, not
//! cumulative totals), and checks the window against the service's typed
//! [`SloTarget`]. Under pressure it generates candidate reconfigurations
//! ([`crate::candidates`]), scores each — incumbent included — by
//! forking a cheap **digital twin**: a fresh `DsaService` seeded
//! deterministically from the live one, carrying the remaining (truncated)
//! per-tenant workloads under the candidate plan. The best candidate is
//! adopted through [`DsaService::transition`] only when it clears a
//! hysteresis margin over the incumbent's own twin score, which damps
//! plan thrash.
//!
//! Everything the loop reads and writes is deterministic simulation
//! state: same seed ⇒ bit-identical epoch boundaries, observations, twin
//! scores, decision sequence, and digest — across thread counts when run
//! under the fleet (each shard's governor is private to it).

use crate::candidates::candidates;
use crate::decision::{ControlReport, Decision};
use dsa_core::digest::Fnv1a;
use dsa_sim::stats::{jain_fairness, DurationHistogram};
use dsa_sim::time::{SimDuration, SimTime};
use dsa_svc::plan::{Plan, PlanSpec, TransitionCosts};
use dsa_svc::service::{DsaService, ServiceConfig};
use dsa_svc::slo::SloTarget;
use dsa_svc::tenant::QosClass;
use dsa_telemetry::metrics::Labels;
use dsa_telemetry::window::HubWindow;

/// Tuning for a [`Governor`]. All defaults are deliberately conservative:
/// the loop observes every 20 µs, ignores windows too thin to judge, and
/// demands a 10% twin-score improvement before touching the device.
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerConfig {
    /// Control epoch length on the simulated timeline.
    pub epoch: SimDuration,
    /// Minimum jobs offered inside a window before the governor will act
    /// on it (thin windows are noise, especially at the run's tail).
    pub min_window_offered: u64,
    /// Relative twin-score margin a candidate must clear over the
    /// incumbent before adoption (0.1 = 10% better).
    pub hysteresis: f64,
    /// Per-tenant job cap in the digital twin's truncated roster — the
    /// knob trading twin fidelity for control-loop cost.
    pub twin_jobs: u64,
    /// Hard cap on transitions per governed run (a stuck oscillator
    /// stops re-carving; the hysteresis margin should make this moot).
    pub max_transitions: u32,
    /// Prices charged by [`DsaService::transition`] and folded into
    /// candidate scores.
    pub costs: TransitionCosts,
    /// Governor salt folded into every twin seed, so governed runs under
    /// different controller identities explore independent twin streams.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            epoch: SimDuration::from_us(20),
            min_window_offered: 16,
            hysteresis: 0.1,
            twin_jobs: 48,
            max_transitions: 8,
            costs: TransitionCosts::default(),
            seed: 0xC7_1900D,
        }
    }
}

/// What one closed window showed: job counts, the worst per-tenant tail,
/// and windowed fairness. Pure data derived from deterministic telemetry.
#[derive(Clone, Debug)]
pub struct Observation {
    /// Jobs generated in the window.
    pub offered: u64,
    /// Jobs completed (accelerator + CPU fallback) in the window.
    pub completed: u64,
    /// Jobs shed at admission in the window.
    pub shed: u64,
    /// Completed jobs that finished past their deadline in the window.
    pub misses: u64,
    /// The worst per-tenant windowed p99 latency, when any job completed.
    pub p99: Option<SimDuration>,
    /// Jain fairness over per-tenant windowed completions.
    pub fairness: f64,
    /// Tenant with the worst windowed p99.
    pub worst_tenant: Option<usize>,
    /// Worst-p99 tenant restricted to [`QosClass::Throughput`] — the
    /// promotion candidate.
    pub worst_throughput_tenant: Option<usize>,
}

impl Observation {
    /// Reads the window deltas for every tenant of `svc`. Each tenant's
    /// window p99 is computed once, into one reused histogram buffer.
    pub fn from_window(w: &HubWindow, svc: &DsaService) -> Observation {
        let mut obs = Observation {
            offered: 0,
            completed: 0,
            shed: 0,
            misses: 0,
            p99: None,
            fairness: 1.0,
            worst_tenant: None,
            worst_throughput_tenant: None,
        };
        let mut shares = Vec::with_capacity(svc.tenant_count());
        let mut lat = DurationHistogram::new();
        let mut worst_throughput_p99 = None;
        for i in 0..svc.tenant_count() {
            let t = Labels::tenant(i as u16);
            obs.offered += w.counter_delta("svc_offered", t);
            let done = w.counter_delta("svc_jobs", t) + w.counter_delta("svc_degraded", t);
            obs.completed += done;
            shares.push(done as f64);
            obs.shed += w.counter_delta("svc_shed", t);
            obs.misses += w.counter_delta("svc_deadline_miss", t);
            w.histogram_delta_tenant_into("svc_latency", i as u16, &mut lat);
            if let Some(p99) = lat.percentile(99.0) {
                if obs.p99.is_none_or(|worst| p99 > worst) {
                    obs.p99 = Some(p99);
                    obs.worst_tenant = Some(i);
                }
                if svc.tenant_spec(i).class == QosClass::Throughput
                    && worst_throughput_p99.is_none_or(|other| p99 > other)
                {
                    worst_throughput_p99 = Some(p99);
                    obs.worst_throughput_tenant = Some(i);
                }
            }
        }
        obs.fairness = jain_fairness(&shares);
        obs
    }

    /// Deadline failures (misses + sheds) over offered jobs in the window.
    pub fn miss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.misses + self.shed) as f64 / self.offered as f64
        }
    }

    /// True when the window violates any objective in `slo`.
    pub fn pressure(&self, slo: &SloTarget) -> bool {
        if let (Some(target), Some(p99)) = (slo.p99, self.p99) {
            if p99 > target {
                return true;
            }
        }
        if let Some(frac) = slo.deadline_miss_frac {
            if self.miss_rate() > frac {
                return true;
            }
        }
        if let Some(min) = slo.min_jain {
            if self.completed > 0 && self.fairness < min {
                return true;
            }
        }
        false
    }
}

/// The deterministic control loop. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Governor {
    cfg: ControllerConfig,
}

impl Governor {
    /// A governor with the given tuning.
    pub fn new(cfg: ControllerConfig) -> Governor {
        Governor { cfg }
    }

    /// The tuning in force.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Drives `svc` to completion in epochs, re-planning under SLO
    /// pressure, and returns the final report plus the decision sequence.
    ///
    /// A service with no [`SloTarget`] is driven identically but never
    /// re-planned: the step sequence — and therefore the digest — matches
    /// an ungoverned [`DsaService::run`] bit for bit.
    pub fn govern(&self, svc: &mut DsaService) -> ControlReport {
        let hub = svc.trace();
        let mut window = HubWindow::new(hub);
        let slo = svc.slo().copied();
        let mut decisions = Vec::new();
        let mut epochs = 0u32;
        let mut until = match svc.next_ready() {
            Some(t) => t + self.cfg.epoch,
            None => return ControlReport { report: svc.report(), decisions, epochs },
        };
        loop {
            svc.run_until(until);
            epochs += 1;
            if let Some(slo) = &slo {
                let obs = Observation::from_window(&window, svc);
                if obs.offered >= self.cfg.min_window_offered
                    && svc.transitions() < self.cfg.max_transitions
                    && obs.pressure(slo)
                {
                    if let Some(d) = self.replan(svc, &obs, epochs) {
                        decisions.push(d);
                    }
                }
            }
            window.mark();
            match svc.next_ready() {
                Some(t) => until = t.max(until) + self.cfg.epoch,
                None => break,
            }
        }
        ControlReport { report: svc.report(), decisions, epochs }
    }

    /// One re-plan evaluation: candidates → twin scores → hysteresis →
    /// (maybe) transition. Returns `None` when there was nothing to score.
    fn replan(&self, svc: &mut DsaService, obs: &Observation, epoch: u32) -> Option<Decision> {
        let cands = candidates(svc, obs);
        if cands.is_empty() {
            return None;
        }
        let incumbent = svc.plan().clone();
        let incumbent_score = self.twin_score(svc, &incumbent, epoch, 0.0)?;
        let mut best: Option<(Plan, f64)> = None;
        for p in cands {
            // Candidates pay the transition stall the live service would;
            // the incumbent pays nothing. Moved-tenant count is unknown
            // before assignment, so price the worst case (every tenant).
            let delta = incumbent.diff(&p);
            let stall = delta.cost(&self.cfg.costs, svc.tenant_count() as u64).as_ns_f64() * 1e-9;
            let Some(score) = self.twin_score(svc, &p, epoch, stall) else { continue };
            if best.as_ref().is_none_or(|(_, b)| score.total_cmp(b).is_lt()) {
                best = Some((p, score));
            }
        }
        let (plan, score) = best?;
        let at = svc.runtime().now();
        let margin = self.cfg.hysteresis * incumbent_score.abs();
        let adopted = score + margin < incumbent_score;
        let (moved, ready) = if adopted {
            let tr = svc.transition(plan.clone(), &self.cfg.costs);
            (tr.moved, tr.ready)
        } else {
            (0, at)
        };
        Some(Decision {
            epoch,
            at,
            from: incumbent.label().to_string(),
            to: plan.label().to_string(),
            incumbent_score,
            score,
            adopted,
            moved,
            ready,
        })
    }

    /// Scores `plan` by running a digital twin: a fresh service over the
    /// live tenants' *remaining* workloads (truncated to
    /// [`twin_jobs`](ControllerConfig::twin_jobs) each, starts zeroed),
    /// seeded deterministically from (controller salt, service seed,
    /// epoch, plan label). Lower is better: windowed deadline-failure
    /// rate dominates, then unfairness, then twin makespan plus the
    /// candidate's priced transition stall (`stall_s`, seconds).
    fn twin_score(&self, svc: &DsaService, plan: &Plan, epoch: u32, stall_s: f64) -> Option<f64> {
        let mut roster = Vec::new();
        for i in 0..svc.tenant_count() {
            let remaining = svc.remaining_jobs(i);
            if remaining == 0 {
                continue;
            }
            let mut spec = svc.tenant_spec(i).clone();
            spec.jobs = remaining.min(self.cfg.twin_jobs);
            spec.start = SimDuration::ZERO;
            roster.push(spec);
        }
        if roster.is_empty() {
            return None;
        }
        let mut h = Fnv1a::new();
        h.write_u64(self.cfg.seed);
        h.write_u64(svc.seed());
        h.write_u64(u64::from(epoch));
        h.write(plan.label().as_bytes());
        let cfg = ServiceConfig::builder()
            .plan(PlanSpec::Fixed(plan.clone()))
            .seed(h.finish())
            .platform(svc.runtime().platform().clone())
            .location(svc.location())
            .tenants(roster)
            .build()
            .ok()?;
        let mut twin = DsaService::from_config(cfg).ok()?;
        let rep = twin.run();
        let makespan_s = (rep.makespan - SimTime::ZERO).as_ns_f64() * 1e-9;
        Some(rep.deadline_miss_rate() * 1000.0 + (1.0 - rep.fairness) * 10.0 + makespan_s + stall_s)
    }
}
