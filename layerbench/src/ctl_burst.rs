//! `ctl_burst`: the churn+burst roster of the `ctl_churn` bench under
//! `Governor::govern` with that bench's `SloTarget` and 10 µs epochs.
//!
//! Most host time goes to re-plan rounds: each round forks fresh
//! `DsaService` twins, and every twin pays `MemSystem::new`. Its
//! simulated outcome depends on the governor's decisions, and those flip
//! with the service seed (the deadline-miss rate ranges from 0.035 to
//! 0.48 over seeds 1–16), so no bound on its end-to-end figures holds
//! across seeds. It runs only in the traced breakdown, as the control
//! plane's suite.

use crate::host::{now_ns, secs_since, Tracer};
use crate::pass::{deadline_p99_us, gbps, service_totals, Metrics, Pass, Sim};
use crate::stats::Gen;
use dsa_ctl::prelude::*;
use dsa_svc::prelude::*;

/// The latency class's deadline and the SLO's p99 target.
const LAT_DEADLINE: SimDuration = SimDuration::from_us(60);
/// Per-tenant job multiplier of the `ctl_churn` roster: half that
/// bench's, to keep a traced round short.
const SCALE: u64 = 2;

/// 4 latency tenants (4 KiB, open loop, 60 µs deadline), 2 bulk streams
/// (64 KiB, open loop) and 2 deep-queued 512 KiB aggressors that land a
/// third of the way in. The seed draws the service seed.
fn config(seed: u64, slo: bool) -> ServiceConfig {
    let mut specs = Vec::new();
    for i in 0..4 {
        specs.push(
            TenantSpec::new(&format!("lat{i}"), 4 << 10, 240 * SCALE)
                .with_class(QosClass::Latency)
                .with_deadline(LAT_DEADLINE)
                .with_arrival(Arrival::open(SimDuration::from_ns(3_500))),
        );
    }
    for i in 0..2 {
        specs.push(
            TenantSpec::new(&format!("bulk{i}"), 64 << 10, 120 * SCALE)
                .with_arrival(Arrival::open(SimDuration::from_us(12))),
        );
    }
    for i in 0..2 {
        specs.push(
            TenantSpec::new(&format!("agg{i}"), 512 << 10, 12)
                .with_start(SimDuration::from_us(225 * SCALE))
                .with_outstanding(8)
                .with_arrival(Arrival::closed(SimDuration::ZERO)),
        );
    }
    let mut b = ServiceConfig::builder()
        .plan(PlanSpec::Shared)
        .seed(Gen::new(seed ^ 0xC7_B125).next_u64())
        .tenants(specs);
    if slo {
        b = b.slo(SloTarget::new().with_p99(LAT_DEADLINE).with_deadline_miss_frac(0.02));
    }
    b.build().expect("the ctl_burst roster is valid")
}

fn governor() -> Governor {
    Governor::new(ControllerConfig {
        epoch: SimDuration::from_us(10),
        ..ControllerConfig::default()
    })
}

/// One governed run; with `slo` false the same service under a governor
/// that never re-plans.
fn run(seed: u64, slo: bool, tr: &mut Tracer) -> (Pass, ControlReport) {
    let t0 = now_ns();
    let cfg = tr.span("layerbench.config", || config(seed, slo));
    let mut svc = tr.span("svc.DsaService::from_config", || {
        DsaService::from_config(cfg).expect("the ctl_burst roster builds")
    });
    let setup_s = secs_since(t0);
    let t1 = now_ns();
    let ctl = tr.span("ctl.Governor::govern", || governor().govern(&mut svc));
    let run_s = secs_since(t1);
    let mut problems = Vec::new();
    let t = service_totals(&svc, &ctl.report, &mut problems);
    let pass = Pass {
        setup_s,
        run_s,
        offered: t.offered,
        completed: t.completed,
        failed: t.failed,
        digest: ctl.digest(),
        sim: Sim {
            gbps: gbps(t.bytes, ctl.report.makespan.as_ps()),
            p99_us: deadline_p99_us(&svc),
            miss_rate: ctl.report.deadline_miss_rate(),
            jain: ctl.report.fairness,
        },
        problems,
    };
    (pass, ctl)
}

/// An untraced governed pass, the same service under a governor with no
/// SLO, and a traced governed pass: the `dsa-ctl` layer metrics.
pub fn layers(seed: u64, tr: &mut Tracer, out: &mut Metrics) -> (Pass, Pass) {
    let (untraced, ctl) = run(seed, true, &mut Tracer::off());
    let (plain, _) = run(seed, false, &mut Tracer::off());
    let (traced, _) = run(seed, true, tr);
    let decisions = ctl.decisions.len() as f64;
    let overhead_s = (untraced.run_s - plain.run_s).max(0.0);
    out.put("ctl.decisions", decisions, "count");
    out.put("ctl.transitions", ctl.transitions() as f64, "count");
    out.put("ctl.epochs", f64::from(ctl.epochs), "count");
    out.put("ctl.adopt_ratio", ctl.transitions() as f64 / decisions.max(1.0), "ratio");
    out.put("ctl.overhead_share", overhead_s / untraced.run_s.max(1e-9), "ratio");
    out.put("ctl.ms_per_decision", overhead_s * 1e3 / decisions.max(1.0), "ms");
    (untraced, traced)
}
