//! `svc_observed`: one `DsaService` on the shared plan, 8 memmove tenants,
//! driven in fixed simulated epochs with a telemetry hub attached and a
//! `HubWindow` read every epoch.
//!
//! This is the loop `Governor::govern` runs for a service without an
//! `SloTarget`, and it replays the plain `DsaService::run` digest. Host
//! time goes to the descriptor path, the timeline resources behind the
//! memory model and the telemetry hub. Construction is paid once and
//! there are no twins and no shards.

use crate::host::{now_ns, secs_since, Tracer};
use crate::pass::{deadline_p99_us, gbps, service_totals, Metrics, Pass, Sim};
use crate::stats::{cost_growth, Gen};
use dsa_ctl::prelude::Observation;
use dsa_svc::prelude::*;
use dsa_telemetry::{Hub, HubWindow};

/// Control-epoch length: the `Governor` default.
const EPOCH: SimDuration = SimDuration::from_us(20);
/// Jobs per latency-class tenant.
const LAT_JOBS: u64 = 5_000;
/// Jobs per throughput-class tenant.
const THR_JOBS: u64 = 2_500;

/// The roster. Four latency-class open loops (256 B–4 KiB, 4 µs mean
/// gap, 4.5 µs deadline) beside four throughput-class closed loops
/// (16–64 KiB, depth 4, 2 µs think). The offered load sits below what
/// the four shared engines sustain, so queues form without the backlog
/// growing. The seed permutes sizes over tenants and draws the service
/// seed, from which every arrival stream is split.
fn config(seed: u64) -> ServiceConfig {
    let mut g = Gen::new(seed ^ 0x5E2F_0B5E);
    let mut lat_sizes = [256u64, 1 << 10, 2 << 10, 4 << 10];
    let mut thr_sizes = [16u64 << 10, 32 << 10, 64 << 10, 64 << 10];
    g.shuffle(&mut lat_sizes);
    g.shuffle(&mut thr_sizes);
    let mut specs = Vec::new();
    for (i, &xfer) in lat_sizes.iter().enumerate() {
        specs.push(
            TenantSpec::new(&format!("lat{i}"), xfer, LAT_JOBS)
                .with_class(QosClass::Latency)
                .with_deadline(SimDuration::from_ns(4_500))
                .with_arrival(Arrival::open(SimDuration::from_us(4))),
        );
    }
    for (i, &xfer) in thr_sizes.iter().enumerate() {
        specs.push(
            TenantSpec::new(&format!("thr{i}"), xfer, THR_JOBS)
                .with_outstanding(4)
                .with_arrival(Arrival::closed(SimDuration::from_us(2))),
        );
    }
    ServiceConfig::builder()
        .plan(PlanSpec::Shared)
        .seed(g.next_u64())
        .tenants(specs)
        .build()
        .expect("the svc_observed roster is valid")
}

/// What [`drive`] measured. Costs are recorded only when tracing.
#[derive(Default)]
struct Drive {
    epochs: u64,
    /// Per epoch: `(host ns in run_until, service steps taken)`.
    costs: Vec<(u64, u64)>,
    /// Host ns spent reading and re-anchoring the window.
    window_ns: u64,
    hub: Option<Hub>,
}

/// Drives `svc` to completion in fixed epochs, as `Governor::govern`
/// does. With `observe` a hub is attached and each epoch reads a
/// `HubWindow` observation and re-anchors the window; without it the
/// same epochs run bare.
fn drive(svc: &mut DsaService, tr: &mut Tracer, observe: bool) -> Drive {
    let hub = observe.then(|| svc.trace());
    let mut window = hub.clone().map(HubWindow::new);
    let mut d = Drive { hub, ..Drive::default() };
    let Some(first) = svc.next_ready() else { return d };
    let mut until = first + EPOCH;
    loop {
        let s = tr.enter("svc.DsaService::run_until");
        let steps = svc.run_until(until);
        let ns = tr.exit(s);
        if tr.enabled() {
            d.costs.push((ns, steps));
        }
        d.epochs += 1;
        if let Some(w) = window.as_mut() {
            let s = tr.enter("ctl.Observation::from_window");
            std::hint::black_box(Observation::from_window(w, svc));
            d.window_ns += tr.exit(s);
            let s = tr.enter("telemetry.HubWindow::mark");
            w.mark();
            d.window_ns += tr.exit(s);
        }
        match svc.next_ready() {
            Some(t) => until = t.max(until) + EPOCH,
            None => break,
        }
    }
    d
}

/// Builds the service from `seed`'s inputs: set-up seconds and the host
/// ns of `DsaService::from_config` (0 untraced).
fn build(seed: u64, tr: &mut Tracer) -> (DsaService, f64, u64) {
    let t0 = now_ns();
    let cfg = tr.span("layerbench.config", || config(seed));
    let s = tr.enter("svc.DsaService::from_config");
    let svc = DsaService::from_config(cfg).expect("the svc_observed roster builds");
    let build_ns = tr.exit(s);
    (svc, secs_since(t0), build_ns)
}

fn run(seed: u64, tr: &mut Tracer, observe: bool) -> (Pass, DsaService, Drive, u64) {
    let (mut svc, setup_s, build_ns) = build(seed, tr);
    let t0 = now_ns();
    let d = drive(&mut svc, tr, observe);
    let run_s = secs_since(t0);
    (finish(&svc, setup_s, run_s), svc, d, build_ns)
}

pub fn pass(seed: u64, tr: &mut Tracer) -> Pass {
    run(seed, tr, true).0
}

fn finish(svc: &DsaService, setup_s: f64, run_s: f64) -> Pass {
    let rep = svc.report();
    let mut problems = Vec::new();
    let t = service_totals(svc, &rep, &mut problems);
    Pass {
        setup_s,
        run_s,
        offered: t.offered,
        completed: t.completed,
        failed: t.failed,
        digest: rep.digest(),
        sim: Sim {
            gbps: gbps(t.bytes, rep.makespan.as_ps()),
            p99_us: deadline_p99_us(svc),
            miss_rate: rep.deadline_miss_rate(),
            jain: rep.fairness,
        },
        problems,
    }
}

/// An untraced pass, the same inputs with no hub, and a traced pass:
/// the `dsa-sim` timeline, `dsa-telemetry` and `dsa-svc` layer metrics.
/// Returns the untraced and the traced pass.
pub fn layers(seed: u64, tr: &mut Tracer, out: &mut Metrics) -> (Pass, Pass) {
    let untraced = pass(seed, &mut Tracer::off());
    let (bare, ..) = run(seed, &mut Tracer::off(), false);
    let (mut traced, svc, d, build_ns) = run(seed, tr, true);
    if bare.digest != untraced.digest {
        traced.problems.push("the hub-off replay changed the digest".to_string());
    }
    let rep = svc.report();
    let t = service_totals(&svc, &rep, &mut Vec::new());
    let jobs = t.completed.max(1) as f64;
    let run_ns: u64 = d.costs.iter().map(|c| c.0).sum();
    let events = d.hub.as_ref().map_or(0, |h| h.event_count());
    out.put("sim.cost_growth.svc", cost_growth(&d.costs), "ratio");
    out.put("telemetry.hub_on_ratio", untraced.run_s / bare.run_s.max(1e-9), "ratio");
    out.put(
        "telemetry.window_us_per_epoch",
        d.window_ns as f64 / 1e3 / d.epochs.max(1) as f64,
        "us",
    );
    out.put("telemetry.events_per_job", events as f64 / jobs, "count");
    out.put("svc.build_ms", build_ns as f64 / 1e6, "ms");
    out.put("svc.ns_per_job", run_ns as f64 / jobs, "ns");
    out.put(
        "svc.attempt_yield",
        t.dsa_completed as f64 / (t.completed + t.retries).max(1) as f64,
        "ratio",
    );
    crate::device_ops::device_layers(svc.runtime(), rep.makespan.as_ps(), "svc", out);
    (untraced, traced)
}
