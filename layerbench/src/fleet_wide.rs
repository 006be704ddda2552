//! `fleet_wide`: a `Fleet` of 2 sockets × 4 devices × 32 shards running
//! tens of thousands of small tenants with a few jobs each.
//!
//! It loads the service layer the other way round from `svc_observed`:
//! many tenants with few jobs each. Host time goes to per-shard
//! construction, per-tenant buffer allocation, the action queue over
//! hundreds of tenants per shard and the fork-join. Peak memory grows
//! with the tenant count. There is no hub and no governor.

use crate::host::{now_ns, secs_since, Tracer};
use crate::pass::{gbps, Metrics, Pass, Sim};
use crate::stats::Gen;
use dsa_svc::prelude::*;

const SOCKETS: u32 = 2;
const DEVICES_PER_SOCKET: u32 = 4;
const SHARDS: u32 = 32;
/// Tenants: 20 000 ± 256, the offset drawn from the seed.
const TENANTS: u64 = 19_744;
const TENANT_SPREAD: u64 = 513;

/// Worker threads: one per host core, never more than the shards.
pub fn threads(nproc: usize) -> usize {
    nproc.clamp(1, SHARDS as usize)
}

/// The `fleet_scale` bench's tenant: 2 KiB jobs, 2 per tenant, closed
/// loop at depth 4, every 4th tenant latency-class. Every tenant carries
/// the deadline (the profile is one template for all tenants); at 40 µs
/// the opening burst of each shard sheds or misses about half its jobs.
fn profile() -> TenantProfile {
    let mut p = TenantProfile::small();
    p.deadline = Some(SimDuration::from_us(40));
    p.latency_every = 4;
    p
}

/// NUMA-local placement. The seed draws the tenant count and the fleet
/// seed, from which every shard seed is split.
fn config(seed: u64) -> FleetConfig {
    let mut g = Gen::new(seed ^ 0xF1EE_7000);
    FleetConfig::builder()
        .sockets(SOCKETS)
        .devices_per_socket(DEVICES_PER_SOCKET)
        .shards(SHARDS)
        .tenants(TENANTS + g.below(TENANT_SPREAD))
        .placement(PoolPolicy::NumaLocal)
        .seed(g.next_u64())
        .profile(profile())
        .build()
        .expect("the fleet_wide shape is valid")
}

fn finish(fleet: &Fleet, rep: &FleetReport, setup_s: f64, run_s: f64) -> Pass {
    let mut problems = Vec::new();
    let mut failed = 0;
    for s in &rep.shards {
        let done = s.dsa_completed + s.cpu_completed;
        if s.offered != done + s.shed + s.failed {
            problems.push(format!(
                "shard {}: offered {} != completed {} + shed {} + failed {}",
                s.shard, s.offered, done, s.shed, s.failed
            ));
        }
        failed += s.failed;
    }
    let p = profile();
    let jobs = fleet.config().tenants() * p.jobs;
    if rep.offered() != jobs {
        problems.push(format!("fleet offered {} of {jobs} jobs", rep.offered()));
    }
    Pass {
        setup_s,
        run_s,
        offered: rep.offered(),
        completed: rep.completed(),
        failed,
        digest: rep.digest,
        sim: Sim {
            gbps: gbps(rep.completed() * p.xfer, rep.makespan.as_ps()),
            // Every tenant carries a deadline, so the fleet-wide
            // distribution is the deadline-carrying one.
            p99_us: rep.latency.percentile(99.0).map_or(0.0, |d| d.as_ps() as f64 / 1e6),
            miss_rate: rep.deadline_miss_rate(),
            jain: rep.fairness,
        },
        problems,
    }
}

fn build(seed: u64, tr: &mut Tracer) -> (Fleet, f64) {
    let t0 = now_ns();
    let cfg = tr.span("layerbench.config", || config(seed));
    let fleet = tr.span("svc.Fleet::new", || Fleet::new(cfg));
    (fleet, secs_since(t0))
}

pub fn pass(seed: u64, tr: &mut Tracer) -> Pass {
    let (fleet, setup_s) = build(seed, tr);
    let threads = threads(crate::host::nproc());
    let t0 = now_ns();
    let rep = tr.span("svc.Fleet::run_parallel", || fleet.run_parallel(threads));
    let run_s = secs_since(t0);
    let rep = rep.expect("every fleet_wide shard builds");
    finish(&fleet, &rep, setup_s, run_s)
}

/// One shard built and run on a worker: its report and the host times
/// (ns) it started, finished building and finished running.
type TimedShard = (ShardReport, [u64; 3]);

/// The traced pass: the fork-join of `Fleet::map_shards` (contiguous
/// shard chunks, one per worker, merged in shard order) with each
/// shard's `Fleet::shard_service` and `DsaService::run` timed on its
/// worker and recorded as spans afterwards.
fn traced_shards(fleet: &Fleet, threads: usize) -> Vec<TimedShard> {
    let n = fleet.shard_count();
    let chunk = n.div_ceil(threads.max(1));
    let run_chunk = |lo: usize| -> Vec<TimedShard> {
        (lo..(lo + chunk).min(n))
            .map(|i| {
                let t0 = now_ns();
                let mut svc = fleet.shard_service(i).expect("every fleet_wide shard builds");
                let t1 = now_ns();
                let rep = svc.run();
                let t2 = now_ns();
                (ShardReport::from_service(fleet.shard_assignment(i), &svc, &rep), [t0, t1, t2])
            })
            .collect()
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..n).step_by(chunk).map(|lo| scope.spawn(move || run_chunk(lo))).collect();
        workers.into_iter().flat_map(|w| w.join().expect("a shard worker panicked")).collect()
    })
}

/// An untraced parallel pass, then the traced fork-join over the same
/// inputs, merged into the same report: the fleet layer metrics.
pub fn layers(seed: u64, tr: &mut Tracer, out: &mut Metrics) -> (Pass, Pass) {
    let untraced = pass(seed, &mut Tracer::off());
    let (fleet, setup_s) = build(seed, tr);
    let threads = threads(crate::host::nproc());
    let t0 = now_ns();
    let s = tr.enter("svc.Fleet::run_parallel");
    let timed = traced_shards(&fleet, threads);
    let mut shards = Vec::with_capacity(timed.len());
    let (mut build_ns, mut run_ns) = (0.0, Vec::new());
    for (rep, [a, b, c]) in timed {
        tr.record("svc.Fleet::shard_service", a, b);
        tr.record("svc.DsaService::run", b, c);
        build_ns += (b - a) as f64;
        run_ns.push((c - b) as f64);
        shards.push(rep);
    }
    let rep = FleetReport::from_shards(fleet.config().placement(), shards);
    tr.exit(s);
    let traced = finish(&fleet, &rep, setup_s, secs_since(t0));
    let n = run_ns.len().max(1) as f64;
    let mean_run = run_ns.iter().sum::<f64>() / n;
    let shard_s = (build_ns + run_ns.iter().sum::<f64>()) * 1e-9;
    out.put("svc.shard_build_ms", build_ns / n / 1e6, "ms");
    out.put("svc.shard_run_ms", mean_run / 1e6, "ms");
    out.put(
        "svc.shard_straggler",
        run_ns.iter().copied().fold(0.0, f64::max) / mean_run.max(1.0),
        "ratio",
    );
    out.put(
        "svc.parallel_efficiency",
        shard_s / (threads as f64 * untraced.run_s).max(1e-9),
        "ratio",
    );
    (untraced, traced)
}
