//! simperf — self-benchmark of the discrete-event simulation core.
//!
//! Every figure reproduction in this workspace is bottlenecked by how fast
//! `dsa_sim::engine::Engine` can pop events, so the simulator's own
//! throughput is a tracked artifact: this bench runs two deterministic
//! workloads under BOTH `Scheduler` impls (reference binary heap vs the
//! calendar queue the engine defaults to), reports events/sec, and writes
//! `BENCH_simperf.json` at the repo root for the perf trajectory.
//!
//! Workloads:
//! * **event_storm** — 32 Ki standing messages hopping between 64
//!   components with pseudo-random (seeded) delays spread across the
//!   calendar ring, plus an occasional far-future hop into the overflow
//!   heap. This is the pure scheduler stress: the heap pays O(log n) per
//!   event at n ≈ 32 Ki, the calendar queue stays O(1) amortized.
//! * **pe_scaling** — a fig07-shaped closed-loop offload cluster (sources
//!   keep a fixed queue depth per processing engine, completions trigger
//!   the next submission), i.e. what the real sweeps look like.
//! * **bw_backfill** — one `BwResource` pipe (the timeline resource every
//!   fabric, DRAM, UPI and LLC reservation goes through), warmed with
//!   interleaved early- and late-ready transfers until its backfill gap
//!   list sits at the `MAX_GAPS` cap, then timed in transfers/s at that
//!   steady state. No engine is involved; its lane is tagged `bw-resource`.
//! * **svc_hub** — one `DsaService` with eight memmove tenants (four
//!   open-loop latency, four closed-loop throughput) driven to completion
//!   in 20 µs epochs, the loop `Governor::govern` runs. Lane `off` runs it
//!   bare; lane `on` attaches a telemetry hub and reads an `Observation`
//!   from a `HubWindow` every epoch. Both report jobs/s; their ratio is
//!   what telemetry costs a job.
//!
//! Invariants checked on every run: both schedulers process the same event
//! count and fold the same FNV-1a digest — the speed-up is free of
//! behavioural drift — and both `svc_hub` lanes replay the same service
//! report digest, so the hub observes without steering. The calendar
//! queue must beat the heap on the storm. Every lane's digest is gated by
//! `scripts/perfgate`.

use dsa_bench::{host, table};
use dsa_core::digest::Fnv1a;
use dsa_ctl::prelude::Observation;
use dsa_sim::engine::{Component, ComponentId, Ctx, Engine};
use dsa_sim::rng::SplitMix64;
use dsa_sim::sched::{CalendarScheduler, HeapScheduler, Scheduler};
use dsa_sim::time::{SimDuration, SimTime};
use dsa_sim::timeline::{BwResource, MAX_GAPS};
use dsa_svc::prelude::{Arrival, DsaService, PlanSpec, QosClass, ServiceConfig, TenantSpec};
use dsa_telemetry::HubWindow;

/// Wall-clock seconds elapsed while running `f` — the one deliberately
/// nondeterministic probe in the bench suite; everything it times is
/// bit-reproducible.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // dsa-lint: allow(nondeterminism, self-benchmark measures real wall time)
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Shared state of both workloads: the replay digest.
type Digest = Fnv1a;

// ---------------------------------------------------------------- storm --

const STORM_PEERS: usize = 64;
const STORM_POPULATION: u64 = 32 * 1024;
const STORM_HOPS: u32 = 10;

/// A message is (remaining hops, lane); each hop re-sends to a seeded
/// pseudo-random peer after a delay spread across the calendar ring, with
/// a 1/64 chance of a far-future hop that lands in the overflow heap.
struct StormNode {
    rng: SplitMix64,
    peers: u64,
}

impl Component<(u32, u64), Digest> for StormNode {
    fn handle(&mut self, (hops, lane): (u32, u64), ctx: &mut Ctx<'_, (u32, u64)>, d: &mut Digest) {
        d.write_u64(ctx.now().as_ps());
        d.write_u64(lane);
        if hops == 0 {
            return;
        }
        let r = self.rng.next_u64();
        let target = ComponentId::from_index((r % self.peers) as usize);
        let delay_ps = if r & 0x3F == 0 {
            // Far future: past the ring horizon, exercises the overflow path.
            20_000_000 + (r >> 32) % 180_000_000
        } else {
            (r >> 16) % 16_000_000
        };
        ctx.send(SimDuration::from_ps(delay_ps), target, (hops - 1, lane));
    }
}

fn run_storm<Q: Scheduler<(u32, u64)>>(sched: Q) -> (u64, u64) {
    let mut eng: Engine<(u32, u64), Digest, Q> = Engine::with_scheduler(Fnv1a::new(), sched);
    for i in 0..STORM_PEERS {
        eng.add(StormNode { rng: SplitMix64::new(0x57083 + i as u64), peers: STORM_PEERS as u64 });
    }
    for lane in 0..STORM_POPULATION {
        let target = ComponentId::from_index((lane % STORM_PEERS as u64) as usize);
        eng.post(SimTime::from_ps(lane), target, (STORM_HOPS, lane));
    }
    eng.run();
    (eng.events_processed(), eng.shared().clone().finish())
}

// ----------------------------------------------------------- pe_scaling --

const PE_COUNT: usize = 8;
const PE_QUEUE_DEPTH: u32 = 16;
const PE_JOBS: u64 = 120_000;

enum PeMsg {
    /// Submit one job to the PE (carries the job's transfer size in KiB).
    Job(u64),
    /// PE finished a job; the source refills the slot.
    Done(u64),
}

/// Closed-loop source: keeps `PE_QUEUE_DEPTH` jobs outstanding per PE and
/// refills on every completion until the job budget runs out (fig07 shape).
struct PeSource {
    pes: Vec<ComponentId>,
    next: usize,
    remaining: u64,
    rng: SplitMix64,
}

impl PeSource {
    fn submit(&mut self, ctx: &mut Ctx<'_, PeMsg>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let pe = self.pes[self.next % self.pes.len()];
        self.next += 1;
        let kib = 4 + self.rng.next_u64() % 60; // 4..64 KiB transfers
        ctx.send(SimDuration::ZERO, pe, PeMsg::Job(kib));
    }
}

impl Component<PeMsg, Digest> for PeSource {
    fn handle(&mut self, msg: PeMsg, ctx: &mut Ctx<'_, PeMsg>, d: &mut Digest) {
        match msg {
            PeMsg::Done(kib) => {
                d.write_u64(ctx.now().as_ps());
                d.write_u64(kib);
                self.submit(ctx);
            }
            PeMsg::Job(_) => unreachable!("the source only sees completions"),
        }
    }
}

/// Processing engine with a fixed per-KiB service time; completions carry
/// the size back to the source.
struct PeEngine {
    source: ComponentId,
    busy_until: SimTime,
}

impl Component<PeMsg, Digest> for PeEngine {
    fn handle(&mut self, msg: PeMsg, ctx: &mut Ctx<'_, PeMsg>, _d: &mut Digest) {
        if let PeMsg::Job(kib) = msg {
            let service = SimDuration::from_ps(35_000 * kib);
            let start = self.busy_until.max(ctx.now());
            self.busy_until = start + service;
            let delay = SimDuration::from_ps(self.busy_until.as_ps() - ctx.now().as_ps());
            ctx.send(delay, self.source, PeMsg::Done(kib));
        }
    }
}

fn run_pe_scaling<Q: Scheduler<PeMsg>>(sched: Q) -> (u64, u64) {
    let mut eng: Engine<PeMsg, Digest, Q> = Engine::with_scheduler(Fnv1a::new(), sched);
    let source = ComponentId::from_index(0);
    let mut src = PeSource {
        pes: (1..=PE_COUNT).map(ComponentId::from_index).collect(),
        next: 0,
        remaining: PE_JOBS,
        rng: SplitMix64::new(0xF1607),
    };
    // Prime the closed loop: queue-depth jobs per PE, staggered by 1 ps so
    // the seed order is explicit.
    let mut primed = Vec::new();
    for _ in 0..PE_QUEUE_DEPTH * PE_COUNT as u32 {
        src.remaining -= 1;
        let pe = src.pes[src.next % src.pes.len()];
        src.next += 1;
        primed.push((pe, 4 + src.rng.next_u64() % 60));
    }
    eng.add(src);
    for _ in 0..PE_COUNT {
        eng.add(PeEngine { source, busy_until: SimTime::ZERO });
    }
    for (i, (pe, kib)) in primed.into_iter().enumerate() {
        eng.post(SimTime::from_ps(i as u64), pe, PeMsg::Job(kib));
    }
    eng.run();
    (eng.events_processed(), eng.shared().clone().finish())
}

// ---------------------------------------------------------- bw_backfill --

/// Transfers that fill the gap list to its cap before timing starts.
const BW_WARM: u64 = 16_384;
const BW_TIMED: u64 = 200_000;
/// A 30 GB/s pipe, the DSA fabric cap; 64 B move in ≈2.1 ns.
const BW_MGBPS: u64 = 30_000;
const BW_GRID_PS: u64 = 2_048;

/// One seeded request against the pipe's current tail: 3/8 ready early
/// (up to 4096 grid steps back, so first fit searches deep into the gap
/// list), 4/8 ready just past the tail (each opens a small gap), 1/8
/// ready at the tail. Sizes are 64–384 B.
fn bw_request(rng: &mut SplitMix64, tail: SimTime) -> (SimTime, u64) {
    let r = rng.next_below(8);
    let ready = if r < 3 {
        SimTime::from_ps(tail.as_ps().saturating_sub(BW_GRID_PS * rng.next_below(4_096)))
    } else if r < 7 {
        tail + SimDuration::from_ps(BW_GRID_PS * (1 + rng.next_below(3)))
    } else {
        tail
    };
    (ready, 64 * (1 + rng.next_below(6)))
}

/// Warms a pipe to the gap cap, then times `BW_TIMED` transfers. Returns
/// (timed transfers, digest over every interval, timed wall seconds).
fn run_bw_backfill() -> (u64, u64, f64) {
    let mut rng = SplitMix64::new(0xBAC4_F111);
    let mut pipe = BwResource::new(BW_MGBPS);
    let mut d = Fnv1a::new();
    let step = |pipe: &mut BwResource, rng: &mut SplitMix64, d: &mut Fnv1a| {
        let (ready, bytes) = bw_request(rng, pipe.next_free());
        let iv = pipe.transfer(ready, bytes);
        d.write_u64(iv.start.as_ps());
        d.write_u64(iv.end.as_ps());
    };
    for _ in 0..BW_WARM {
        step(&mut pipe, &mut rng, &mut d);
    }
    assert!(
        pipe.remembered_gaps() >= MAX_GAPS,
        "warm-up left {} gaps, short of the {MAX_GAPS} cap",
        pipe.remembered_gaps()
    );
    let ((), secs) = timed(|| {
        for _ in 0..BW_TIMED {
            step(&mut pipe, &mut rng, &mut d);
        }
    });
    (BW_TIMED, d.finish(), secs)
}

// -------------------------------------------------------------- svc_hub --

/// Control-epoch length: the `Governor` default.
const HUB_EPOCH: SimDuration = SimDuration::from_us(20);

/// Four open-loop latency tenants (256 B–4 KiB, 4 µs mean gap, 4.5 µs
/// deadline) beside four closed-loop throughput tenants (16–64 KiB, depth
/// 4, 2 µs think) on the shared plan: 30k jobs.
fn hub_roster() -> ServiceConfig {
    let mut specs = Vec::new();
    for (i, xfer) in [256u64, 1 << 10, 2 << 10, 4 << 10].into_iter().enumerate() {
        specs.push(
            TenantSpec::new(&format!("lat{i}"), xfer, 5_000)
                .with_class(QosClass::Latency)
                .with_deadline(SimDuration::from_ns(4_500))
                .with_arrival(Arrival::open(SimDuration::from_us(4))),
        );
    }
    for (i, xfer) in [16u64 << 10, 32 << 10, 64 << 10, 64 << 10].into_iter().enumerate() {
        specs.push(
            TenantSpec::new(&format!("thr{i}"), xfer, 2_500)
                .with_outstanding(4)
                .with_arrival(Arrival::closed(SimDuration::from_us(2))),
        );
    }
    ServiceConfig::builder()
        .plan(PlanSpec::Shared)
        .seed(0x4B_5EED)
        .tenants(specs)
        .build()
        .expect("the svc_hub roster is valid")
}

/// Drives the roster to completion in `HUB_EPOCH` epochs. With `observe`
/// a hub is attached and every epoch reads a windowed `Observation` and
/// re-marks the window. Returns (completed jobs, report digest).
fn run_svc_hub(observe: bool) -> (u64, u64) {
    let mut svc = DsaService::from_config(hub_roster()).expect("the svc_hub roster builds");
    let mut window = observe.then(|| HubWindow::new(svc.trace()));
    let mut next = svc.next_ready().map(|t| t + HUB_EPOCH);
    while let Some(until) = next {
        svc.run_until(until);
        if let Some(w) = window.as_mut() {
            std::hint::black_box(Observation::from_window(w, &svc));
            w.mark();
        }
        next = svc.next_ready().map(|t| t.max(until) + HUB_EPOCH);
    }
    let rep = svc.report();
    (rep.tenants.iter().map(|t| t.dsa_completed + t.cpu_completed).sum(), rep.digest())
}

// ------------------------------------------------------------- harness --

struct Sample {
    workload: &'static str,
    scheduler: &'static str,
    events: u64,
    digest: u64,
    wall_s: f64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }
}

/// Best-of-3 wall time (the event stream itself is bit-identical per rep).
fn sample(workload: &'static str, scheduler: &'static str, run: impl Fn() -> (u64, u64)) -> Sample {
    let mut best = f64::INFINITY;
    let mut events = 0;
    let mut digest = 0;
    for _ in 0..3 {
        let ((n, d), secs) = timed(&run);
        best = best.min(secs);
        events = n;
        digest = d;
    }
    Sample { workload, scheduler, events, digest, wall_s: best }
}

/// Best-of-3 of the pipe lane, whose run times only its steady state.
fn sample_bw_backfill() -> Sample {
    let mut s = Sample {
        workload: "bw_backfill",
        scheduler: "bw-resource",
        events: 0,
        digest: 0,
        wall_s: f64::INFINITY,
    };
    for _ in 0..3 {
        let (n, d, secs) = run_bw_backfill();
        s = Sample { events: n, digest: d, wall_s: s.wall_s.min(secs), ..s };
    }
    s
}

fn json_escape_free(s: &Sample) -> String {
    format!(
        "    {{\"workload\": \"{}\", \"scheduler\": \"{}\", \"events\": {}, \
         \"wall_s\": {:.6}, \"events_per_sec\": {:.0}, \"digest\": \"{:#018x}\"}}",
        s.workload,
        s.scheduler,
        s.events,
        s.wall_s,
        s.events_per_sec(),
        s.digest
    )
}

fn main() {
    table::banner("simperf", "discrete-event core throughput: calendar queue vs reference heap");
    table::header(&["workload", "scheduler", "events", "wall ms", "Mev/s"]);

    let samples = [
        sample("event_storm", "calendar", || run_storm(CalendarScheduler::new())),
        sample("event_storm", "heap", || run_storm(HeapScheduler::new())),
        sample("pe_scaling", "calendar", || run_pe_scaling(CalendarScheduler::new())),
        sample("pe_scaling", "heap", || run_pe_scaling(HeapScheduler::new())),
    ];
    let backfill = sample_bw_backfill();
    let hub = [
        sample("svc_hub", "off", || run_svc_hub(false)),
        sample("svc_hub", "on", || run_svc_hub(true)),
    ];
    for s in samples.iter().chain([&backfill]).chain(&hub) {
        table::row(&[
            s.workload.to_string(),
            s.scheduler.to_string(),
            s.events.to_string(),
            table::f2(s.wall_s * 1e3),
            table::f2(s.events_per_sec() / 1e6),
        ]);
    }

    // Behavioural equivalence: same events, same digest, per workload.
    for pair in samples.chunks(2) {
        assert_eq!(pair[0].events, pair[1].events, "{}: event counts differ", pair[0].workload);
        assert_eq!(pair[0].digest, pair[1].digest, "{}: digests differ", pair[0].workload);
    }

    let speedup = |w: &str| {
        let cal = samples.iter().find(|s| s.workload == w && s.scheduler == "calendar").unwrap();
        let heap = samples.iter().find(|s| s.workload == w && s.scheduler == "heap").unwrap();
        cal.events_per_sec() / heap.events_per_sec()
    };
    // The hub observes; it must not steer.
    assert_eq!(hub[0].events, hub[1].events, "svc_hub: job counts differ");
    assert_eq!(hub[0].digest, hub[1].digest, "svc_hub: the hub changed the report digest");
    let hub_ratio = hub[1].wall_s / hub[0].wall_s.max(1e-9);
    println!("svc_hub: hub-on / hub-off wall time {}x", table::f2(hub_ratio));

    let storm_x = speedup("event_storm");
    let pe_x = speedup("pe_scaling");
    println!(
        "calendar vs heap: event_storm {}x, pe_scaling {}x",
        table::f2(storm_x),
        table::f2(pe_x)
    );
    // The calendar queue must win on BOTH tracked workloads: the pure
    // scheduler stress and the fig07-shaped offload cluster. A regression
    // on either fails the bench (and the perfgate on top of it).
    assert!(
        storm_x > 1.0,
        "calendar queue must beat the heap on the event-storm workload (got {storm_x:.3}x)"
    );
    assert!(
        pe_x > 1.0,
        "calendar queue must beat the heap on the pe-scaling workload (got {pe_x:.3}x)"
    );

    // BENCH_simperf.json at the repo root: the tracked perf trajectory.
    let body = format!(
        "{{\n  \"bench\": \"simperf\",\n  \"schema_version\": 1,\n  \"host\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \
         \"speedup_event_storm\": {:.3},\n  \"speedup_pe_scaling\": {:.3},\n  \
         \"svc_hub_on_off\": {:.3}\n}}\n",
        host::fingerprint_json(),
        samples
            .iter()
            .chain([&backfill])
            .chain(&hub)
            .map(json_escape_free)
            .collect::<Vec<_>>()
            .join(",\n"),
        storm_x,
        pe_x,
        hub_ratio
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simperf.json");
    std::fs::write(path, body).expect("write BENCH_simperf.json at the repo root");
    println!("wrote {path}");
}
