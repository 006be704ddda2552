//! `device_ops`: one `DsaRuntime` driven through `Job` and `Batch` at
//! queue depth 32, cycling the paper's operation set over 256 B, 4 KiB
//! and 64 KiB buffers.
//!
//! The service layer submits only memmove, so this is the workload that
//! loads the `dsa-ops` functional kernels and the batch path. Read-only
//! ops (CRC, compare, DIF check) run beside writing ops (memmove, fill,
//! DIF insert), so a change that speeds one side at the other's cost
//! shows. Queue depth is kept with `InflightWindow`, the primitive
//! `AsyncQueue` is built on, because the benchmark needs every
//! completion record and `AsyncQueue` does not hand them back.

use crate::host::{now_ns, ns_per_call, secs_since, Tracer};
use crate::pass::{gbps, Metrics, Pass, Sim};
use crate::stats::{cost_growth, jain, percentile, Gen};
use dsa_core::config::AccelConfig;
use dsa_core::digest::Fnv1a;
use dsa_core::prelude::*;
use dsa_core::submit::InflightWindow;
use dsa_mem::buffer::Location;
use dsa_mem::memory::BufferHandle;
use dsa_mem::topology::Platform;
use dsa_ops::crc32::Crc32c;
use dsa_ops::dif::{self, DifBlockSize, DifConfig};
use dsa_ops::{delta, memops};
use dsa_svc::prelude::{SimDuration, SimTime};

/// Queue depth: the paper's default for asynchronous offload (§4.1).
const QD: usize = 32;
/// Buffer sizes of the three classes.
const SIZES: [usize; 3] = [256, 4 << 10, 64 << 10];
/// Rounds per pass; a round submits every op once per size class.
const ROUNDS: usize = 400;
const FILL_PATTERN: u64 = 0x5A5A_0FF0_C3C3_A55A;
/// Bytes of the source that differ from its twin (compare, delta).
const DIFFS: usize = 4;
/// Submit→completion budget of every submission: one that takes longer
/// counts as a deadline miss.
const BUDGET: SimDuration = SimDuration::from_us(20);

/// The operation set, in submission order within a size class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Memmove,
    Dualcast,
    Fill,
    Compare,
    Crc32,
    DifInsert,
    DifCheck,
    DeltaCreate,
    DeltaApply,
    Batch,
}

impl Op {
    const ALL: [Op; 10] = [
        Op::Memmove,
        Op::Dualcast,
        Op::Fill,
        Op::Compare,
        Op::Crc32,
        Op::DifInsert,
        Op::DifCheck,
        Op::DeltaCreate,
        Op::DeltaApply,
        Op::Batch,
    ];

    fn name(self) -> &'static str {
        match self {
            Op::Memmove => "memmove",
            Op::Dualcast => "dualcast",
            Op::Fill => "fill",
            Op::Compare => "compare",
            Op::Crc32 => "crc32",
            Op::DifInsert => "dif_insert",
            Op::DifCheck => "dif_check",
            Op::DeltaCreate => "delta_create",
            Op::DeltaApply => "delta_apply",
            Op::Batch => "batch",
        }
    }

    /// Span name of the op's submission call.
    fn span(self) -> &'static str {
        match self {
            Op::Memmove => "core.Job::submit/memmove",
            Op::Dualcast => "core.Job::submit/dualcast",
            Op::Fill => "core.Job::submit/fill",
            Op::Compare => "core.Job::submit/compare",
            Op::Crc32 => "core.Job::submit/crc32",
            Op::DifInsert => "core.Job::submit/dif_insert",
            Op::DifCheck => "core.Job::submit/dif_check",
            Op::DeltaCreate => "core.Job::submit/delta_create",
            Op::DeltaApply => "core.Job::submit/delta_apply",
            Op::Batch => "core.Batch::submit",
        }
    }
}

/// One size class: the inputs, every op's own output buffer, and the
/// outputs the `dsa-ops` reference kernels give for those inputs.
struct Class {
    size: usize,
    src: BufferHandle,
    /// `src` with [`DIFFS`] 8-byte words changed.
    twin: BufferHandle,
    dst: BufferHandle,
    dual1: BufferHandle,
    dual2: BufferHandle,
    filled: BufferHandle,
    record: BufferHandle,
    /// Starts as a copy of `src`; delta apply turns it into `twin`.
    target: BufferHandle,
    /// Whole DIF blocks of source data.
    dif_data: BufferHandle,
    dif_out: BufferHandle,
    /// `dif_data` already protected, for DIF check.
    dif_in: BufferHandle,
    batch_dst: BufferHandle,
    batch_fill: BufferHandle,
    delta_len: u32,
}

/// Reference outputs of one size class (verification passes only).
struct Expected {
    src: Vec<u8>,
    twin: Vec<u8>,
    filled: Vec<u8>,
    crc: u64,
    mismatch: Option<usize>,
    delta: Vec<u8>,
    protected: Vec<u8>,
}

struct Rig {
    rt: DsaRuntime,
    classes: Vec<Class>,
    dif: DifConfig,
    /// Seeds the submission order of every round.
    order: u64,
}

fn dif_len(size: usize) -> usize {
    size.div_ceil(512) * 512
}

/// Builds the runtime (4 engines behind one 16-entry shared WQ, so QD 32
/// meets back-pressure) and fills every buffer from `seed`.
fn build(seed: u64) -> Rig {
    let mut g = Gen::new(seed ^ 0xDE71_CE05);
    let device =
        AccelConfig::builder().group(4).shared_wq(16).build().expect("4 engines, 1 shared WQ");
    let mut rt = DsaRuntime::builder(Platform::spr()).device(device).build();
    let dif = DifConfig { block: DifBlockSize::B512, app_tag: 0x00D5, starting_ref_tag: 7 };
    let loc = Location::local_dram();
    let mut classes = Vec::new();
    for size in SIZES {
        let n = size as u64;
        let mut bytes = vec![0u8; size];
        bytes.iter_mut().for_each(|b| *b = g.next_u64() as u8);
        let mut twin = bytes.clone();
        for _ in 0..DIFFS {
            let at = g.below(n / 8) as usize * 8;
            twin[at] ^= 0xA5;
        }
        let mut data = vec![0u8; dif_len(size)];
        data.iter_mut().for_each(|b| *b = g.next_u64() as u8);
        let protected = dif::dif_insert(&dif, &data).expect("whole DIF blocks");
        let rec_cap = (DIFFS * 10) as u64;
        let delta = delta::delta_create(&bytes, &twin, rec_cap as usize)
            .expect("the delta fits its record");
        let mut record = delta.as_bytes().to_vec();
        record.resize(rec_cap as usize, 0);
        let put = |rt: &mut DsaRuntime, len: u64, init: Option<&[u8]>| {
            let h = rt.alloc(len, loc);
            if let Some(b) = init {
                rt.memory_mut().write(h.addr(), b).expect("fresh buffer is mapped");
            }
            h
        };
        classes.push(Class {
            size,
            src: put(&mut rt, n, Some(&bytes)),
            twin: put(&mut rt, n, Some(&twin)),
            dst: put(&mut rt, n, None),
            dual1: put(&mut rt, n, None),
            dual2: put(&mut rt, n, None),
            filled: put(&mut rt, n, None),
            // Holds the delta from the start, so an apply that runs before
            // the round's create patches the same words.
            record: put(&mut rt, rec_cap, Some(&record)),
            target: put(&mut rt, n, Some(&bytes)),
            dif_data: put(&mut rt, data.len() as u64, Some(&data)),
            dif_out: put(&mut rt, protected.len() as u64, None),
            dif_in: put(&mut rt, protected.len() as u64, Some(&protected)),
            batch_dst: put(&mut rt, n, None),
            batch_fill: put(&mut rt, n, None),
            delta_len: delta.size_bytes() as u32,
        });
    }
    Rig { rt, classes, dif, order: g.next_u64() }
}

impl Class {
    fn expected(&self, rt: &DsaRuntime, dif: &DifConfig) -> Expected {
        let src = read(rt, &self.src).to_vec();
        let twin = read(rt, &self.twin).to_vec();
        let mut filled = vec![0u8; self.size];
        memops::fill(&mut filled, FILL_PATTERN);
        let delta = delta::delta_create(&src, &twin, self.record.len() as usize)
            .expect("the delta fits its record");
        Expected {
            crc: u64::from(Crc32c::checksum(&src)),
            mismatch: memops::compare(&src, &twin),
            delta: delta.as_bytes().to_vec(),
            protected: dif::dif_insert(dif, read(rt, &self.dif_data)).expect("whole blocks"),
            filled,
            src,
            twin,
        }
    }

    fn job(&self, op: Op, dif: DifConfig) -> Job {
        match op {
            Op::Memmove => Job::memcpy(&self.src, &self.dst),
            Op::Dualcast => Job::dualcast(&self.src, &self.dual1, &self.dual2),
            Op::Fill => Job::fill(&self.filled, FILL_PATTERN),
            Op::Compare => Job::compare(&self.src, &self.twin),
            Op::Crc32 => Job::crc32(&self.src),
            Op::DifInsert => Job::dif_insert(&self.dif_data, &self.dif_out, dif),
            Op::DifCheck => Job::dif_check(&self.dif_in, dif),
            Op::DeltaCreate => Job::delta_create(&self.src, &self.twin, &self.record),
            Op::DeltaApply => Job::delta_apply(&self.record, self.delta_len, &self.target),
            Op::Batch => unreachable!("batches are not single jobs"),
        }
    }

    fn batch(&self) -> Batch {
        let mut b = Batch::new();
        b.push(Job::memcpy(&self.src, &self.batch_dst))
            .push(Job::fill(&self.batch_fill, FILL_PATTERN))
            .push(Job::crc32(&self.src))
            .push(Job::compare(&self.src, &self.twin));
        b
    }

    /// Checks `op`'s completion records and output bytes against the
    /// reference outputs.
    fn verify(&self, op: Op, recs: &[Rec], rt: &DsaRuntime, e: &Expected) -> Vec<String> {
        let mut bad = Vec::new();
        let mut want = |ok: bool, what: &str| {
            if !ok {
                bad.push(format!("{} {} B: {what}", op.name(), self.size));
            }
        };
        let cmp_ok = |r: &Rec| match e.mismatch {
            None => r.status == Status::Success,
            Some(off) => r.status == Status::CompareMismatch && r.result == off as u64,
        };
        match op {
            Op::Memmove => want(read(rt, &self.dst) == e.src, "destination != source"),
            Op::Dualcast => {
                want(read(rt, &self.dual1) == e.src, "first destination != source");
                want(read(rt, &self.dual2) == e.src, "second destination != source");
            }
            Op::Fill => want(read(rt, &self.filled) == e.filled, "fill pattern"),
            Op::Compare => want(cmp_ok(&recs[0]), "compare result"),
            Op::Crc32 => want(recs[0].result == e.crc, "CRC32C"),
            Op::DifInsert => want(read(rt, &self.dif_out) == e.protected, "protected blocks"),
            Op::DifCheck => want(recs[0].status == Status::Success, "DIF check failed"),
            Op::DeltaCreate => {
                want(recs[0].result == e.delta.len() as u64, "delta record size");
                want(read(rt, &self.record)[..e.delta.len()] == e.delta, "delta record bytes");
            }
            Op::DeltaApply => want(read(rt, &self.target) == e.twin, "patched target != twin"),
            Op::Batch => {
                want(read(rt, &self.batch_dst) == e.src, "batch memmove");
                want(read(rt, &self.batch_fill) == e.filled, "batch fill");
                want(recs[2].result == e.crc, "batch CRC32C");
                want(cmp_ok(&recs[3]), "batch compare");
            }
        }
        bad
    }

    /// Every output buffer, for the end-of-pass digest.
    fn outputs(&self) -> [&BufferHandle; 9] {
        [
            &self.dst,
            &self.dual1,
            &self.dual2,
            &self.filled,
            &self.record,
            &self.target,
            &self.dif_out,
            &self.batch_dst,
            &self.batch_fill,
        ]
    }
}

/// The completion-record fields the benchmark checks and digests.
#[derive(Clone, Copy, Debug)]
struct Rec {
    status: Status,
    result: u64,
    bytes: [u8; 32],
}

fn read<'a>(rt: &'a DsaRuntime, b: &BufferHandle) -> &'a [u8] {
    rt.read(b).expect("runtime-allocated buffer is mapped")
}

/// What a run of the op cycle produced.
struct Outcome {
    descriptors: u64,
    failed: u64,
    bytes: u64,
    makespan: SimTime,
    digest: u64,
    /// Per op: submit→completion latencies (ps) and the misses.
    latency: Vec<Vec<u64>>,
    misses: Vec<u64>,
    problems: Vec<String>,
    /// Per submission: `(host ns, descriptors)`, when tracing.
    costs: Vec<(u64, u64)>,
}

fn run(rig: &mut Rig, verify: bool, tr: &mut Tracer) -> Outcome {
    let Rig { rt, classes, dif, order } = rig;
    let mut g = Gen::new(*order);
    let mut slots: Vec<(usize, usize)> =
        (0..classes.len()).flat_map(|ci| (0..Op::ALL.len()).map(move |k| (ci, k))).collect();
    let expected: Vec<Expected> =
        if verify { classes.iter().map(|c| c.expected(rt, dif)).collect() } else { Vec::new() };
    let mut window: InflightWindow<()> = InflightWindow::new(QD);
    let mut h = Fnv1a::new();
    let mut o = Outcome {
        descriptors: 0,
        failed: 0,
        bytes: 0,
        makespan: SimTime::ZERO,
        digest: 0,
        latency: vec![Vec::with_capacity(ROUNDS * SIZES.len()); Op::ALL.len()],
        misses: vec![0; Op::ALL.len()],
        problems: Vec::new(),
        costs: Vec::new(),
    };
    for _ in 0..ROUNDS {
        g.shuffle(&mut slots);
        for &(ci, k) in &slots {
            let (c, op) = (&classes[ci], Op::ALL[k]);
            if window.is_full() {
                if let Some((t, ())) = window.pop_oldest() {
                    rt.advance_to(t);
                }
            }
            while window.pop_completed(rt.now()).is_some() {}
            let issued = rt.now();
            let s = tr.enter(op.span());
            let (done, recs, n, bytes) = if op == Op::Batch {
                let b = c.batch();
                let handle = b.submit(rt).expect("the batch is valid");
                let all = handle.records.iter().chain([&handle.batch_record]);
                let recs: Vec<Rec> = all
                    .map(|r| Rec { status: r.status, result: r.result, bytes: r.to_bytes() })
                    .collect();
                (handle.completion_time(), recs, 4u64, 4 * c.size as u64)
            } else {
                let job = c.job(op, *dif);
                let bytes = u64::from(job.descriptor().xfer_size);
                let handle = job.submit(rt).expect("the descriptor is valid");
                let r = handle.record();
                let rec = Rec { status: r.status, result: r.result, bytes: r.to_bytes() };
                (handle.completion_time(), vec![rec], 1, bytes)
            };
            let ns = tr.exit(s);
            if tr.enabled() {
                o.costs.push((ns, n));
            }
            for (i, r) in recs.iter().enumerate() {
                h.write(&r.bytes);
                // A batch's own record follows its members; only members
                // are jobs.
                if (i as u64) < n && !r.status.is_ok() {
                    o.failed += 1;
                }
            }
            if verify {
                o.problems.extend(c.verify(op, &recs, rt, &expected[ci]));
            }
            h.write_u64(done.as_ps());
            let lat = done.duration_since(issued);
            o.latency[k].push(lat.as_ps());
            if lat > BUDGET {
                o.misses[k] += 1;
            }
            o.descriptors += n;
            o.bytes += bytes;
            o.makespan = o.makespan.max(done);
            window.push(done, ());
        }
    }
    while let Some((t, ())) = window.pop_oldest() {
        rt.advance_to(t);
    }
    for c in classes.iter() {
        for b in c.outputs() {
            h.write(read(rt, b));
        }
    }
    let tel = rt.device(0).telemetry();
    if tel.descriptors != o.descriptors {
        o.problems.push(format!(
            "device processed {} descriptors, {} were submitted",
            tel.descriptors, o.descriptors
        ));
    }
    o.digest = h.finish();
    o
}

fn finish(o: &Outcome, setup_s: f64, run_s: f64) -> Pass {
    let submissions: u64 = o.latency.iter().map(|l| l.len() as u64).sum();
    let on_time: Vec<f64> = o
        .latency
        .iter()
        .zip(&o.misses)
        .map(|(l, &m)| 1.0 - m as f64 / l.len().max(1) as f64)
        .collect();
    let mut all: Vec<u64> = o.latency.concat();
    Pass {
        setup_s,
        run_s,
        offered: o.descriptors,
        completed: o.descriptors - o.failed,
        failed: o.failed,
        digest: o.digest,
        sim: Sim {
            gbps: gbps(o.bytes, o.makespan.as_ps()),
            p99_us: percentile(&mut all, 99.0).map_or(0.0, |ps| ps as f64 / 1e6),
            miss_rate: o.misses.iter().sum::<u64>() as f64 / submissions.max(1) as f64,
            jain: jain(&on_time),
        },
        problems: o.problems.clone(),
    }
}

fn build_and_run(seed: u64, verify: bool, tr: &mut Tracer) -> (Rig, Outcome, Pass) {
    let t0 = now_ns();
    let mut rig = tr.span("core.DsaRuntime::build", || build(seed));
    let setup_s = secs_since(t0);
    let t1 = now_ns();
    let o = run(&mut rig, verify, tr);
    let pass = finish(&o, setup_s, secs_since(t1));
    (rig, o, pass)
}

/// One pass; `verify` checks every result against the `dsa-ops`
/// reference kernels as it lands.
pub fn pass(seed: u64, verify: bool, tr: &mut Tracer) -> Pass {
    build_and_run(seed, verify, tr).2
}

/// Host ns per call of each op's reference kernel on each size class's
/// inputs, indexed like [`Op::ALL`] then [`SIZES`].
fn kernel_ns(rig: &Rig) -> Vec<[f64; 3]> {
    use std::hint::black_box as bb;
    let mut out = vec![[0.0; 3]; Op::ALL.len()];
    for (ci, c) in rig.classes.iter().enumerate() {
        let src = read(&rig.rt, &c.src).to_vec();
        let twin = read(&rig.rt, &c.twin).to_vec();
        let data = read(&rig.rt, &c.dif_data).to_vec();
        let prot = read(&rig.rt, &c.dif_in).to_vec();
        let rec = delta::delta_create(&src, &twin, c.record.len() as usize).expect("fits");
        let (mut d1, mut d2, mut tgt) = (vec![0u8; c.size], vec![0u8; c.size], src.clone());
        let cfg = &rig.dif;
        let copy = ns_per_call(|| memops::copy(bb(&src[..]), bb(&mut d1[..])));
        let fill = ns_per_call(|| memops::fill(bb(&mut d1[..]), FILL_PATTERN));
        let crc = ns_per_call(|| {
            bb(Crc32c::checksum(bb(&src[..])));
        });
        let cmp = ns_per_call(|| {
            bb(memops::compare(bb(&src[..]), bb(&twin[..])));
        });
        let k = [
            copy,
            ns_per_call(|| memops::dualcast(bb(&src[..]), bb(&mut d1[..]), bb(&mut d2[..]))),
            fill,
            cmp,
            crc,
            ns_per_call(|| {
                bb(dif::dif_insert(cfg, bb(&data[..])).ok());
            }),
            ns_per_call(|| {
                bb(dif::dif_check(cfg, bb(&prot[..])).ok());
            }),
            ns_per_call(|| {
                bb(delta::delta_create(bb(&src[..]), bb(&twin[..]), c.record.len() as usize).ok());
            }),
            ns_per_call(|| {
                bb(delta::delta_apply(bb(&rec), bb(&mut tgt[..])).ok());
            }),
            copy + fill + crc + cmp,
        ];
        for (i, v) in k.into_iter().enumerate() {
            out[i][ci] = v;
        }
    }
    out
}

/// Device-model figures of device 0 of `rt`: engine utilisation over
/// `makespan_ps`, WQ rejections per descriptor and the ATC hit rate.
/// Exact model outputs, named `device.<figure>.<tag>`.
pub fn device_layers(rt: &DsaRuntime, makespan_ps: u64, tag: &str, out: &mut Metrics) {
    let dev = rt.device(0);
    let tel = dev.telemetry();
    let busy = dev.engines_busy_time().as_ps() as f64;
    let span = dev.engine_count() as f64 * makespan_ps.max(1) as f64;
    out.put(format!("device.engine_util.{tag}"), busy / span, "ratio");
    let rejections = tel.wq_rejections as f64 / tel.descriptors.max(1) as f64;
    out.put(format!("device.wq_rejections_per_job.{tag}"), rejections, "ratio");
    let lookups = (tel.atc_hits + tel.atc_misses).max(1) as f64;
    out.put(format!("device.atc_hit_rate.{tag}"), tel.atc_hits as f64 / lookups, "ratio");
}

/// Untraced pass, traced pass, and the reference kernels timed on the
/// same inputs: the `dsa-ops` and device-path layer metrics.
pub fn layers(seed: u64, tr: &mut Tracer, out: &mut Metrics) -> (Pass, Pass) {
    let untraced = pass(seed, false, &mut Tracer::off());
    let (rig, o, traced) = build_and_run(seed, false, tr);

    let kernels = kernel_ns(&rig);
    let kib: f64 = SIZES.iter().map(|&s| s as f64 / 1024.0).sum();
    let kib_dif: f64 = SIZES.iter().map(|&s| dif_len(s) as f64 / 1024.0).sum();
    let ops_metric = [
        ("copy", Op::Memmove, kib),
        ("crc32", Op::Crc32, kib),
        ("compare", Op::Compare, kib),
        ("fill", Op::Fill, kib),
        ("dif_insert", Op::DifInsert, kib_dif),
        ("dif_check", Op::DifCheck, kib_dif),
        ("delta_create", Op::DeltaCreate, kib),
        ("delta_apply", Op::DeltaApply, kib),
    ];
    for (k, op, per) in ops_metric {
        let i = Op::ALL.iter().position(|&o| o == op).expect("listed op");
        out.put(format!("ops.{k}_ns_per_kib"), kernels[i].iter().sum::<f64>() / per, "ns/KiB");
    }
    for (i, op) in Op::ALL.into_iter().enumerate() {
        let (ns, n) = tr.total(op.span());
        let submit = ns as f64 / n.max(1) as f64;
        let kernel = kernels[i].iter().sum::<f64>() / SIZES.len() as f64;
        out.put(format!("device.submit_ns.{}", op.name()), submit, "ns");
        out.put(format!("device.model_ns.{}", op.name()), submit - kernel, "ns");
    }
    out.put("sim.cost_growth.device", cost_growth(&o.costs), "ratio");
    device_layers(&rig.rt, o.makespan.as_ps(), "device", out);
    (untraced, traced)
}
