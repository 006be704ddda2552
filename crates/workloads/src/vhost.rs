//! DPDK-Vhost-style VirtIO backend with DSA packet-copy offload
//! (the paper's §6.4 case study).
//!
//! The model reproduces the software structure the paper describes:
//!
//! * a **virtqueue** of guest buffers with available/used rings;
//! * a **three-stage asynchronous pipeline** per enqueue burst (G2):
//!   (1) check completions of the previous iteration and write back used
//!   descriptors *in order*, (2) fetch available descriptors, assemble one
//!   DSA **batch descriptor** per burst (G1), submit, (3) return to other
//!   work while DSA moves packets;
//! * **cache-control = 1** so packets land in the LLC, since the VM
//!   consumes them promptly (G3);
//! * a **reordering array**: used descriptors are written back only up to
//!   the first still-in-flight copy, preserving packet order.
//!
//! [`Testpmd`] drives the backend like the paper's DPDK-TestPMD macfwd
//! setup with 100 GbE traffic (Fig. 16b).

use dsa_core::backend::Engine;
use dsa_core::job::{Batch, Job};
use dsa_core::runtime::DsaRuntime;
use dsa_core::DsaError;
use dsa_mem::buffer::Location;
use dsa_mem::memory::BufferHandle;
use dsa_ops::OpKind;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_telemetry::Track;
use std::collections::VecDeque;

/// The descriptor ring exposed by the guest.
#[derive(Debug)]
pub struct Virtqueue {
    buffers: Vec<BufferHandle>,
    avail: VecDeque<u16>,
    used: Vec<u16>,
}

impl Virtqueue {
    /// Allocates a queue of `size` guest buffers of `buf_len` bytes.
    /// Guest buffers live in LLC-warm memory (actively consumed).
    pub fn new(rt: &mut DsaRuntime, size: u16, buf_len: u64) -> Virtqueue {
        let buffers: Vec<BufferHandle> =
            (0..size).map(|_| rt.alloc(buf_len, Location::Llc)).collect();
        Virtqueue { buffers, avail: (0..size).collect(), used: Vec::new() }
    }

    /// The used ring (write-back order — must equal submission order).
    pub fn used_order(&self) -> &[u16] {
        &self.used
    }

    /// Recycles used descriptors back to the available ring (the guest
    /// consuming packets).
    pub fn recycle(&mut self) {
        for idx in self.used.drain(..) {
            self.avail.push_back(idx);
        }
    }

    /// The guest offers descriptor `idx` to the host (dequeue direction:
    /// the guest filled the buffer and wants it transmitted).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn offer(&mut self, idx: u16) {
        assert!((idx as usize) < self.buffers.len(), "descriptor {idx} out of range");
        self.avail.push_back(idx);
    }

    /// The guest buffer behind descriptor `idx`.
    pub fn buffer(&self, idx: u16) -> &BufferHandle {
        &self.buffers[idx as usize]
    }
}

#[derive(Debug)]
struct InFlight {
    desc_idx: u16,
    completion: SimTime,
}

/// Per-burst accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct BurstReport {
    /// Packets accepted into the pipeline.
    pub enqueued: usize,
    /// Packets dropped for lack of available descriptors.
    pub dropped: usize,
    /// Core time consumed by this burst (stages 1+2).
    pub core_busy: SimDuration,
}

/// Vhost statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct VhostStats {
    /// Packets copied to guest buffers and written back as used.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
}

/// The vhost backend.
#[derive(Debug)]
pub struct Vhost {
    vq: Virtqueue,
    engine: Engine,
    inflight: VecDeque<InFlight>,
    stats: VhostStats,
}

/// Cost of writing back one used descriptor (~10 bytes, §6.4: "not worth
/// offloading to DSA due to its small size").
const USED_WRITEBACK: SimDuration = SimDuration::from_ns(8);
/// Cost of scanning one reorder-array slot.
const REORDER_SCAN: SimDuration = SimDuration::from_ns(4);
/// Cost of fetching one available descriptor and reading its address.
const AVAIL_FETCH: SimDuration = SimDuration::from_ns(6);

impl Vhost {
    /// Creates a backend over `vq` using `engine` for packet copies.
    pub fn new(vq: Virtqueue, engine: Engine) -> Vhost {
        Vhost { vq, engine, inflight: VecDeque::new(), stats: VhostStats::default() }
    }

    /// Statistics so far.
    pub fn stats(&self) -> VhostStats {
        self.stats
    }

    /// The virtqueue (for tests and the guest side).
    pub fn virtqueue(&self) -> &Virtqueue {
        &self.vq
    }

    /// Mutable virtqueue access (guest-side recycle).
    pub fn virtqueue_mut(&mut self) -> &mut Virtqueue {
        &mut self.vq
    }

    /// Stage 1: reap completed copies in order, writing back used
    /// descriptors up to the first still-in-flight one.
    fn reap(&mut self, rt: &mut DsaRuntime) -> SimDuration {
        let mut busy = SimDuration::ZERO;
        while let Some(front) = self.inflight.front() {
            busy += REORDER_SCAN;
            if front.completion <= rt.now() {
                if let Some(f) = self.inflight.pop_front() {
                    self.vq.used.push(f.desc_idx);
                    self.stats.delivered += 1;
                    busy += USED_WRITEBACK;
                }
            } else {
                break;
            }
        }
        rt.advance(busy);
        busy
    }

    /// Enqueues one burst of packets (typical burst: 32).
    ///
    /// # Errors
    ///
    /// Propagates DSA submission failures in offload mode.
    pub fn enqueue_burst(
        &mut self,
        rt: &mut DsaRuntime,
        pkts: &[(BufferHandle, u32)],
    ) -> Result<BurstReport, DsaError> {
        let start = rt.now();
        let mut report = BurstReport::default();

        // Stage 1: completion check + in-order used write-back.
        self.reap(rt);
        let reaped = rt.now();

        // Stage 2: fetch available descriptors and submit copies.
        match self.engine {
            Engine::Cpu => {
                for (pkt, len) in pkts {
                    rt.advance(AVAIL_FETCH);
                    let Some(idx) = self.vq.avail.pop_front() else {
                        report.dropped += 1;
                        self.stats.dropped += 1;
                        continue;
                    };
                    let dst = self.vq.buffers[idx as usize];
                    let t = rt.cpu_time(OpKind::Memcpy, *len as u64, Location::Llc, Location::Llc);
                    rt.memory_mut()
                        .copy(pkt.addr(), dst.addr(), (*len as u64).min(dst.len()))
                        // dsa-lint: allow(unwrap, packet and ring buffers were allocated by this workload)
                        .expect("vhost buffers are mapped");
                    rt.advance(t);
                    // Synchronous: immediately used.
                    self.vq.used.push(idx);
                    self.stats.delivered += 1;
                    self.stats.bytes += *len as u64;
                    rt.advance(USED_WRITEBACK);
                    report.enqueued += 1;
                }
            }
            Engine::Dsa { device, wq } => {
                let mut batch = Batch::new().on_device(device).on_wq(wq).cache_control();
                let mut idxs = Vec::new();
                for (pkt, len) in pkts {
                    rt.advance(AVAIL_FETCH);
                    let Some(idx) = self.vq.avail.pop_front() else {
                        report.dropped += 1;
                        self.stats.dropped += 1;
                        continue;
                    };
                    let dst = self.vq.buffers[idx as usize];
                    let src = pkt.slice(0, (*len as u64).min(pkt.len()));
                    let dstv = dst.slice(0, (*len as u64).min(dst.len()));
                    batch.push(Job::memcpy(&src, &dstv));
                    idxs.push((idx, *len));
                }
                if idxs.len() == 1 {
                    // A batch needs >= 2 descriptors; submit singly.
                    let (idx, len) = idxs[0];
                    let dst = self.vq.buffers[idx as usize];
                    // dsa-lint: allow(unwrap, idxs was built from this same pkts slice one loop above)
                    let pkt = pkts.iter().find(|(_, l)| *l == len).expect("present");
                    let src = pkt.0.slice(0, (len as u64).min(pkt.0.len()));
                    let dstv = dst.slice(0, (len as u64).min(dst.len()));
                    let h = Job::memcpy(&src, &dstv)
                        .on_device(device)
                        .on_wq(wq)
                        .cache_control()
                        .submit(rt)?;
                    self.inflight
                        .push_back(InFlight { desc_idx: idx, completion: h.completion_time() });
                    self.stats.bytes += len as u64;
                    report.enqueued += 1;
                } else if !idxs.is_empty() {
                    let handle = batch.submit(rt)?;
                    // Member i of the batch completes no later than the
                    // batch record; order within our model follows
                    // submission order.
                    for (idx, len) in idxs {
                        self.inflight
                            .push_back(InFlight { desc_idx: idx, completion: handle.data_done() });
                        self.stats.bytes += len as u64;
                        report.enqueued += 1;
                    }
                }
            }
        }
        report.core_busy = rt.now().duration_since(start);
        if let Some(hub) = rt.hub().cloned() {
            let track = Track::Workload("vhost-enqueue");
            hub.span(track, "reap", start, reaped);
            hub.span(track, "fetch+submit", reaped, rt.now());
        }
        Ok(report)
    }

    /// Dequeue path (§6.4: "a dequeue operation includes these three
    /// steps, but in a reverse order"): reap previous completions, fetch
    /// guest-offered descriptors, and copy their payloads into host
    /// `mbufs` — batched and asynchronous in DSA mode.
    ///
    /// Returns the descriptor indices whose payload copy was *submitted*
    /// this burst, in order (one per mbuf used).
    ///
    /// # Errors
    ///
    /// Propagates DSA submission failures.
    pub fn dequeue_burst(
        &mut self,
        rt: &mut DsaRuntime,
        mbufs: &[(BufferHandle, u32)],
    ) -> Result<Vec<u16>, DsaError> {
        // Stage 1: completion check + in-order used write-back.
        let start = rt.now();
        self.reap(rt);
        let reaped = rt.now();

        // Stage 2: fetch offered descriptors and submit guest->host copies.
        let mut taken = Vec::new();
        match self.engine {
            Engine::Cpu => {
                for (mbuf, len) in mbufs {
                    rt.advance(AVAIL_FETCH);
                    let Some(idx) = self.vq.avail.pop_front() else { break };
                    let src = self.vq.buffers[idx as usize];
                    let t = rt.cpu_time(OpKind::Memcpy, *len as u64, Location::Llc, Location::Llc);
                    rt.memory_mut()
                        .copy(src.addr(), mbuf.addr(), (*len as u64).min(mbuf.len()))
                        // dsa-lint: allow(unwrap, ring and mbuf buffers were allocated by this workload)
                        .expect("vhost buffers are mapped");
                    rt.advance(t);
                    self.vq.used.push(idx);
                    self.stats.delivered += 1;
                    self.stats.bytes += *len as u64;
                    rt.advance(USED_WRITEBACK);
                    taken.push(idx);
                }
            }
            Engine::Dsa { device, wq } => {
                let mut batch = Batch::new().on_device(device).on_wq(wq).cache_control();
                let mut idxs = Vec::new();
                for (mbuf, len) in mbufs {
                    rt.advance(AVAIL_FETCH);
                    let Some(idx) = self.vq.avail.pop_front() else { break };
                    let src = self.vq.buffers[idx as usize];
                    let s = src.slice(0, (*len as u64).min(src.len()));
                    let d = mbuf.slice(0, (*len as u64).min(mbuf.len()));
                    batch.push(Job::memcpy(&s, &d));
                    idxs.push((idx, *len));
                }
                if idxs.len() == 1 {
                    let (idx, len) = idxs[0];
                    let src = self.vq.buffers[idx as usize];
                    let (mbuf, _) = mbufs[0];
                    let s = src.slice(0, (len as u64).min(src.len()));
                    let d = mbuf.slice(0, (len as u64).min(mbuf.len()));
                    let h = Job::memcpy(&s, &d)
                        .on_device(device)
                        .on_wq(wq)
                        .cache_control()
                        .submit(rt)?;
                    self.inflight
                        .push_back(InFlight { desc_idx: idx, completion: h.completion_time() });
                    self.stats.bytes += len as u64;
                    taken.push(idx);
                } else if !idxs.is_empty() {
                    let handle = batch.submit(rt)?;
                    for (idx, len) in idxs {
                        self.inflight
                            .push_back(InFlight { desc_idx: idx, completion: handle.data_done() });
                        self.stats.bytes += len as u64;
                        taken.push(idx);
                    }
                }
            }
        }
        if let Some(hub) = rt.hub().cloned() {
            let track = Track::Workload("vhost-dequeue");
            hub.span(track, "reap", start, reaped);
            hub.span(track, "fetch+submit", reaped, rt.now());
        }
        Ok(taken)
    }

    /// Drains all in-flight copies (end of run).
    pub fn drain(&mut self, rt: &mut DsaRuntime) {
        if let Some(last) = self.inflight.back() {
            rt.advance_to(last.completion);
        }
        self.reap(rt);
    }
}

/// Fig. 16b's harness: TestPMD-style forwarding at a given packet size.
#[derive(Clone, Copy, Debug)]
pub struct Testpmd {
    /// Payload size in bytes.
    pub pkt_size: u32,
    /// Packets per burst (DPDK typical: 32).
    pub burst: usize,
    /// Bursts to run.
    pub bursts: u32,
    /// Base per-packet processing cost outside the copy (mac forwarding,
    /// mbuf management).
    pub per_pkt_overhead: SimDuration,
}

impl Default for Testpmd {
    fn default() -> Self {
        Testpmd {
            pkt_size: 1024,
            burst: 32,
            bursts: 300,
            per_pkt_overhead: SimDuration::from_ns(40),
        }
    }
}

/// Result of a forwarding run.
#[derive(Clone, Copy, Debug)]
pub struct ForwardingReport {
    /// Achieved forwarding rate in million packets per second.
    pub mpps: f64,
    /// Delivered packets.
    pub delivered: u64,
    /// Dropped packets.
    pub dropped: u64,
}

impl Testpmd {
    /// Runs the forwarding loop in `mode` against a fresh runtime.
    ///
    /// # Errors
    ///
    /// Propagates DSA submission failures.
    pub fn run(&self, rt: &mut DsaRuntime, engine: Engine) -> Result<ForwardingReport, DsaError> {
        let vq = Virtqueue::new(rt, 512, self.pkt_size as u64);
        let mut vhost = Vhost::new(vq, engine);
        // A pool of hot packet buffers (NIC RX ring, LLC-resident).
        let pool: Vec<BufferHandle> =
            (0..self.burst).map(|_| rt.alloc(self.pkt_size as u64, Location::Llc)).collect();
        let burst: Vec<(BufferHandle, u32)> = pool.iter().map(|b| (*b, self.pkt_size)).collect();

        let start = rt.now();
        for _ in 0..self.bursts {
            // Per-packet forwarding work outside the copy.
            rt.advance(self.per_pkt_overhead.saturating_mul(self.burst as u64));
            vhost.enqueue_burst(rt, &burst)?;
            // The guest consumes continuously.
            vhost.virtqueue_mut().recycle();
        }
        vhost.drain(rt);
        let elapsed = rt.now().duration_since(start);
        let stats = vhost.stats();
        Ok(ForwardingReport {
            mpps: stats.delivered as f64 / elapsed.as_us_f64(),
            delivered: stats.delivered,
            dropped: stats.dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::config::presets;
    use dsa_core::runtime::DsaRuntime;
    use dsa_mem::topology::Platform;

    fn rt_with_full_device() -> DsaRuntime {
        DsaRuntime::builder(Platform::spr()).device(presets::engines_behind_one_dwq(4, 128)).build()
    }

    #[test]
    fn packets_arrive_intact_and_in_order() {
        let mut rt = rt_with_full_device();
        let vq = Virtqueue::new(&mut rt, 64, 2048);
        let mut vhost = Vhost::new(vq, Engine::dsa());
        let pkts: Vec<(BufferHandle, u32)> = (0..8)
            .map(|i| {
                let b = rt.alloc(2048, Location::Llc);
                rt.fill_pattern(&b, i as u8 + 1);
                (b, 1500)
            })
            .collect();
        vhost.enqueue_burst(&mut rt, &pkts).unwrap();
        vhost.drain(&mut rt);
        let used = vhost.virtqueue().used_order().to_vec();
        assert_eq!(used.len(), 8);
        // In-order write-back: descriptors in ascending pop order.
        let mut sorted = used.clone();
        sorted.sort_unstable();
        assert_eq!(used, sorted);
        // Payloads intact.
        for (i, idx) in used.iter().enumerate() {
            let buf = *vhost.virtqueue().buffer(*idx);
            let data = rt.read(&buf).unwrap();
            assert!(data[..1500].iter().all(|&b| b == i as u8 + 1), "packet {i} corrupted");
        }
    }

    #[test]
    fn cpu_mode_delivers_synchronously() {
        let mut rt = DsaRuntime::spr_default();
        let vq = Virtqueue::new(&mut rt, 64, 2048);
        let mut vhost = Vhost::new(vq, Engine::Cpu);
        let b = rt.alloc(2048, Location::Llc);
        rt.fill_pattern(&b, 0xEE);
        let report = vhost.enqueue_burst(&mut rt, &[(b, 1024)]).unwrap();
        assert_eq!(report.enqueued, 1);
        assert_eq!(vhost.stats().delivered, 1);
        assert!(report.core_busy.as_ns_f64() > 40.0, "CPU copy should cost core time");
    }

    #[test]
    fn queue_exhaustion_drops() {
        let mut rt = rt_with_full_device();
        let vq = Virtqueue::new(&mut rt, 4, 2048);
        let mut vhost = Vhost::new(vq, Engine::dsa());
        let pkts: Vec<(BufferHandle, u32)> =
            (0..6).map(|_| (rt.alloc(2048, Location::Llc), 512)).collect();
        let report = vhost.enqueue_burst(&mut rt, &pkts).unwrap();
        assert_eq!(report.enqueued, 4);
        assert_eq!(report.dropped, 2);
    }

    #[test]
    fn dsa_forwarding_flat_cpu_drops_with_size() {
        let rate = |size: u32, engine: Engine| -> f64 {
            let mut rt = rt_with_full_device();
            Testpmd { pkt_size: size, bursts: 120, ..Testpmd::default() }
                .run(&mut rt, engine)
                .unwrap()
                .mpps
        };
        let dsa = Engine::dsa();
        let dsa_small = rate(256, dsa);
        let dsa_large = rate(1518, dsa);
        let cpu_small = rate(256, Engine::Cpu);
        let cpu_large = rate(1518, Engine::Cpu);
        // DSA mode stays roughly flat; CPU mode degrades with size.
        assert!(
            dsa_large > 0.8 * dsa_small,
            "DSA rate should be ~flat: {dsa_small} -> {dsa_large}"
        );
        assert!(
            cpu_large < 0.75 * cpu_small,
            "CPU rate should drop with size: {cpu_small} -> {cpu_large}"
        );
        // Above 256 B, DSA wins and the margin grows (paper: 1.14–2.29x).
        let ratio = dsa_large / cpu_large;
        assert!(ratio > 1.14, "large-packet speedup {ratio}");
    }

    #[test]
    fn burst_core_cost_is_small_in_dsa_mode() {
        let mut rt = rt_with_full_device();
        let vq = Virtqueue::new(&mut rt, 128, 2048);
        let mut vhost = Vhost::new(vq, Engine::dsa());
        let pkts: Vec<(BufferHandle, u32)> =
            (0..32).map(|_| (rt.alloc(2048, Location::Llc), 1518)).collect();
        let report = vhost.enqueue_burst(&mut rt, &pkts).unwrap();
        // 32 packets submitted with one batch descriptor: far below the
        // cost of 32 CPU copies of 1518 B (~100 ns each).
        assert!(
            report.core_busy < SimDuration::from_ns(1600),
            "stage-2 cost {:?}",
            report.core_busy
        );
    }
}

#[cfg(test)]
mod dequeue_tests {
    use super::*;
    use dsa_core::config::presets;
    use dsa_core::runtime::DsaRuntime;
    use dsa_mem::topology::Platform;

    fn rt4() -> DsaRuntime {
        DsaRuntime::builder(Platform::spr()).device(presets::engines_behind_one_dwq(4, 128)).build()
    }

    #[test]
    fn dequeue_moves_guest_payloads_to_host() {
        let mut rt = rt4();
        let mut vq = Virtqueue::new(&mut rt, 32, 2048);
        // The guest fills four descriptors and offers them. Take the
        // buffer handles up front (the host normally reads them from the
        // descriptor table).
        let idxs = [3u16, 7, 11, 15];
        for (i, &idx) in idxs.iter().enumerate() {
            let buf = *vq.buffer(idx);
            rt.fill_pattern(&buf, 0xC0 + i as u8);
        }
        // Remove from the default avail ring, then offer in guest order.
        vq.avail.clear();
        for &idx in &idxs {
            vq.offer(idx);
        }
        let mut vhost = Vhost::new(vq, Engine::dsa());
        let mbufs: Vec<(BufferHandle, u32)> =
            (0..4).map(|_| (rt.alloc(2048, Location::Llc), 1200u32)).collect();
        let taken = vhost.dequeue_burst(&mut rt, &mbufs).unwrap();
        assert_eq!(taken, idxs.to_vec(), "descriptors consumed in guest order");
        vhost.drain(&mut rt);
        for (i, (mbuf, len)) in mbufs.iter().enumerate() {
            let data = rt.read(mbuf).unwrap();
            assert!(
                data[..*len as usize].iter().all(|&b| b == 0xC0 + i as u8),
                "mbuf {i} payload corrupted"
            );
        }
        // Used write-back happened in order after drain.
        assert_eq!(vhost.virtqueue().used_order(), idxs);
        assert_eq!(vhost.stats().delivered, 4);
    }

    #[test]
    fn dequeue_cpu_mode_is_synchronous() {
        let mut rt = DsaRuntime::spr_default();
        let mut vq = Virtqueue::new(&mut rt, 8, 2048);
        let buf = *vq.buffer(0);
        rt.fill_pattern(&buf, 0x99);
        vq.avail.clear();
        vq.offer(0);
        let mut vhost = Vhost::new(vq, Engine::Cpu);
        let mbuf = (rt.alloc(2048, Location::Llc), 800u32);
        let taken = vhost.dequeue_burst(&mut rt, &[mbuf]).unwrap();
        assert_eq!(taken, vec![0]);
        assert_eq!(vhost.stats().delivered, 1);
        assert!(rt.read(&mbuf.0).unwrap()[..800].iter().all(|&b| b == 0x99));
    }

    #[test]
    fn dequeue_stops_when_guest_offers_nothing() {
        let mut rt = rt4();
        let mut vq = Virtqueue::new(&mut rt, 8, 2048);
        vq.avail.clear(); // guest offered nothing
        let mut vhost = Vhost::new(vq, Engine::dsa());
        let mbufs: Vec<(BufferHandle, u32)> =
            (0..2).map(|_| (rt.alloc(2048, Location::Llc), 512u32)).collect();
        let taken = vhost.dequeue_burst(&mut rt, &mbufs).unwrap();
        assert!(taken.is_empty());
    }
}
