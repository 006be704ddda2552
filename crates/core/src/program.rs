//! Compiled op programs — the zero-allocation prepare/step layer.
//!
//! The paper's guidance on offload overhead (Fig. 5) is blunt: descriptor
//! *allocation* dominates the software side of an offload, and real
//! deployments amortize it by pre-allocating descriptors once and reusing
//! them per submission. This module is that idea as an API. A
//! [`ProgramBuilder`] **compiles** a sequence of [`Job`]s — op kind,
//! operand addresses and sizes, descriptor flags, and placement
//! (device/WQ) — into a flat [`OpProgram`] of fixed-width [`OpInstr`]
//! words ([`Job::instr`]), validating every resulting descriptor against
//! the device's [`DeviceCaps`](dsa_device::config::DeviceCaps) exactly
//! once, at [`prepare`](ProgramBuilder::prepare) time.
//!
//! Replay then touches no heap: [`OpProgram::fetch`] rebuilds one pooled
//! [`Descriptor`] slot in place ([`Descriptor::rebuild`] resets every
//! field, so nothing leaks between instructions), and
//! [`OpProgram::step`] submits through [`Job::from_instr`]. `Job` →
//! [`OpInstr`] → [`Job::from_instr`] is the one compiled path: the
//! rebuilt descriptor is field-for-field identical to the one the `Job`
//! carried, so every execution digest is bit-identical to executing the
//! jobs directly.
//!
//! ```
//! use dsa_core::prelude::*;
//! use dsa_mem::buffer::Location;
//!
//! let mut rt = DsaRuntime::spr_default();
//! let src = rt.alloc(4096, Location::local_dram());
//! let dst = rt.alloc(4096, Location::local_dram());
//! rt.fill_pattern(&src, 7);
//!
//! // Compile once…
//! let mut prog = ProgramBuilder::new()
//!     .push(Job::memcpy(&src, &dst))
//!     .push(Job::crc32(&dst))
//!     .prepare(&rt)?;
//! // …replay with no steady-state allocation.
//! for _ in 0..3 {
//!     prog.rewind();
//!     prog.run(&mut rt)?;
//! }
//! assert_eq!(rt.read(&dst).unwrap().len(), 4096);
//! # Ok::<(), dsa_core::DsaError>(())
//! ```

use crate::error::DsaError;
use crate::job::{Job, JobReport};
use crate::runtime::DsaRuntime;
use dsa_device::descriptor::{Descriptor, Flags, OpParams, Opcode};
use dsa_device::device::SubmitError;
use dsa_ops::dif::DifConfig;

/// One fixed-width compiled instruction: a descriptor's worth of operands
/// plus placement, flattened into plain words so a program is a dense
/// `Vec<OpInstr>` with no per-instruction heap cells.
///
/// The operation-specific [`OpParams`] collapse into two scalar operand
/// words (`operand`, `operand2`) using the opcode to pick the layout —
/// the same trick as the 64-byte wire format's bytes 40..52.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpInstr {
    /// Operation code.
    pub opcode: Opcode,
    /// Raw descriptor flag bits ([`Flags::bits`]).
    pub flag_bits: u32,
    /// Source address (0 when unused).
    pub src: u64,
    /// Destination address (0 when unused).
    pub dst: u64,
    /// Transfer size in bytes.
    pub len: u32,
    /// First operand word: pattern, second destination, delta record
    /// address, or packed DIF config, per the opcode.
    pub operand: u64,
    /// Second operand word: CRC seed or delta max-size, per the opcode.
    pub operand2: u32,
    /// Completion-record address (0 = none).
    pub completion: u64,
    /// Target device index.
    pub device: u16,
    /// Target WQ index on that device.
    pub wq: u16,
}

impl OpInstr {
    /// Compiles a descriptor (plus placement) into an instruction word.
    /// Lossless: [`descriptor`](Self::descriptor) inverts it exactly.
    /// Callers outside the crate compile through [`Job::instr`].
    pub(crate) fn from_descriptor(desc: &Descriptor, device: u16, wq: u16) -> OpInstr {
        let (operand, operand2) = match &desc.params {
            OpParams::None => (0, 0),
            OpParams::Pattern(p) => (*p, 0),
            OpParams::Dest2(d) => (*d, 0),
            OpParams::CrcSeed(s) => (0, *s),
            OpParams::Delta { record_addr, max_size } => (*record_addr, *max_size),
            OpParams::Dif(cfg) => (cfg.pack(), 0),
        };
        OpInstr {
            opcode: desc.opcode,
            flag_bits: desc.flags.bits(),
            src: desc.src,
            dst: desc.dst,
            len: desc.xfer_size,
            operand,
            operand2,
            completion: desc.completion_addr,
            device,
            wq,
        }
    }

    /// Recovers the operation-specific params from the operand words,
    /// using the opcode to pick the layout. Total: the decode is
    /// infallible for every opcode (DIF configs unpack totally).
    pub fn params(&self) -> OpParams {
        match self.opcode {
            Opcode::Fill | Opcode::ComparePattern => OpParams::Pattern(self.operand),
            Opcode::Dualcast => OpParams::Dest2(self.operand),
            Opcode::CrcGen | Opcode::CopyCrc => OpParams::CrcSeed(self.operand2),
            Opcode::CreateDelta | Opcode::ApplyDelta => {
                OpParams::Delta { record_addr: self.operand, max_size: self.operand2 }
            }
            Opcode::DifCheck | Opcode::DifInsert | Opcode::DifStrip | Opcode::DifUpdate => {
                OpParams::Dif(DifConfig::unpack(self.operand))
            }
            _ => OpParams::None,
        }
    }

    /// Materializes a fresh descriptor (allocation-free: every `OpParams`
    /// variant is plain data).
    pub fn descriptor(&self) -> Descriptor {
        let mut d = Descriptor::nop();
        self.write_into(&mut d);
        d
    }

    /// Refills a pooled descriptor slot in place — the per-step hot path.
    /// Produces exactly the descriptor this instruction was compiled from,
    /// regardless of what the slot held before.
    pub fn write_into(&self, slot: &mut Descriptor) {
        slot.rebuild(self.opcode, self.src, self.dst, self.len, self.params());
        slot.flags = Flags::from_bits(self.flag_bits);
        slot.completion_addr = self.completion;
    }
}

/// Compiles a sequence of [`Job`]s into an [`OpProgram`].
///
/// Each pushed job keeps its own descriptor flags and placement, exactly
/// as [`Batch::push`](crate::job::Batch::push) keeps its descriptor. The
/// terminal [`prepare`](Self::prepare) validates each compiled descriptor
/// against the target device's capabilities, so replay never pays a
/// validation-failure surprise mid-stream.
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<OpInstr>,
}

impl ProgramBuilder {
    /// An empty program.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Appends a job's descriptor and placement.
    pub fn push(mut self, job: Job) -> ProgramBuilder {
        self.instrs.push(job.instr());
        self
    }

    /// Number of instructions compiled so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Compiles the program: checks placement against `rt`'s topology and
    /// validates every instruction's descriptor against the target
    /// device's capabilities — the one-time cost that buys allocation- and
    /// validation-free replay.
    ///
    /// # Errors
    ///
    /// [`DsaError::UnknownDevice`]/[`DsaError::Submit`] for placement
    /// outside the topology; [`DsaError::Descriptor`] for the first
    /// instruction whose descriptor fails spec conformance.
    pub fn prepare(self, rt: &DsaRuntime) -> Result<OpProgram, DsaError> {
        let mut slot = Descriptor::nop();
        for i in &self.instrs {
            let device = i.device as usize;
            if device >= rt.device_count() {
                return Err(DsaError::UnknownDevice { device });
            }
            let dev = rt.device(device);
            if i.wq as usize >= dev.wq_count() {
                return Err(DsaError::Submit(SubmitError::UnknownWq { wq: i.wq as usize }));
            }
            i.write_into(&mut slot);
            slot.validate(dev.caps())?;
        }
        Ok(OpProgram { instrs: self.instrs, pc: 0, slot })
    }
}

/// A compiled, validated program plus its single pooled descriptor slot.
///
/// Execution state is just the program counter; [`rewind`](Self::rewind)
/// makes the program reusable across replays without reallocation.
#[derive(Clone, Debug)]
pub struct OpProgram {
    instrs: Vec<OpInstr>,
    pc: usize,
    slot: Descriptor,
}

impl OpProgram {
    /// Total instruction count.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The program counter: index of the next instruction to fetch.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Instructions left before the program is exhausted.
    pub fn remaining(&self) -> usize {
        self.instrs.len() - self.pc
    }

    /// Resets the program counter for another replay.
    pub fn rewind(&mut self) {
        self.pc = 0;
    }

    /// The compiled instructions.
    pub fn instrs(&self) -> &[OpInstr] {
        &self.instrs
    }

    /// The pooled descriptor slot as last filled by
    /// [`fetch`](Self::fetch).
    pub fn slot(&self) -> &Descriptor {
        &self.slot
    }

    /// Fetches the next instruction: advances the program counter and
    /// refills the pooled slot in place. Returns `None` once exhausted.
    /// Allocation-free.
    pub fn fetch(&mut self) -> Option<OpInstr> {
        let i = *self.instrs.get(self.pc)?;
        self.pc += 1;
        i.write_into(&mut self.slot);
        Some(i)
    }

    /// Executes one instruction synchronously (submit, spin-poll, advance
    /// the clock), returning its report — or `Ok(None)` when the program
    /// is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates submission failures; the program counter has already
    /// advanced past the failing instruction.
    pub fn step(&mut self, rt: &mut DsaRuntime) -> Result<Option<JobReport>, DsaError> {
        let Some(i) = self.fetch() else {
            return Ok(None);
        };
        Job::from_instr(&i).execute(rt).map(Some)
    }

    /// Runs every remaining instruction synchronously; returns how many
    /// executed.
    ///
    /// # Errors
    ///
    /// Stops at and propagates the first failure.
    pub fn run(&mut self, rt: &mut DsaRuntime) -> Result<u64, DsaError> {
        let mut n = 0;
        while self.step(rt)?.is_some() {
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_device::config::{DeviceConfig, GroupConfig, WqConfig};
    use dsa_device::descriptor::Status;
    use dsa_mem::buffer::Location;
    use dsa_mem::memory::BufferHandle;
    use dsa_mem::topology::Platform;
    use dsa_ops::dif::DifBlockSize;

    fn desc_shapes() -> Vec<Descriptor> {
        let cfg = DifConfig { block: DifBlockSize::B512, app_tag: 3, starting_ref_tag: 17 };
        vec![
            Descriptor::nop(),
            Descriptor::drain(),
            Descriptor::memmove(0x1000, 0x2000, 4096),
            Descriptor::fill(0x1000, 4096, 0xAB),
            Descriptor::compare(0x1000, 0x2000, 4096),
            Descriptor::compare_pattern(0x1000, 4096, 0xCD),
            Descriptor::crc_gen(0x1000, 4096).with_completion_addr(0x40),
            Descriptor::copy_crc(0x1000, 0x2000, 4096),
            Descriptor::dualcast(0x1000, 0x2000, 0x4000, 4096),
            Descriptor::delta_create(0x1000, 0x2000, 4096, 0x3000, 1024),
            Descriptor::delta_apply(0x3000, 256, 0x2000, 4096),
            Descriptor::dif_insert(0x1000, 0x2000, 1024, cfg),
            Descriptor::dif_check(0x1000, 1040, cfg),
            Descriptor::cache_flush(0x1000, 4096).with_cache_control().with_block_on_fault(),
        ]
    }

    #[test]
    fn instr_roundtrips_every_descriptor_shape() {
        for d in desc_shapes() {
            let i = OpInstr::from_descriptor(&d, 1, 2);
            assert_eq!(i.descriptor(), d, "{:?}", d.opcode);
            assert_eq!(i.device, 1);
            assert_eq!(i.wq, 2);
            // Pooled-slot rebuild from a dirty slot matches too.
            let mut slot = Descriptor::dualcast(9, 8, 0x7000, 7).with_completion_addr(0x20);
            i.write_into(&mut slot);
            assert_eq!(slot, d);
            // Job -> OpInstr -> Job is lossless for descriptor and placement.
            let job = Job::from_descriptor(d.clone()).on_device(1).on_wq(2);
            assert_eq!(job.instr(), i);
            assert_eq!(Job::from_instr(&i).descriptor(), &d);
            assert_eq!(Job::from_instr(&i).instr(), i);
        }
    }

    #[test]
    fn prepare_validates_against_device_caps() {
        let rt = DsaRuntime::spr_default();
        // A compiled delta op with a misaligned size must fail at prepare,
        // not at replay.
        let bad = Descriptor::delta_create(0x1000, 0x2000, 100, 0x3000, 64);
        let err = ProgramBuilder::new().push(Job::from_descriptor(bad)).prepare(&rt).unwrap_err();
        assert!(matches!(err, DsaError::Descriptor(_)), "{err:?}");
        // Placement outside the topology fails too.
        let err = ProgramBuilder::new().push(Job::nop().on_device(9)).prepare(&rt).unwrap_err();
        assert_eq!(err, DsaError::UnknownDevice { device: 9 });
        let err = ProgramBuilder::new().push(Job::nop().on_wq(99)).prepare(&rt).unwrap_err();
        assert!(matches!(err, DsaError::Submit(_)));
        // An index past u16 must not wrap onto device 0 / WQ 0.
        let err = ProgramBuilder::new().push(Job::nop().on_device(1 << 16)).prepare(&rt);
        assert!(matches!(err, Err(DsaError::UnknownDevice { .. })), "{err:?}");
        let err = ProgramBuilder::new().push(Job::nop().on_wq(1 << 16)).prepare(&rt);
        assert!(matches!(err, Err(DsaError::Submit(_))), "{err:?}");
    }

    /// One dedicated and one shared WQ, so a job can carry `on_wq(1)` and
    /// take the `ENQCMD` path.
    fn two_wq_runtime() -> DsaRuntime {
        let device = DeviceConfig {
            groups: vec![GroupConfig::with_engines(1)],
            wqs: vec![WqConfig::dedicated(32, 0), WqConfig::shared(32, 0)],
        };
        DsaRuntime::builder(Platform::spr()).device(device).build()
    }

    #[test]
    fn program_replay_matches_job_path_results() {
        // The compiled path and the per-job path must produce identical
        // data movement, completion records and clocks for every data op
        // a `Job` constructs, flags and placement included.
        struct Bufs {
            src: BufferHandle,
            dst: BufferHandle,
            dst2: BufferHandle,
            prot: BufferHandle,
        }
        let setup = |rt: &mut DsaRuntime| {
            let src = rt.alloc(4096, Location::local_dram());
            let dst = rt.alloc(4096, Location::local_dram());
            let dst2 = rt.alloc(4096, Location::local_dram());
            // 8 × (512 B + 8 B tuple) protected blocks.
            let prot = rt.alloc(4160, Location::local_dram());
            rt.fill_pattern(&src, 0x5A);
            Bufs { src, dst, dst2, prot }
        };
        let jobs = |b: &Bufs| {
            let cfg = DifConfig { block: DifBlockSize::B512, app_tag: 7, starting_ref_tag: 1 };
            vec![
                Job::memcpy(&b.src, &b.dst).on_wq(1).cache_control().block_on_fault(),
                Job::crc32(&b.dst),
                Job::compare(&b.src, &b.dst),
                Job::fill(&b.dst, 0x1111_2222_3333_4444),
                Job::compare_pattern(&b.dst, 0x1111_2222_3333_4444),
                Job::copy_crc(&b.src, &b.dst2).cache_control(),
                Job::dualcast(&b.src, &b.dst, &b.dst2).on_wq(1),
                Job::dif_insert(&b.src, &b.prot, cfg).block_on_fault(),
                Job::cache_flush(&b.dst),
            ]
        };

        let mut rt_prog = two_wq_runtime();
        let mut rt_jobs = two_wq_runtime();
        let pb = setup(&mut rt_prog);
        let jb = setup(&mut rt_jobs);

        let mut builder = ProgramBuilder::new();
        for job in jobs(&pb) {
            builder = builder.push(job);
        }
        let mut prog = builder.prepare(&rt_prog).unwrap();
        assert_eq!(prog.len(), 9);

        for job in jobs(&jb) {
            let want = job.execute(&mut rt_jobs).unwrap();
            let got = prog.step(&mut rt_prog).unwrap().expect("one instruction per job");
            assert_eq!(got.record, want.record);
            assert_eq!(got.finished, want.finished, "clocks must be bit-identical");
        }
        assert!(prog.step(&mut rt_prog).unwrap().is_none());

        for (p, j) in [(pb.src, jb.src), (pb.dst, jb.dst), (pb.dst2, jb.dst2), (pb.prot, jb.prot)] {
            assert_eq!(rt_prog.read(&p).unwrap(), rt_jobs.read(&j).unwrap());
        }
        assert_eq!(rt_prog.now(), rt_jobs.now(), "clocks must be bit-identical");
        let (tp, tj) = (rt_prog.device(0).telemetry(), rt_jobs.device(0).telemetry());
        assert_eq!(
            (tp.descriptors, tp.bytes_read, tp.bytes_written),
            (tj.descriptors, tj.bytes_read, tj.bytes_written)
        );
    }

    #[test]
    fn rewound_replay_is_steady_state() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(4096, Location::local_dram());
        let dst = rt.alloc(4096, Location::local_dram());
        rt.fill_pattern(&src, 9);
        let mut prog = ProgramBuilder::new()
            .push(Job::memcpy(&src, &dst))
            .push(Job::compare(&src, &dst))
            .prepare(&rt)
            .unwrap();
        for round in 0..5 {
            prog.rewind();
            assert_eq!(prog.pc(), 0);
            assert_eq!(prog.remaining(), 2);
            let copy = prog.step(&mut rt).unwrap().unwrap();
            assert_eq!(copy.record.status, Status::Success, "round {round}");
            let cmp = prog.step(&mut rt).unwrap().unwrap();
            assert_eq!(cmp.record.status, Status::Success, "compare matches after copy");
            assert!(prog.step(&mut rt).unwrap().is_none(), "program exhausted");
        }
    }

    #[test]
    fn policy_flags_apply_to_data_ops_only() {
        let rt = DsaRuntime::spr_default();
        let a = BufferHandle::from_raw(0x1000, 64);
        let b = BufferHandle::from_raw(0x2000, 64);
        let prog = ProgramBuilder::new()
            .push(Job::nop())
            .push(Job::memcpy(&a, &b).cache_control().block_on_fault())
            .prepare(&rt)
            .unwrap();
        let nop = prog.instrs()[0].descriptor();
        assert!(!nop.flags.contains(Flags::CACHE_CONTROL), "nop must stay flag-clean");
        let cp = prog.instrs()[1].descriptor();
        assert!(cp.flags.contains(Flags::CACHE_CONTROL));
        assert!(cp.flags.contains(Flags::BLOCK_ON_FAULT));
        // The spec reserves cache control on nop/drain: prepare refuses it.
        for job in [Job::nop().cache_control(), Job::drain().cache_control()] {
            let err = ProgramBuilder::new().push(job).prepare(&rt).unwrap_err();
            assert!(matches!(err, DsaError::Descriptor(_)), "{err:?}");
        }
    }
}
