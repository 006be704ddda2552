//! layerbench — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs one workload: a gate pass on the default seed whose
//! replay digest must equal the one recorded in `digests.txt`, a
//! verification pass on `--seed`, then timed passes on `--seed` for
//! `--seconds`, each of which must replay the verification pass's digest.
//! It prints every end-to-end metric. `--trace 1` runs the traced
//! breakdown of every layer (see `layers`) and prints the per-layer
//! metrics; its spans go to `layerbench/out/`. The last line of standard
//! output is one JSON object; the exit code is 0 only when every check
//! held.

mod ctl_burst;
mod device_ops;
mod fleet_wide;
mod host;
mod pass;
mod reference;
mod stats;
mod svc_observed;

use host::{now_ns, secs_since, Fingerprint, Tracer};
use pass::{Metrics, Pass};
use reference::Reference;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The seed whose replay digests `digests.txt` records.
const DEFAULT_SEED: u64 = 1;
/// Timed passes a run makes however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Nominal host seconds of one reference-kernel round: a timed pass's
/// host time is rescaled to a host on which the kernel takes this long.
const REFERENCE_S: f64 = 0.05;
/// `<workload> <digest>` lines: the default-seed replay digests.
const DIGESTS: &str = include_str!("../digests.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    SvcObserved,
    FleetWide,
    DeviceOps,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::SvcObserved, Workload::FleetWide, Workload::DeviceOps];

    fn name(self) -> &'static str {
        match self {
            Workload::SvcObserved => "svc_observed",
            Workload::FleetWide => "fleet_wide",
            Workload::DeviceOps => "device_ops",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One pass on `seed`; `verify` adds the checks too costly for every
    /// timed pass.
    fn pass(self, seed: u64, verify: bool, tr: &mut Tracer) -> Pass {
        match self {
            Workload::SvcObserved => svc_observed::pass(seed, tr),
            Workload::FleetWide => fleet_wide::pass(seed, tr),
            Workload::DeviceOps => device_ops::pass(seed, verify, tr),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: layerbench --workload <svc_observed|fleet_wide|device_ops> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The recorded default-seed digest of `w`.
fn recorded_digest(table: &str, w: Workload) -> Option<u64> {
    let line = table.lines().find(|l| l.split_whitespace().next() == Some(w.name()))?;
    let hex = line.split_whitespace().nth(1)?.trim_start_matches("0x");
    u64::from_str_radix(hex, 16).ok()
}

/// Checks the default-seed gate pass against the recorded digest.
fn gate(w: Workload, got: &Pass, table: &str) -> Option<String> {
    match recorded_digest(table, w) {
        Some(want) if want == got.digest => None,
        Some(want) => Some(format!(
            "{}: default-seed digest {:#018x} != recorded {want:#018x}",
            w.name(),
            got.digest
        )),
        None => Some(format!("{}: no recorded default-seed digest", w.name())),
    }
}

/// Jobs and failures over a run's passes. Jobs fail when the model says
/// so; a broken check fails them all.
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn new() -> Tally {
        Tally { attempted: 0, failed: 0, problems: Vec::new() }
    }

    fn add(&mut self, label: &str, p: &Pass) {
        self.attempted += p.offered;
        self.failed += p.failed;
        self.problems.extend(p.problems.iter().map(|e| format!("{label}: {e}")));
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn json(&self, metrics: &[(String, f64, &'static str)]) -> String {
        let failed = if self.correct() { self.failed } else { self.attempted };
        let mut m = String::new();
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
        )
    }
}

/// A finite JSON number with every digit `f64` carries.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// `--trace 0`: gate, verification pass, then timed passes calibrated
/// against the reference kernel.
fn run(w: Workload, seed: u64, seconds: f64, digests: &str) -> (Tally, Metrics) {
    let mut t = Tally::new();
    let g = w.pass(DEFAULT_SEED, true, &mut Tracer::off());
    t.add("gate", &g);
    t.problems.extend(gate(w, &g, digests));
    let verified = w.pass(seed, true, &mut Tracer::off());
    t.add("verify", &verified);
    println!("# verify pass: digest {:#018x} sim {:?}", verified.digest, verified.sim);
    let kernel = Reference::new();
    let mut around = vec![time_reference(&kernel)];
    let mut timed = Vec::new();
    let mut jps = Vec::new();
    let t0 = now_ns();
    while timed.len() < MIN_PASSES || secs_since(t0) < seconds {
        let p = w.pass(seed, false, &mut Tracer::off());
        around.push(time_reference(&kernel));
        let label = format!("pass {}", timed.len());
        t.add(&label, &p);
        if p.digest != verified.digest || p.sim != verified.sim {
            t.problems.push(format!("{label}: replay diverged from the verification pass"));
        }
        let kernel_s = (around[around.len() - 2] + around[around.len() - 1]) / 2.0;
        let calibrated_s = p.run_s * REFERENCE_S / kernel_s;
        jps.push(p.completed as f64 / calibrated_s.max(1e-9));
        println!(
            "# {label}: setup_s {:.6} run_s {:.6} kernel_s {kernel_s:.6} raw jobs_per_s {:.1} \
             calibrated {:.1}",
            p.setup_s,
            p.run_s,
            p.jobs_per_s(),
            jps[jps.len() - 1]
        );
        timed.push(p);
    }
    let raw: Vec<f64> = timed.iter().map(Pass::jobs_per_s).collect();
    let setup: Vec<f64> = timed.iter().map(|p| p.setup_s).collect();
    println!(
        "# over {} passes: raw jobs_per_s median {:.1} max {:.1}, kernel_s median {:.6}",
        raw.len(),
        stats::median(&raw),
        raw.iter().copied().fold(0.0, f64::max),
        stats::median(&around)
    );
    let sim = verified.sim;
    let mut m = Metrics::default();
    m.put("jobs_per_s", stats::median(&jps), "jobs/s");
    m.put("setup_s", stats::median(&setup), "s");
    m.put("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0), "MiB");
    m.put("sim_gbps", sim.gbps, "GB/s");
    m.put("sim_p99_us", sim.p99_us, "us");
    m.put("sim_miss_rate", sim.miss_rate, "fraction");
    m.put("sim_jain", sim.jain, "index");
    (t, m)
}

/// A workload's traced breakdown: returns its untraced and traced pass.
type Suite = fn(u64, &mut Tracer, &mut Metrics) -> (Pass, Pass);

/// The traced breakdowns, one per layer-loading workload. The governed
/// `ctl_burst` roster stands in for the control plane: its outcome flips
/// with the seed, so it is measured here and not as an end-to-end
/// workload.
const SUITES: [(&str, Suite); 4] = [
    ("svc_observed", svc_observed::layers),
    ("fleet_wide", fleet_wide::layers),
    ("device_ops", device_ops::layers),
    ("ctl_burst", ctl_burst::layers),
];

/// `--trace 1`: every layer's traced breakdown, in rounds until
/// `seconds` have passed, reported as per-metric medians over rounds.
/// Each suite runs an untraced and a traced pass on `seed`, which must
/// replay the same digest; their `jobs_per_s` ratio is the suite's
/// tracing overhead. `MemSystem::new` is timed first, before any
/// allocation of the run has warmed the allocator. The spans of the
/// first round are written to `layerbench/out/`.
fn trace(
    w: Workload,
    seed: u64,
    seconds: f64,
    digests: &str,
    fp: &Fingerprint,
) -> (Tally, Metrics) {
    let mut t = Tally::new();
    let mut out = Metrics::default();
    let t0 = now_ns();
    drop(std::hint::black_box(new_memsys()));
    let first = (now_ns() - t0) as f64;
    let repeat = host::ns_per_call(|| drop(std::hint::black_box(new_memsys())));
    out.put("mem.memsys_new_first_ms", first / 1e6, "ms");
    out.put("mem.memsys_new_ms", repeat / 1e6, "ms");

    let g = w.pass(DEFAULT_SEED, true, &mut Tracer::off());
    t.add("gate", &g);
    t.problems.extend(gate(w, &g, digests));

    let mut rounds: Vec<Metrics> = Vec::new();
    let mut spans: Option<Tracer> = None;
    let t0 = now_ns();
    while rounds.is_empty() || secs_since(t0) < seconds {
        let mut tr = Tracer::on();
        let mut round = Metrics::default();
        let mut overhead = Vec::new();
        for (name, suite) in SUITES {
            let (untraced, traced) = suite(seed, &mut tr, &mut round);
            t.add(&format!("{name} untraced"), &untraced);
            t.add(&format!("{name} traced"), &traced);
            if untraced.digest != traced.digest || untraced.sim != traced.sim {
                t.problems.push(format!("{name}: the traced pass changed the digest"));
            }
            overhead.push((name, untraced.jobs_per_s() / traced.jobs_per_s().max(1e-9)));
        }
        for (name, ratio) in overhead {
            round.put(format!("trace.overhead.{name}"), ratio, "ratio");
        }
        println!("# round {}: {:.1} s", rounds.len(), secs_since(t0));
        rounds.push(round);
        spans.get_or_insert(tr);
    }
    for (i, (name, _, unit)) in rounds[0].0.iter().enumerate() {
        let values: Vec<f64> = rounds.iter().map(|r| r.0[i].1).collect();
        out.put(name.clone(), stats::median(&values), unit);
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-{seed}.json", w.name());
    let tr = spans.unwrap_or_default();
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json(fp))) {
        Ok(()) => println!("# spans: {path} ({} spans)", tr.spans().len()),
        Err(e) => t.problems.push(format!("writing {path}: {e}")),
    }
    (t, out)
}

/// Host seconds of one reference-kernel round.
fn time_reference(kernel: &Reference) -> f64 {
    let t0 = now_ns();
    std::hint::black_box(kernel.run());
    secs_since(t0)
}

fn new_memsys() -> dsa_mem::memsys::MemSystem {
    dsa_mem::memsys::MemSystem::new(dsa_mem::topology::Platform::spr())
}

fn main() -> ExitCode {
    host::pin_allocator_policy();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fp = Fingerprint::detect();
    println!(
        "# layerbench workload={} seed={} seconds={} trace={} host={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fp.to_json()
    );
    let (tally, metrics) = if args.trace {
        trace(args.workload, args.seed, args.seconds, DIGESTS, &fp)
    } else {
        run(args.workload, args.seed, args.seconds, DIGESTS)
    };
    const SHOWN: usize = 20;
    for p in tally.problems.iter().take(SHOWN) {
        println!("# FAILED {p}");
        eprintln!("layerbench: {p}");
    }
    if tally.problems.len() > SHOWN {
        eprintln!("layerbench: ... and {} more failed checks", tally.problems.len() - SHOWN);
    }
    println!("{}", tally.json(&metrics.0));
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload device_ops --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::DeviceOps);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload svc_observed --seed 7 --seconds 10").is_err());
        assert!(args("--workload svc_observed --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload svc_observed --seed x --seconds 1 --trace 0").is_err());
    }

    #[test]
    fn the_gate_trips_on_a_wrong_digest() {
        let w = Workload::FleetWide;
        let p = w.pass(DEFAULT_SEED, true, &mut Tracer::off());
        assert_eq!(gate(w, &p, DIGESTS), None);
        let wrong = format!("{} {:#x}", w.name(), p.digest ^ 1);
        let mut t = Tally::new();
        t.add("gate", &p);
        t.problems.extend(gate(w, &p, &wrong));
        assert!(!t.correct());
        let json = t.json(&[]);
        assert!(json.starts_with("{\"correct\": false"), "{json}");
        assert!(json.contains(&format!("\"failed\": {}", p.offered)), "{json}");
    }

    #[test]
    fn every_workload_has_a_recorded_digest() {
        for w in Workload::ALL {
            assert!(recorded_digest(DIGESTS, w).is_some(), "{}", w.name());
        }
    }
}
