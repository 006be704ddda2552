//! Host-side measurement: the wall clock, the span recorder for traced
//! passes, peak resident memory and the host fingerprint.
//!
//! Every wall-clock read of the benchmark happens in this file. The
//! simulator never sees these values: they time calls into it from
//! outside, so a traced pass replays the untraced digest bit for bit.

use std::fmt::Write as _;
use std::sync::OnceLock;

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // dsa-lint: allow(nondeterminism, the benchmark measures real host time)
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    // dsa-lint: allow(nondeterminism, the benchmark measures real host time)
    let epoch = EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Host seconds elapsed since `t0` (a [`now_ns`] reading).
pub fn secs_since(t0: u64) -> f64 {
    now_ns().saturating_sub(t0) as f64 * 1e-9
}

/// Mean host ns per call of `f`, repeated until it has run for ~2 ms.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t0 = now_ns();
    let mut n = 0u64;
    while n < 4 || now_ns() - t0 < 2_000_000 {
        f();
        n += 1;
    }
    (now_ns() - t0) as f64 / n as f64
}

/// One recorded call into a layer: `<crate>.<call>` with host start and
/// end and the index of the enclosing span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Disabled it records nothing and reads no clock, so an
/// untraced pass pays one branch per call site.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed by [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::default()
    }

    pub fn on() -> Tracer {
        Tracer { on: true, ..Tracer::default() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`; returns its duration in host nanoseconds (0 when
    /// tracing is off).
    pub fn exit(&mut self, span: Open) -> u64 {
        let Some(id) = span.0 else { return 0 };
        self.spans[id].end_ns = now_ns();
        if self.open.last() == Some(&id) {
            self.open.pop();
        }
        self.spans[id].ns()
    }

    /// Records a span timed elsewhere (on a worker thread) under the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.on {
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start_ns, end_ns, parent });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total host nanoseconds and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans.iter().filter(|s| s.name == name).fold((0, 0), |(t, n), s| (t + s.ns(), n + 1))
    }

    /// The spans as one JSON document, with each span's self time (its
    /// duration minus the time its direct children cover).
    pub fn to_json(&self, fingerprint: &Fingerprint) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = String::new();
        let _ = write!(out, "{{\"host\": {}, \"spans\": [", fingerprint.to_json());
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.ns().saturating_sub(child_ns[i])
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Pins glibc's allocator to one policy for the whole run: blocks up to
/// 32 MiB come from the heap and freed memory is never handed back to
/// the kernel. Left alone, glibc moves its mmap and trim thresholds as
/// blocks are freed, so whether a pass's large arrays (`MemSystem`'s
/// 24 MB LLC array among them) land on pages an earlier pass already
/// faulted in or on fresh ones depends on what earlier passes freed, and
/// `setup_s` of one input swings 3× from run to run. Pinned, every timed
/// pass reuses warm memory, as a long-running process that builds
/// services over and over does. Other C libraries keep their own policy.
pub fn pin_allocator_policy() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets allocator parameters; it is called
        // before the benchmark allocates much or starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What makes host-time figures comparable: runs whose fingerprints
/// differ are flagged, not compared.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub fleet_threads: usize,
}

impl Fingerprint {
    pub fn detect() -> Fingerprint {
        let nproc = nproc();
        Fingerprint {
            nproc,
            rustc: env!("LAYERBENCH_RUSTC"),
            profile: env!("LAYERBENCH_PROFILE"),
            fleet_threads: crate::fleet_wide::threads(nproc),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"fleet_threads\": {}}}",
            self.nproc, self.rustc, self.profile, self.fleet_threads
        )
    }
}
