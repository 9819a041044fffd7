//! Machine facts, file helpers, a seeded RNG, and the counting `Io`.

use pfd::relation::{Io, SharedBytes, StdIo};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Machine-wide steal time so far, in ms (`/proc/stat`, USER_HZ = 100).
pub fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// CPU time of this process so far, all threads, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`): the work done, without the time spent
/// waiting on the disk, on another thread or for the hypervisor.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_s() -> f64 {
    f64::NAN
}

/// Keys of the speed probe: fixed, so every run and every build probes
/// the same work.
static PROBE_KEYS: OnceLock<Vec<u64>> = OnceLock::new();
/// Seconds of every probe this run.
static PROBES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Sample the machine's speed: time a fixed, benchmark-owned kernel —
/// hash-map inserts and lookups over 200k keys folded onto 150k entries,
/// a few MB of random memory access, about 13 ms — and record it. The
/// kernel never calls the program, so a change to the program cannot
/// move it; what moves it is the host: on a shared 2-vCPU host its time
/// drifts with the program's over minutes, while a pure arithmetic loop
/// does not (see `LAYERS.md`, "Noise and bounds").
pub fn probe() {
    let keys = PROBE_KEYS.get_or_init(|| {
        let mut rng = Rng::new(0x5eed);
        (0..200_000).map(|_| rng.next_u64()).collect()
    });
    let start = Instant::now();
    let mut map: HashMap<u64, u32> = HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        *map.entry(k % 150_000).or_insert(0) += i as u32;
    }
    let mut sum = 0u32;
    for k in keys {
        sum = sum.wrapping_add(*map.get(&(k % 150_000)).unwrap_or(&0));
    }
    std::hint::black_box(sum);
    let elapsed = start.elapsed().as_secs_f64();
    PROBES.lock().expect("probe log poisoned").push(elapsed);
}

/// Every probe time of this run, in seconds.
pub fn probes() -> Vec<f64> {
    PROBES.lock().expect("probe log poisoned").clone()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Copy every file under `from` to `to`, recreating directories.
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Total bytes of the files under `dir`.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed gives the same command streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `StdIo` that counts syncs and bytes written — handed to the durable
/// server through the public `Io` trait.
#[derive(Default)]
pub struct CountingIo {
    syncs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingIo {
    /// `(syncs, bytes written)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.syncs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

impl Io for CountingIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdIo.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        StdIo.write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        StdIo.append(path, data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        StdIo.truncate(path, len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        StdIo.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdIo.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        StdIo.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        StdIo.exists(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdIo.create_dir_all(path)
    }

    fn read_shared(&self, path: &Path) -> io::Result<SharedBytes> {
        StdIo.read_shared(path)
    }
}
