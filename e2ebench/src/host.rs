//! Host fingerprint stamped on every result: core count, CPU model,
//! compiler, source revision and a measured two-thread speed-up, so a
//! change of machine is not mistaken for a change of code.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// What the result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Version of the compiler that built the benchmark.
    pub rustc: String,
    /// Git commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a hash of the sources the benchmark builds.
    pub source_fnv: String,
    /// Wall-clock speed-up of two busy threads over one on the same
    /// fixed work each (`2 · t1 / t2`; 2.0 on two idle cores).
    pub two_thread_speedup: f64,
}

impl Fingerprint {
    /// Measures the current host. Run outside the timed window: the
    /// speed-up probe keeps both cores busy for a few tens of ms.
    pub fn measure() -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rustc: env!("E2EBENCH_RUSTC_VERSION").to_string(),
            commit: git_commit(),
            source_fnv: format!("{:016x}", source_hash(Path::new("."))),
            two_thread_speedup: two_thread_speedup(),
        }
    }

    /// One JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"source_fnv\":\"{}\",\"two_thread_speedup\":{:.3}}}",
            self.nproc,
            self.cpu.replace(['"', '\\'], ""),
            self.rustc.replace(['"', '\\'], ""),
            self.commit,
            self.source_fnv,
            self.two_thread_speedup
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's own commit: `GIT_DIR` pins git to `./.git`, so a
/// checkout without one never reports an enclosing repository's commit.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the relative path and bytes of every file under the
/// build inputs (`Cargo.toml`, `Cargo.lock`, `src`, `crates`, `vendor`,
/// `e2ebench/src`), in sorted path order.
fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for entry in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "vendor",
        "e2ebench/src",
    ] {
        collect(&root.join(entry), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        feed(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            feed(&bytes);
        }
    }
    h
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect(&e.path(), out);
        }
    }
}

/// A fixed amount of integer work.
fn spin(rounds: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// `2 · t1 / t2`: t1 runs the work on one thread, t2 the same work on
/// each of two threads at once. Best of three trials each.
fn two_thread_speedup() -> f64 {
    const ROUNDS: u64 = 20_000_000;
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let t1 = best(&|| {
        spin(ROUNDS);
    });
    let t2 = best(&|| {
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(ROUNDS));
            spin(ROUNDS);
            a.join().expect("spin thread");
        });
    });
    2.0 * t1 / t2
}
