//! Output checks: every repetition's simulated outputs are compared with
//! the fingerprints recorded in `fingerprints.txt`, so a change that is
//! meant to alter only speed but alters the trajectory is counted as a
//! failure.

use std::collections::BTreeMap;
use std::path::Path;

/// The fingerprints of the program at the commit that defined the
/// benchmark: one line per (workload, key), where the key is the seed for
/// the engine workloads and the scenario name for `corpus`.
const RECORDED: &str = include_str!("../fingerprints.txt");

/// 64-bit FNV-1a, the hash every fingerprint field uses.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Counts attempted and failed checks for one benchmark run.
pub struct Checks {
    workload: String,
    seed: u64,
    recorded: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable notes (failures, unrecorded keys), printed to stderr.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn new(workload: &str, seed: u64) -> Self {
        let recorded = RECORDED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut parts = l.splitn(3, ' ');
                let (w, key, fp) = (parts.next()?, parts.next()?, parts.next()?);
                (w == workload).then(|| (key.to_string(), fp.to_string()))
            })
            .collect();
        Checks {
            workload: workload.to_string(),
            seed,
            recorded,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Records one check; `what` describes it in the failure note.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("check failed: {}", what()));
        }
    }

    /// Checks a fingerprint against the recorded one for `key` (the seed
    /// for engine workloads, the scenario name for the corpus). A key with
    /// no recorded fingerprint is checked against `fallback` — the first
    /// repetition of this run — so determinism is still enforced, and a
    /// note says the seed is unrecorded.
    pub fn fingerprint(&mut self, key: &str, fp: &str, fallback: Option<&str>) {
        println!("fingerprint {} {key} {fp}", self.workload);
        let expected = match self.recorded.get(key) {
            Some(e) => Some(e.clone()),
            None => {
                let note = format!(
                    "no recorded fingerprint for {} {key}; checking repeatability only",
                    self.workload
                );
                if !self.notes.contains(&note) {
                    self.notes.push(note);
                }
                fallback.map(str::to_string)
            }
        };
        if let Some(expected) = expected {
            let workload = self.workload.clone();
            let seed = self.seed;
            self.check(expected == fp, || {
                format!("{workload} seed {seed} {key}: fingerprint {fp} != expected {expected}")
            });
        }
    }
}

/// A digest of the sources the benchmark builds: every `.rs`, `.toml` and
/// `.txt` file under `crates/` and `vendor/`, the root manifest and lock
/// file, and the benchmark itself. It identifies the code where no git
/// revision is available.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "txt")
            {
                out.push(p);
            }
        }
    }
    let mut files: Vec<std::path::PathBuf> = [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/fingerprints.txt",
    ]
    .iter()
    .map(std::path::PathBuf::from)
    .collect();
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}
