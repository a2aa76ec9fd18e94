//! The host record every output carries, so that numbers from different
//! hosts are never compared silently.

use std::fs;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model string (`/proc/cpuinfo` "model name").
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
}

impl Host {
    /// Probes the current host.
    #[must_use]
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_owned(),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The record as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            json_string(&self.cpu),
            json_string(&self.rustc),
            json_string(&self.commit)
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Resolves `HEAD` by reading `.git` in the working directory (the
/// benchmark runs from the repository root), without running git.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_owned());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_owned)
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
