//! The result line, provenance, and the metric catalogue that
//! `BENCHMARK.json` must list.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Version of the detail line's layout.
pub const SCHEMA_VERSION: u32 = 1;

/// End-to-end metrics (name, unit), printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("audits_per_cpu_s", "1/cpu_s"),
    ("ingest_designs_per_cpu_s", "1/cpu_s"),
    ("train_pairs_per_cpu_s", "1/cpu_s"),
    ("detector_accuracy", "ratio"),
    ("flag_rate", "ratio"),
    ("recall_at_1", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hdl.preprocess.us", "us"),
    ("hdl.lex.us", "us"),
    ("hdl.parse.us", "us"),
    ("hdl.flatten.us", "us"),
    ("dfg.extract.us", "us"),
    ("dfg.trim.us", "us"),
    ("dfg.nodes", "count"),
    ("dfg.trim.removed_ratio", "ratio"),
    ("nn.graph_input.us", "us"),
    ("nn.embed.us", "us"),
    ("tensor.embed.macs", "count"),
    ("eval.query.us", "us"),
    ("eval.query.rows_scanned", "count"),
    ("eval.query.prune_ratio", "ratio"),
    ("eval.query.rescore_ratio", "ratio"),
    ("eval.query.bytes_scanned", "bytes"),
    ("tensor.query.flops", "count"),
    ("eval.insert.us", "us"),
    ("core.ingest.us", "us"),
    ("core.persist.save_ms", "ms"),
    ("core.persist.load_ms", "ms"),
    ("core.service.queue_high_water", "count"),
    ("core.service.internal_p50_us", "us"),
    ("core.service.internal_p99_us", "us"),
    ("core.service.client_overhead_us", "us"),
    ("nn.train.us_per_pair", "us"),
    ("nn.checkpoint.write_ms", "ms"),
    ("nn.checkpoint.load_ms", "ms"),
    ("trace.traced_audits_per_s", "1/s"),
    ("trace.untraced_audits_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Checks the set against the catalogue for the mode: every metric
    /// present, nothing extra, every value finite.
    pub fn validate(&self, trace: bool) -> Result<(), String> {
        let spec = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in spec {
            match self.0.get(name) {
                None => return Err(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        if let Some(extra) = self.0.keys().find(|k| !spec.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(())
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in catalogue order.
    pub fn to_json(&self, trace: bool) -> String {
        let spec = if trace { PER_LAYER } else { END_TO_END };
        let body: Vec<String> = spec
            .iter()
            .filter_map(|(name, unit)| {
                self.0.get(name).map(|v| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        num(*v)
                    )
                })
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn text(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Free-form facts about a run that are not catalogue metrics: sample
/// counts, phase tallies, generator lateness. Rendered as a flat JSON
/// object in insertion order.
#[derive(Debug, Default)]
pub struct Details(Vec<(String, String)>);

impl Details {
    pub fn num(&mut self, key: impl Into<String>, v: f64) {
        self.0.push((key.into(), num(v)));
    }

    pub fn text(&mut self, key: impl Into<String>, v: &str) {
        self.0.push((key.into(), text(v)));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", text(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn lines(&self) -> impl Iterator<Item = &(String, String)> {
        self.0.iter()
    }
}

/// Where and on what the numbers were taken: core count, the SIMD
/// features the kernels could use, and the source revision.
pub fn provenance(workload: &str, seed: u64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (avx2, fma, avx512f) = simd_flags();
    format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"workload\": {}, \"seed\": {seed}, \"trace\": {}, \
         \"git_rev\": {}, \"source_hash\": {}, \"host\": {{\"cores\": {cores}, \"arch\": {}, \
         \"avx2\": {avx2}, \"fma\": {fma}, \"avx512f\": {avx512f}}}}}",
        text(workload),
        u8::from(trace),
        text(&git_rev().unwrap_or_else(|| "unknown".to_string())),
        text(&format!("{:016x}", source_hash(Path::new(".")))),
        text(std::env::consts::ARCH),
    )
}

#[cfg(target_arch = "x86_64")]
fn simd_flags() -> (bool, bool, bool) {
    (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
        std::arch::is_x86_feature_detected!("avx512f"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_flags() -> (bool, bool, bool) {
    (false, false, false)
}

/// The commit checked out at the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(r)),
        None => Some(head.to_string()),
    }
}

fn packed_ref(name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (sha, r) = l.split_once(' ')?;
        (r == name).then(|| sha.to_string())
    })
}

/// FNV-1a over the path and bytes of every `.rs` and `Cargo.toml` file
/// under `crates/` and `perfbench/`, in sorted order: identifies the
/// measured source even where there is no git metadata.
pub fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if p.is_dir() {
            collect(&p, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(p);
        }
    }
}

/// CPU time this process has used so far, user plus system, in seconds
/// (`/proc/self/stat`, 10 ms ticks; threads that have exited included).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // fields after the parenthesised command name; utime and
            // stime are the 14th and 15th fields of the whole line
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / CLOCK_TICKS_PER_S)
        })
        .unwrap_or(f64::NAN)
}

/// `USER_HZ`, the unit of `/proc/self/stat` times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` declares, in file order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &json[start..];
        let end = rest.find(']').expect("section closes");
        rest[..end]
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn field(entry: &str, key: &str) -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes");
        rest[open..open + close].to_string()
    }

    fn owned(spec: &[(&str, &str)]) -> Vec<(String, String)> {
        spec.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn validate_rejects_missing_extra_and_non_finite() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.0);
        }
        assert!(m.validate(false).is_ok());
        assert!(m.validate(true).is_err());
        m.set("peak_rss_mb", f64::NAN);
        assert!(m.validate(false).is_err());
        m.set("peak_rss_mb", 1.0);
        m.set("hdl.lex.us", 1.0);
        assert!(m.validate(false).is_err());
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(num(1.203_456_789_012_3), "1.2034567890123");
        assert_eq!(num(2.0), "2.0");
        assert_eq!(text("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
