//! End-to-end and per-layer benchmark of the gnn4ip audit system.
//!
//! ```text
//! gnn4ip-perfbench --workload <serve_rtl|scan_rtl|netlist_obf> --seed <n>
//!                  --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it hashes `crates/` for provenance).
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! holds provenance and per-phase details. A human-readable summary
//! goes to standard error. The exit code is non-zero when any verdict
//! disagrees with the serial reference, any request fails, or the run
//! is otherwise not a valid measurement.

#![forbid(unsafe_code)]

mod batch;
mod check;
mod gen;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{Details, Metrics};
use setup::WorkDir;

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

pub const WORKLOADS: &[&str] = &["serve_rtl", "scan_rtl", "netlist_obf"];

/// Run parameters shared by every workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: WorkDir,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub details: Details,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Set when the run measured something other than the system (for
    /// example an open-loop generator that fell behind).
    pub invalid: bool,
}

impl Outcome {
    /// Records `attempted` operations of which `failed` failed, keeping
    /// the first few failure reasons.
    pub fn count(&mut self, attempted: u64, failed: u64, why: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.errors.len() < 8 {
            self.errors.push(format!("{failed} of {attempted}: {why}"));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Set-up (repeated, timed) then the measured phases or the traced run.
fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let setup = match ctx.workload.as_str() {
        "serve_rtl" => {
            let mut rates = Vec::new();
            let mut r = setup::repeat_timed(reps, || {
                serve::setup(ctx).inspect(|i| rates.extend(&i.trained.pair_rates))
            })?;
            r.last.trained.pair_rates = rates;
            let (wall_s, cpu_s) = (r.wall_s, r.cpu_s);
            if ctx.trace {
                trace::run(ctx, &r.last.trained, &r.last.corpus, &r.last.pool, &mut out)?;
            } else {
                serve::run(ctx, r.last, &mut out)?;
            }
            (wall_s, cpu_s)
        }
        name => {
            let shape = if name == "scan_rtl" {
                batch::SCAN
            } else {
                batch::NETLIST
            };
            let mut rates = Vec::new();
            let mut r = setup::repeat_timed(reps, || {
                batch::setup(ctx, shape).inspect(|i| rates.extend(&i.trained.pair_rates))
            })?;
            r.last.trained.pair_rates = rates;
            let (wall_s, cpu_s) = (r.wall_s, r.cpu_s);
            if ctx.trace {
                trace::run(
                    ctx,
                    &r.last.trained,
                    &r.last.corpus,
                    &r.last.suspects,
                    &mut out,
                )?;
            } else {
                batch::run(ctx, shape, r.last, &mut out)?;
            }
            (wall_s, cpu_s)
        }
    };
    if !ctx.trace {
        out.metrics.set("setup_s", setup.1);
    }
    out.details.num("setup_cpu_s_median", setup.1);
    out.details.num("setup_wall_s_median", setup.0);
    out.details.num("setup_reps", reps as f64);
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::new(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
    };
    let mut out = match run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = out.metrics.validate(ctx.trace) {
        out.errors.push(e);
        out.invalid = true;
    }
    let correct = out.failed == 0 && !out.invalid && out.attempted > 0;

    eprintln!(
        "perfbench {} seed {} ({} run)",
        ctx.workload,
        ctx.seed,
        if ctx.trace { "traced" } else { "untraced" }
    );
    let spec = if ctx.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for (name, unit) in spec {
        if let Some(v) = out.metrics.get(name) {
            eprintln!("  {name:<34} {v:>14.4} {unit}");
        }
    }
    eprintln!(
        "  failed_share {:.6} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for (k, v) in out.details.lines() {
        eprintln!("  [{k}] {v}");
    }
    for e in &out.errors {
        eprintln!("  error: {e}");
    }

    println!(
        "{{\"provenance\": {}, \"details\": {}}}",
        report::provenance(&ctx.workload, ctx.seed, ctx.trace),
        out.details.to_json()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json(ctx.trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload scan_rtl --seed 3 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("scan_rtl", 3, 12.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload scan_rtl").is_err());
        assert!(args("--workload scan_rtl --seed 1 --trace 2").is_err());
        assert!(args("--workload scan_rtl --seed 1 --seconds 0").is_err());
    }
}
