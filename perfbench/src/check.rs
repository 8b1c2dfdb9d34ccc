//! Reference verdicts from the serial `AuditPipeline::audit` path, and the
//! comparisons every measured verdict must pass.

use gnn4ip_core::{AuditPipeline, AuditVerdict};

use crate::gen::Suspect;

/// What the serial path said about one suspect.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub best: Option<(String, f32)>,
    pub matches: usize,
    pub piracy: bool,
}

impl Expected {
    fn of(v: &AuditVerdict) -> Self {
        Self {
            best: v.best().map(|m| (m.name.clone(), m.score)),
            matches: v.matches.len(),
            piracy: v.piracy,
        }
    }

    /// The exact `VERDICT` line the service must answer with.
    pub fn line(&self, name: &str) -> String {
        let best = self
            .best
            .as_ref()
            .map_or_else(|| "-".to_string(), |(n, s)| format!("{n}:{s:+.4}"));
        format!(
            "VERDICT {name} matches={} piracy={} best={best}",
            self.matches,
            u8::from(self.piracy)
        )
    }
}

/// Audits each suspect serially, then empties the detector's embedding
/// cache so measured audits do not start warm.
pub fn reference(pipeline: &AuditPipeline, suspects: &[Suspect]) -> Result<Vec<Expected>, String> {
    let out = suspects
        .iter()
        .map(|s| {
            pipeline
                .audit(&s.source, None)
                .map(|v| Expected::of(&v))
                .map_err(|e| format!("reference audit of {}: {e}", s.name))
        })
        .collect();
    pipeline.detector().clear_cache();
    out
}

/// A measured verdict must equal the reference bit for bit: same best
/// name, same score bits, same flag, same match count.
pub fn same(expected: &Expected, got: &AuditVerdict) -> bool {
    let got = Expected::of(got);
    got.matches == expected.matches
        && got.piracy == expected.piracy
        && match (&got.best, &expected.best) {
            (Some((a, x)), Some((b, y))) => a == b && x.to_bits() == y.to_bits(),
            (None, None) => true,
            _ => false,
        }
}

/// How a measured verdict compares with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// Bit-identical to the reference.
    Same,
    /// Its best match is a design written during the run (name starts
    /// with the write prefix) scoring at least the reference's best: a
    /// legitimate change, not a failure.
    Displaced,
    Mismatch,
}

/// [`same`], allowing for designs written after the reference was taken.
pub fn judge(expected: &Expected, got: &AuditVerdict, write_prefix: &str) -> Judgement {
    if same(expected, got) {
        return Judgement::Same;
    }
    let floor = expected.best.as_ref().map_or(f32::NEG_INFINITY, |b| b.1);
    match got.best() {
        Some(m) if m.name.starts_with(write_prefix) && m.score >= floor => Judgement::Displaced,
        _ => Judgement::Mismatch,
    }
}

/// [`judge`] on the service's `VERDICT` line for suspect `name`. A
/// displaced verdict must score at least the reference at the printed
/// precision.
pub fn judge_line(expected: &Expected, name: &str, line: &str, write_prefix: &str) -> Judgement {
    if line == expected.line(name) {
        return Judgement::Same;
    }
    let floor = expected.best.as_ref().map_or(f32::NEG_INFINITY, |b| b.1);
    match (parse_line(line), line_score(line)) {
        (Some((best, _)), Some(score))
            if best.starts_with(write_prefix) && score + 5e-5 >= floor =>
        {
            Judgement::Displaced
        }
        _ => Judgement::Mismatch,
    }
}

/// Parsed fields of a `VERDICT` line: (best name, piracy flag).
pub fn parse_line(line: &str) -> Option<(&str, bool)> {
    let rest = line.strip_prefix("VERDICT ")?;
    let piracy = rest.split(' ').find_map(|f| f.strip_prefix("piracy="))? == "1";
    let best = rest.split(' ').find_map(|f| f.strip_prefix("best="))?;
    let name = best.rsplit_once(':').map_or(best, |(n, _)| n);
    Some((name, piracy))
}

/// Best score printed on a `VERDICT` line.
pub fn line_score(line: &str) -> Option<f32> {
    line.rsplit_once(':')?.1.parse().ok()
}

/// Tallies of verdict quality over one workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    pub audits: u64,
    pub flagged: u64,
    pub top1: u64,
}

impl Quality {
    pub fn add(&mut self, best: Option<&str>, piracy: bool, origin: &str) {
        self.audits += 1;
        self.flagged += u64::from(piracy);
        self.top1 += u64::from(best == Some(origin));
    }

    pub fn flag_rate(&self) -> f64 {
        self.flagged as f64 / self.audits.max(1) as f64
    }

    pub fn recall(&self) -> f64 {
        self.top1 as f64 / self.audits.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_lines_round_trip() {
        let e = Expected {
            best: Some(("m3".to_string(), 0.98766)),
            matches: 5,
            piracy: true,
        };
        let line = e.line("sus1");
        assert_eq!(line, "VERDICT sus1 matches=5 piracy=1 best=m3:+0.9877");
        assert_eq!(parse_line(&line), Some(("m3", true)));
        assert_eq!(line_score(&line), Some(0.9877));
        let none = Expected {
            best: None,
            matches: 0,
            piracy: false,
        };
        assert_eq!(parse_line(&none.line("x")), Some(("-", false)));
        assert_eq!(judge_line(&e, "sus1", &line, "w"), Judgement::Same);
        let outranked = "VERDICT sus1 matches=5 piracy=1 best=w7:+0.9901";
        assert_eq!(judge_line(&e, "sus1", outranked, "w"), Judgement::Displaced);
        let weaker = "VERDICT sus1 matches=5 piracy=1 best=w7:+0.9000";
        assert_eq!(judge_line(&e, "sus1", weaker, "w"), Judgement::Mismatch);
        let wrong = "VERDICT sus1 matches=5 piracy=1 best=m4:+0.9901";
        assert_eq!(judge_line(&e, "sus1", wrong, "w"), Judgement::Mismatch);
    }
}
