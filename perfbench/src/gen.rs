//! Seeded input generation. Everything the program sees is Verilog text
//! derived here from the workload seed; the same seed gives byte-identical
//! corpora and request streams.

use std::fmt::Write as _;

use gnn4ip_data::{
    obfuscate_netlist, synth_design, vary_design, Corpus, Design, Instance, Level,
    ObfuscationConfig, SynthSize, VariationConfig,
};
use gnn4ip_dfg::graph_from_verilog;

/// SplitMix64: a tiny, fully specified generator, so input streams do
/// not depend on any library's RNG algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stream identifiers, so adding a stream never shifts another.
pub mod stream {
    pub const CORPUS: u64 = 1;
    pub const SOURCES: u64 = 2;
    pub const VARIANTS: u64 = 3;
    pub const REQUESTS: u64 = 4;
    pub const TRICKLE: u64 = 5;
    pub const WRITES: u64 = 6;
    pub const SHUFFLE: u64 = 7;
}

/// One named design offered to the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Named {
    pub name: String,
    pub source: String,
}

/// A disguised copy of a corpus design, with the name of its source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suspect {
    pub name: String,
    pub source: String,
    pub origin: String,
}

/// `n` synthetic RTL designs of one size, named `<prefix><i>`, whose
/// families are drawn from `(seed, stream)`.
pub fn rtl_corpus(seed: u64, stream: u64, prefix: &str, n: usize, size: SynthSize) -> Vec<Named> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|i| Named {
            name: format!("{prefix}{i}"),
            source: synth_design(rng.next_u64() >> 1, size),
        })
        .collect()
}

/// Gate kinds a generated netlist draws from.
const GATE_KINDS: [&str; 7] = ["and", "or", "nand", "nor", "xor", "xnor", "not"];

/// A gate-level netlist of one design family: a layered random gate DAG
/// whose gate-kind mix (two dominant kinds), share of 3-input gates and
/// operand locality are drawn per family. Distinct families differ in
/// structure the way distinct circuits do, rather than being samples of
/// one gate distribution that only size tells apart.
pub fn family_netlist(family: u64, gates: usize) -> String {
    let mut rng = Rng::new(family, 0x4E45_544C);
    let mut weight = [0.0f64; GATE_KINDS.len()];
    for w in &mut weight {
        *w = 0.05 + 0.2 * rng.unit();
    }
    for _ in 0..2 {
        weight[rng.below(GATE_KINDS.len())] += 1.0;
    }
    let total: f64 = weight.iter().sum();
    let three_input = 0.5 * rng.unit();
    let window = 2 + rng.below(48);
    let inputs: Vec<String> = (0..6 + rng.below(10)).map(|i| format!("i{i}")).collect();
    let outputs: Vec<String> = (0..3 + rng.below(5)).map(|i| format!("o{i}")).collect();
    let ports: Vec<String> = inputs
        .iter()
        .map(|i| format!("input {i}"))
        .chain(outputs.iter().map(|o| format!("output {o}")))
        .collect();
    let mut src = format!("module fam_{family}({});\n", ports.join(", "));
    let mut nets = inputs.clone();
    for g in 0..gates {
        let mut x = rng.unit() * total;
        let kind = weight
            .iter()
            .position(|&w| {
                x -= w;
                x < 0.0
            })
            .unwrap_or(GATE_KINDS.len() - 1);
        let out = format!("n{g}");
        let _ = writeln!(src, "  wire {out};");
        // chain off the newest net so most of the DAG reaches an output;
        // further operands come from a family-sized window behind it
        let newest = nets[nets.len() - 1].clone();
        let mut operands = vec![newest];
        if GATE_KINDS[kind] != "not" {
            let fan_in = if rng.unit() < three_input { 3 } else { 2 };
            while operands.len() < fan_in {
                operands.push(nets[nets.len() - 1 - rng.below(window.min(nets.len()))].clone());
            }
        }
        let _ = writeln!(
            src,
            "  {} ({out}, {});",
            GATE_KINDS[kind],
            operands.join(", ")
        );
        nets.push(out);
    }
    for o in &outputs {
        let from = nets[nets.len() - 1 - rng.below(nets.len() / 4 + 1)].clone();
        let _ = writeln!(src, "  buf ({o}, {from});");
    }
    src.push_str("endmodule\n");
    src
}

/// Gate count of netlist `i` of a corpus: spread over `gates` so designs
/// of one corpus differ in size as well as structure.
fn netlist_gates(rng: &mut Rng, gates: (usize, usize)) -> usize {
    gates.0 + rng.below(gates.1 - gates.0 + 1)
}

/// `n` gate-level netlists of families drawn from the workload seed,
/// each of `gates.0..=gates.1` gates.
pub fn netlist_corpus(seed: u64, n: usize, gates: (usize, usize)) -> Vec<Named> {
    let mut rng = Rng::new(seed, stream::CORPUS);
    (0..n)
        .map(|i| {
            let family = rng.next_u64() >> 1;
            Named {
                name: format!("net{i}"),
                source: family_netlist(family, netlist_gates(&mut rng, gates)),
            }
        })
        .collect()
}

/// `n` disguised variants of designs picked from `corpus` (cycling over a
/// seeded permutation, so every source is used before any repeats):
/// `vary_design` for RTL, `obfuscate_netlist` for netlists.
pub fn suspects(seed: u64, corpus: &[Named], n: usize, level: Level) -> Vec<Suspect> {
    let mut rng = Rng::new(seed, stream::VARIANTS);
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    shuffle_with(&mut order, &mut rng);
    (0..n)
        .map(|i| {
            let origin = &corpus[order[i % order.len()]];
            // variant 0 is the identity transform; never draw it
            let variant = rng.next_u64() | 1;
            let source = match level {
                Level::Rtl => vary_design(&origin.source, variant, &VariationConfig::default()),
                Level::Netlist => {
                    obfuscate_netlist(&origin.source, variant, &ObfuscationConfig::default())
                }
            }
            .expect("generated designs parse");
            Suspect {
                name: format!("sus{i}"),
                source,
                origin: origin.name.clone(),
            }
        })
        .collect()
}

/// Gate-count range of generated netlists.
pub const NETLIST_GATES: (usize, usize) = (100, 250);

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    shuffle_with(items, &mut Rng::new(seed, stream::SHUFFLE));
}

fn shuffle_with<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The detector's training corpus: fixed families (independent of the
/// workload seed, so every run trains the same detector), each with
/// `instances` behaviour-preserving variants.
pub fn training_corpus(level: Level, families: usize, instances: usize) -> Corpus {
    let mut designs = Vec::new();
    let mut inst = Vec::new();
    for f in 0..families {
        let family = 0x5EED_0000 + f as u64;
        let (source, name) = match level {
            Level::Rtl => {
                let size = if f % 2 == 0 {
                    SynthSize::Small
                } else {
                    SynthSize::Medium
                };
                (synth_design(family, size), format!("synth_{family}"))
            }
            Level::Netlist => (
                family_netlist(
                    family,
                    NETLIST_GATES.0 + (f * 37) % (NETLIST_GATES.1 - NETLIST_GATES.0),
                ),
                format!("fam_{family}"),
            ),
        };
        for k in 0..instances {
            let variant = if k == 0 { 0 } else { family * 131 + k as u64 };
            let text = match level {
                Level::Rtl => vary_design(&source, variant, &VariationConfig::default()),
                Level::Netlist => {
                    obfuscate_netlist(&source, variant, &ObfuscationConfig::default())
                }
            }
            .expect("generated designs parse");
            inst.push(Instance {
                design: f,
                variant,
                source: text,
            });
        }
        designs.push(Design {
            top: name.clone(),
            name,
            source,
            level,
            verifiable: true,
        });
    }
    let graphs = inst
        .iter()
        .map(|i| graph_from_verilog(&i.source, None).expect("generated designs parse"))
        .collect();
    Corpus {
        designs,
        instances: inst,
        graphs,
    }
}

/// One request of the serve workload's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Audit suspect `i` of the pool.
    Audit(usize),
    /// Ingest trickle design `k`.
    Ingest(usize),
    /// Publish the writer's state to the audit workers.
    Publish,
}

/// Every `INGEST_EVERY`th request is an INGEST, every `PUBLISH_EVERY`th a
/// PUBLISH; the rest audit a seeded pick from the suspect pool.
pub const INGEST_EVERY: usize = 20;
pub const PUBLISH_EVERY: usize = 100;

/// The deterministic request stream of the serve workload.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: Rng,
    pool: usize,
    next: usize,
    ingests: usize,
}

impl RequestStream {
    pub fn new(seed: u64, pool: usize) -> Self {
        Self {
            rng: Rng::new(seed, stream::REQUESTS),
            pool,
            next: 0,
            ingests: 0,
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.next += 1;
        Some(if self.next.is_multiple_of(PUBLISH_EVERY) {
            Request::Publish
        } else if self.next.is_multiple_of(INGEST_EVERY) {
            self.ingests += 1;
            Request::Ingest(self.ingests - 1)
        } else {
            Request::Audit(self.rng.below(self.pool))
        })
    }
}

/// Name of trickle design `k` (never collides with corpus names).
pub fn trickle_name(k: usize) -> String {
    format!("trickle{k}")
}

/// Source of trickle design `k`: a fresh Small RTL family per `k`.
pub fn trickle_source(seed: u64, k: usize) -> String {
    let mut rng = Rng::new(seed ^ k as u64, stream::TRICKLE);
    synth_design(rng.next_u64() >> 1, SynthSize::Small)
}

/// Appends the protocol text of one request (dot-stuffed body).
pub fn render(out: &mut String, req: Request, seed: u64, pool: &[Suspect]) {
    match req {
        Request::Audit(i) => {
            out.push_str(&format!("AUDIT {}\n", pool[i].name));
            push_body(out, &pool[i].source);
        }
        Request::Ingest(k) => {
            out.push_str(&format!("INGEST {}\n", trickle_name(k)));
            push_body(out, &trickle_source(seed, k));
        }
        Request::Publish => out.push_str("PUBLISH\n"),
    }
}

fn push_body(out: &mut String, body: &str) {
    for line in body.lines() {
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(".\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, n: usize) -> String {
        let corpus = rtl_corpus(seed, stream::SOURCES, "m", 4, SynthSize::Medium);
        let pool = suspects(seed, &corpus, 8, Level::Rtl);
        let mut out = String::new();
        for req in RequestStream::new(seed, pool.len()).take(n) {
            render(&mut out, req, seed, &pool);
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        let a = stream_bytes(11, 250);
        assert_eq!(a, stream_bytes(11, 250));
        assert_ne!(a, stream_bytes(12, 250));
        assert!(a.contains("INGEST trickle0\n") && a.contains("PUBLISH\n"));
    }

    #[test]
    fn same_seed_gives_byte_identical_corpora() {
        let a = rtl_corpus(3, stream::CORPUS, "d", 20, SynthSize::Small);
        assert_eq!(a, rtl_corpus(3, stream::CORPUS, "d", 20, SynthSize::Small));
        assert_ne!(a, rtl_corpus(4, stream::CORPUS, "d", 20, SynthSize::Small));
        let n = netlist_corpus(3, 3, (40, 60));
        assert_eq!(n, netlist_corpus(3, 3, (40, 60)));
        let s = suspects(3, &n, 5, Level::Netlist);
        assert_eq!(s, suspects(3, &n, 5, Level::Netlist));
        assert!(s.iter().all(|v| n.iter().any(|d| d.name == v.origin)));
    }

    #[test]
    fn stream_mix_matches_the_documented_rates() {
        let reqs: Vec<Request> = RequestStream::new(1, 10).take(1000).collect();
        let ingests = reqs
            .iter()
            .filter(|r| matches!(r, Request::Ingest(_)))
            .count();
        let publishes = reqs.iter().filter(|r| **r == Request::Publish).count();
        assert_eq!((ingests, publishes), (40, 10));
    }
}
