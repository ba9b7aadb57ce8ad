//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs one workload end to end and prints every
//! end-to-end metric; with `--trace 1` it replays the workload's seeded
//! operand stream through each layer in isolation and prints the
//! per-layer ledger. Every answer is checked against the scalar oracle.
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`; the line
//! before it is a JSON report of provenance and sample counts. A wrong
//! answer exits with code 1 after the result is printed.

mod drive;
mod ledger;
mod montecarlo;
mod pool;
mod procfs;
mod served;
mod stats;
mod trace;
mod verify;
mod wire;

use std::process::ExitCode;

use pool::{Kind, Load, Shape, Wire};
use stats::quantile;
use verify::Tally;
use vlcsa_serve::AUTO_ENGINE;

/// The four engines of the paper's comparison.
const FOUR: &[&str] = &["ripple", "carry-select", "vlcsa1", "vlcsa2"];

/// Pipelined requests per connection in the closed loops.
const DEPTH: usize = 256;

/// The open loop's offered rate: far below capacity (about 150k req/s
/// on 2 CPUs), and high enough that the CPUs rarely idle long. At 5000
/// req/s the CPU cost per request was dominated by waking idle CPUs, and
/// on a shared VM that cost doubled for a minute or more after any
/// saturating run.
const LIGHT_RATE: f64 = 20000.0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Text `ADD vlcsa1`, closed loop, 2 × 256 over TCP.
    ServedTextAdd,
    /// Binary `SUM` of 8 operands on `auto`, closed loop, 2 × 256 over TCP.
    ServedBinarySum,
    /// In-process Monte Carlo groups through `Executor::run`.
    EngineMonteCarlo,
    /// Text `ADD` rotating over four engines, open loop at 20000 req/s.
    ServedLightMix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("served_text_add", Workload::ServedTextAdd),
        ("served_binary_sum", Workload::ServedBinarySum),
        ("engine_montecarlo", Workload::EngineMonteCarlo),
        ("served_light_mix", Workload::ServedLightMix),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }

    /// The traffic shape of a served workload; for the Monte Carlo loop,
    /// the shape its operand stream is served with in the ledger.
    pub fn shape(self) -> Shape {
        let closed = Load::Closed {
            conns: 2,
            depth: DEPTH,
        };
        match self {
            Workload::ServedTextAdd => Shape {
                wire: Wire::Text,
                kind: Kind::Add,
                engines: &["vlcsa1"],
                load: closed,
            },
            Workload::ServedBinarySum => Shape {
                wire: Wire::Binary,
                kind: Kind::Sum,
                engines: &[AUTO_ENGINE],
                load: closed,
            },
            Workload::EngineMonteCarlo => Shape {
                wire: Wire::Text,
                kind: Kind::Add,
                engines: FOUR,
                load: closed,
            },
            Workload::ServedLightMix => Shape {
                wire: Wire::Text,
                kind: Kind::Add,
                engines: FOUR,
                load: Load::Open { rate: LIGHT_RATE },
            },
        }
    }
}

/// One measured sub-window.
pub struct Round {
    /// Verified completions: requests, or additions for the Monte Carlo
    /// loop.
    pub ops: u64,
    /// Seconds the completions took.
    pub secs: f64,
    /// Latencies, ns, ascending.
    pub lat: Vec<u64>,
    /// Process CPU time over the window, ns.
    pub cpu_ns: u64,
}

impl Round {
    /// Merges the same sub-window of several drivers: the rate runs from
    /// the first completion to the last, so it is measured, not the
    /// offered schedule read back.
    pub fn from_accs(accs: &[&drive::RoundAcc], cpu_ns: u64) -> Self {
        let ops: u64 = accs.iter().map(|a| a.ops).sum();
        let earliest = accs
            .iter()
            .filter(|a| a.span.is_some())
            .min_by_key(|a| a.span.map(|s| s.0));
        let last = accs.iter().filter_map(|a| a.span.map(|s| s.1)).max();
        let (ops, secs) = match (earliest, last) {
            (Some(e), Some(l)) if ops > e.first_ops => (
                ops - e.first_ops,
                (l - e.span.expect("filtered").0).as_secs_f64(),
            ),
            _ => (0, f64::NAN),
        };
        Round {
            ops,
            secs,
            lat: stats::Samples::sorted_all(&accs.iter().map(|a| &a.lat).collect::<Vec<_>>()),
            cpu_ns,
        }
    }
}

/// What an end-to-end run measured.
pub struct EndToEnd {
    /// The measured sub-windows.
    pub rounds: Vec<Round>,
    /// Each set-up's seconds.
    pub setup_s: Vec<f64>,
    /// Modelled cycles per addition over the seeded pool.
    pub sim_cycles_per_add: f64,
    /// Failure accounting over the whole run.
    pub tally: Tally,
    /// Slab word width in bits, as the system reports it.
    pub word_bits: usize,
    /// Report-only figures.
    pub notes: Vec<(String, f64)>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <served_text_add|served_binary_sum|engine_montecarlo|served_light_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What a run prints: its metrics, its failure accounting, and the
/// report's extra key/value pairs (values already JSON).
pub type Outcome = (Vec<Metric>, Tally, Vec<(String, String)>);

/// One metric of the result line.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Formats `pairs` as a JSON object whose values are already JSON.
pub fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// The per-sub-window figures of the timing metrics: name, unit, and one
/// value per sub-window.
fn per_round(e: &EndToEnd) -> Vec<(&'static str, &'static str, Vec<f64>)> {
    let each = |f: &dyn Fn(&Round) -> f64| e.rounds.iter().map(f).collect::<Vec<_>>();
    let us = |r: &Round, q: f64| quantile(&r.lat, q).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    vec![
        ("ops_per_s", "1/s", each(&|r| r.ops as f64 / r.secs)),
        ("p50_us", "us", each(&|r| us(r, 0.50))),
        ("p99_us", "us", each(&|r| us(r, 0.99))),
        (
            "cpu_ms_per_kop",
            "ms/kop",
            each(&|r| (r.cpu_ns as f64 / 1e6) / (r.ops as f64 / 1e3)),
        ),
    ]
}

/// The median of the finite `values` (NaN when there are none).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn end_to_end_metrics(e: &EndToEnd) -> Vec<Metric> {
    let mut metrics: Vec<Metric> = per_round(e)
        .into_iter()
        .map(|(name, unit, values)| metric(name, median(&values), unit))
        .collect();
    metrics.extend([
        metric("ok_share", e.tally.ok_share(), "share"),
        metric("setup_s", median(&e.setup_s), "s"),
        metric("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
        metric("sim_cycles_per_add", e.sim_cycles_per_add, "cycles"),
    ]);
    metrics
}

fn json_list(values: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", values.into_iter().collect::<Vec<_>>().join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let steal0 = procfs::steal_ticks();
    let outcome = if args.trace {
        ledger::run(args.workload, args.seed, args.seconds)
    } else {
        let e2e = match args.workload {
            Workload::EngineMonteCarlo => Ok(montecarlo::run(args.seed, args.seconds)),
            w => served::run(&w.shape(), args.seed, args.seconds),
        };
        e2e.map(|e| {
            let rounds: Vec<(String, String)> = per_round(&e)
                .into_iter()
                .map(|(name, _, v)| (name.to_string(), json_list(v.into_iter().map(json_number))))
                .collect();
            let mut report = vec![
                ("word_bits".to_string(), e.word_bits.to_string()),
                (
                    "latency_samples_per_round".to_string(),
                    json_list(e.rounds.iter().map(|r| r.lat.len().to_string())),
                ),
                ("per_round".to_string(), json_object(&rounds)),
                (
                    "setup_s_all".to_string(),
                    json_list(e.setup_s.iter().map(|&v| json_number(v))),
                ),
            ];
            report.extend(e.notes.iter().map(|(k, v)| (k.clone(), json_number(*v))));
            (end_to_end_metrics(&e), e.tally, report)
        })
    };
    let (metrics, tally, mut report) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal1 = procfs::steal_ticks();
    let steal_share = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    let features = if cfg!(feature = "reactor") {
        "reactor"
    } else {
        "default"
    };
    let mut provenance = vec![
        ("workload".to_string(), format!("\"{name}\"")),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), json_number(args.seconds)),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("host_cpus".to_string(), montecarlo::host_cpus().to_string()),
        ("features".to_string(), format!("\"{features}\"")),
        ("host_steal_share".to_string(), json_number(steal_share)),
        ("requests".to_string(), tally.attempted.to_string()),
        ("errors".to_string(), tally.errors.to_string()),
        ("wrong".to_string(), tally.wrong.to_string()),
        ("missing".to_string(), tally.missing.to_string()),
    ];
    provenance.append(&mut report);
    println!(
        "{}",
        json_object(&[("report".to_string(), json_object(&provenance))])
    );
    let correct = tally.wrong == 0 && tally.errors == 0 && tally.missing == 0;
    let metric_pairs: Vec<(String, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                format!(
                    "{{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(m.value),
                    m.unit
                ),
            )
        })
        .collect();
    println!(
        "{}",
        json_object(&[
            ("correct".to_string(), correct.to_string()),
            ("attempted".to_string(), tally.attempted.max(1).to_string()),
            ("failed".to_string(), tally.failed().to_string()),
            ("metrics".to_string(), json_object(&metric_pairs)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {name}: {tally:?}");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_skips_unmeasured_sub_windows() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, f64::NAN]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn round_rate_runs_from_first_to_last_completion() {
        let t = std::time::Instant::now();
        let ms = |n: u64| t + std::time::Duration::from_millis(n);
        let mut a = drive::RoundAcc::new(8);
        let mut b = drive::RoundAcc::new(8);
        a.add(4, t, ms(100));
        a.add(4, t, ms(600));
        b.add(2, t, ms(300));
        b.add(2, t, ms(1100));
        let r = Round::from_accs(&[&a, &b], 7);
        // The earliest completion opens the interval; its operations
        // are not counted in it.
        assert_eq!(r.ops, 8);
        assert!((r.secs - 1.0).abs() < 1e-9);
        assert_eq!(r.lat.len(), 4);
        assert_eq!(r.cpu_ns, 7);
    }
}
