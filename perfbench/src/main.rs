//! `tyr-perfbench` — runs one workload of the layered simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-ideal --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable digest, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--workload all` runs the four workloads one after another in this
//! process and names each metric `<workload>/<metric>` in the last line.

use std::process::ExitCode;

use tyr_perfbench::workload::Kind;
use tyr_perfbench::{result_json, run, Metric, Opts, Outcome};
use tyr_workloads::Scale;

/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

/// Fingerprints recorded for the tuning and held-out seeds.
const RECORD: &str = include_str!("../record.json");

const USAGE: &str = "usage: tyr-perfbench \
                     --workload <suite-ideal|cached-locality|fuzz-short|observed|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The parsed command line: the workloads to run and the shared options
/// (`opts.kind` is the first workload).
fn parse(args: &[String]) -> Result<(Vec<Kind>, Opts), String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(match value.as_str() {
                        "all" => Kind::ALL.to_vec(),
                        _ => vec![Kind::parse(value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?],
                    })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds '{value}'"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    let kinds = kind.ok_or("--workload is required")?;
    let opts = Opts {
        kind: kinds[0],
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Small,
    };
    Ok((kinds, opts))
}

/// The fingerprint recorded for this workload and seed.
fn recorded(kind: Kind, seed: u64) -> Option<String> {
    let doc = tyr_stats::json::Json::parse(RECORD).ok()?;
    let fp = doc.get("fingerprints")?.get(kind.name())?.get(&seed.to_string())?;
    fp.as_str().map(str::to_string)
}

/// Runs one workload and prints its digest.
fn run_one(opts: &Opts) -> Outcome {
    let o = run(opts);
    let fp = format!("{:016x}", o.fingerprint);
    let versus = match recorded(opts.kind, opts.seed) {
        Some(r) if r == fp => "matches the recorded one",
        Some(_) => "DIFFERS from the recorded one",
        None => "none recorded for this seed",
    };
    println!(
        "{} seed={} trace={}: {} passes of {} runs; {} attempted, {} failed",
        opts.kind.name(),
        opts.seed,
        u8::from(opts.trace),
        o.passes,
        o.cells_per_pass,
        o.attempted,
        o.failed
    );
    println!("fingerprint {} seed={} {fp} ({versus})", opts.kind.name(), opts.seed);
    for f in &o.failures {
        println!("failure: {f}");
    }
    for m in &o.metrics {
        println!("  {:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    if let Some(tsv) = &o.trace_tsv {
        let path = format!("{TRACE_DIR}/trace-{}-seed{}.tsv", opts.kind.name(), opts.seed);
        let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, tsv));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    o
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (kinds, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcomes: Vec<Outcome> =
        kinds.iter().map(|&kind| run_one(&Opts { kind, ..opts.clone() })).collect();
    let result = match outcomes.as_slice() {
        [one] => one.clone(),
        all => Outcome {
            correct: all.iter().all(|o| o.correct),
            attempted: all.iter().map(|o| o.attempted).sum(),
            failed: all.iter().map(|o| o.failed).sum(),
            metrics: kinds
                .iter()
                .zip(all)
                .flat_map(|(k, o)| {
                    o.metrics.iter().map(move |m| Metric {
                        name: format!("{}/{}", k.name(), m.name),
                        ..m.clone()
                    })
                })
                .collect(),
            ..all[0].clone()
        },
    };
    println!("{}", result_json(&result));
    ExitCode::SUCCESS
}
