//! The repository benchmark: `--workload <repro|fleet|chaos> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Each workload is a closed loop with one client over the public API of
//! the workspace crates, every sweep on one executor. With `--trace 0` the last stdout line is the end-to-end metrics
//! as JSON; with `--trace 1` a separate traced run of all three workloads
//! prints the per-layer metrics and writes its spans to
//! `perfbench/out/spans-<seed>.tsv`. Human-readable tables, host
//! descriptor and failure reasons go to stderr. See `perfbench/NOTES.md`.

mod chaos;
mod common;
mod fleet;
mod host;
mod layers;
mod repro;
mod span;
mod stats;
mod wrap;

#[cfg(test)]
mod tests;

use common::{Metric, Outcome};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !["repro", "fleet", "chaos"].contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be repro, fleet or chaos, not {:?}",
            out.workload
        ));
    }
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(out)
}

/// Prints the result line: `{"correct", "attempted", "failed", "metrics"}`.
fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity: an unmeasurable value is null.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn print_table(workload: &str, metrics: &[Metric], host: &host::Host) {
    eprintln!("{workload} metrics  [{}]", host.tag());
    for m in metrics {
        eprintln!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The traced run: all three workloads' layers, so every traced run
/// reports the same per-layer metric set; `--workload` is traced first.
/// Each workload gets a third of `--seconds`, so the run takes about as
/// long as an untraced one.
fn traced(args: &Args, host: &host::Host) -> std::io::Result<Outcome> {
    let seconds = args.seconds.div_ceil(3);
    let tracer = span::Tracer::new();
    let names = repro::Names::new();
    let mut order = vec!["repro", "fleet", "chaos"];
    order.sort_by_key(|w| *w != args.workload);
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in order {
        let o = match w {
            "repro" => repro::traced(args.seed, seconds, host, &tracer, &names),
            "fleet" => fleet::traced(args.seed, seconds, host, &tracer),
            _ => chaos::traced(args.seed, seconds, host, &tracer),
        };
        print_table(w, &o.metrics, host);
        all.correct &= o.correct;
        all.attempted += o.attempted;
        all.failed += o.failed;
        all.metrics.extend(o.metrics);
    }
    let spans = tracer.spans();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.tsv", args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    span::write_tsv(&mut out, &spans)?;
    std::io::Write::flush(&mut out)?;
    eprintln!("{} spans written to {}", spans.len(), path.display());
    Ok(all)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record-digests") {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("repro_digests.txt");
        return match repro::record_digests(&path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One executor for every sweep, set before the shared pool starts: on
    // a shared two-core host a second one barely speeds the fleet up and
    // triples its run-to-run spread (see NOTES.md).
    std::env::set_var("HARMONIA_THREADS", "1");
    let host = host::Host::probe();
    eprintln!("host: {}", host.tag());
    let outcome = if args.trace {
        match traced(&args, &host) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let o = match args.workload.as_str() {
            "repro" => repro::measure(args.seed, args.seconds, &host),
            "fleet" => fleet::measure(args.seed, args.seconds, &host),
            _ => chaos::measure(args.seed, args.seconds, &host),
        };
        print_table(&args.workload, &o.metrics, &host);
        o
    };
    println!("{}", json_line(&outcome));
    ExitCode::SUCCESS
}
