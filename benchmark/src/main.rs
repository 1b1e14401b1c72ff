//! `strata-e2e` — the wire-level end-to-end benchmark of `strata-serve`.
//!
//! One command builds the server from the repository's sources, drives
//! each workload against a real child process over TCP, checks every
//! answer against an in-process oracle, and prints every metric by name.
//! See `benchmark/README.md` for the glossary and `BENCHMARK.json` at the
//! repository root for the contract.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- [options]
//!   --workload <name>  run one workload and end with the one-line JSON result
//!                      (default: all three, in order)
//!   --seed <n>         seeds program, script and query generation (default 42)
//!   --seconds <s>      seconds of measurement per workload run (default 30)
//!   --trace [0|1]      1: the traced run — per-layer metrics, trace files
//!                      (suite mode runs untraced first, then traced)
//!   --repeat <n>       run the untraced suite n times, print the noise report
//!                      as markdown, exit 1 if the two halves of the runs
//!                      differ on a gated metric by more than its bound
//!   --smoke            every step at tiny rates, ~9 s in all: a bit-rot check
//! ```

mod layers;
mod metrics;
mod oracle;
mod prom;
mod report;
mod run;
mod server;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use run::{run_workload, Plan, RunOutput};
use workload::{Workload, WORKLOADS};

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        repeat: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                out.workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => out.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 1.0 && out.seconds <= 120.0) {
                    return Err("--seconds must be between 1 and 120".into());
                }
            }
            "--trace" => {
                // `--trace 0|1`, or bare `--trace`.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                let n: usize = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs to compare halves".into());
                }
                out.repeat = Some(n);
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument `{other}` (see benchmark/README.md)")),
        }
    }
    Ok(out)
}

/// Seed, host, server flags and revision as JSON members and as prose.
fn identity(args: &Args) -> (String, String) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags = server::SERVER_FLAGS.join(" ");
    let rev = server::git_revision();
    let seconds = if args.smoke { "smoke".to_string() } else { format!("{}", args.seconds) };
    (
        format!(
            "\"seed\": {}, \"seconds\": \"{seconds}\", \"host_cpus\": {cpus}, \
             \"server_flags\": \"{flags} --store <tmp> --program <seed file>\", \"revision\": \"{rev}\"",
            args.seed
        ),
        format!(
            "seed {} | --seconds {seconds} | host_cpus {cpus} | strata-serve {flags} --store <tmp> \
             --program <seed file> (production storage profile) | revision {rev}",
            args.seed
        ),
    )
}

fn run_one(
    exe: &Path,
    w: Workload,
    args: &Args,
    plan: &Plan,
    traced: bool,
) -> Result<RunOutput, String> {
    run_workload(exe, w, args.seed, plan, traced).map_err(|e| format!("{}: {e}", w.name))
}

fn real_main(args: &Args) -> Result<bool, String> {
    let exe = server::build_server().map_err(|e| e.to_string())?;
    let plan = if args.smoke { Plan::smoke() } else { Plan::for_seconds(args.seconds) };
    let (id_json, id_text) = identity(args);

    if let Some(n) = args.repeat {
        let mut passes = Vec::new();
        for i in 0..n {
            let mut pass = Vec::new();
            for w in WORKLOADS {
                let run = run_one(&exe, w, args, &plan, false)?;
                eprint!("[run {}/{n}]\n{}", i + 1, report::render_run(&run, args.seed));
                pass.push(run);
            }
            passes.push(pass);
        }
        let rows = report::noise_rows(&passes);
        print!("{}", report::render_noise(&rows, n, &id_text));
        let failed_ops: u64 = passes.iter().flatten().map(|r| r.failed).sum();
        println!("\nFailed operations over all runs: {failed_ops}.");
        return Ok(rows.iter().all(report::NoiseRow::ok) && failed_ops == 0);
    }

    println!("{id_text}");
    if let Some(w) = args.workload {
        let run = run_one(&exe, w, args, &plan, args.trace)?;
        print!("{}", report::render_run(&run, args.seed));
        println!("{}", report::CORRECTNESS_NOTE);
        println!("{}", report::result_line(&run));
        return Ok(run.correct());
    }
    let mut runs = Vec::new();
    for w in WORKLOADS {
        let run = run_one(&exe, w, args, &plan, false)?;
        print!("{}", report::render_run(&run, args.seed));
        runs.push(run);
        if args.trace {
            let run = run_one(&exe, w, args, &plan, true)?;
            print!("{}", report::render_run(&run, args.seed));
            println!("  trace file: benchmark/out/trace-{}.json", w.name);
            runs.push(run);
        }
    }
    println!("{}", report::CORRECTNESS_NOTE);
    if args.trace {
        println!("{}", report::INTERACTION_NOTES);
    }
    println!("{}", report::suite_line(&runs, &id_json));
    Ok(runs.iter().all(RunOutput::correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("strata-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("strata-e2e: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contracts_invocation() {
        let a =
            args(&["--workload", "read-mostly", "--seed", "7", "--seconds", "30", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload.unwrap().name, "read-mostly");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        let a = args(&["--workload", "ingest-small", "--trace", "0", "--seed", "9"]).unwrap();
        assert_eq!((a.trace, a.seed), (false, 9));
    }

    #[test]
    fn defaults_flags_and_errors() {
        let a = args(&[]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (42, 30.0, false, false));
        assert!(a.workload.is_none() && a.repeat.is_none());
        assert!(args(&["--trace"]).unwrap().trace, "bare --trace turns tracing on");
        assert!(args(&["--trace", "--smoke"]).unwrap().smoke);
        assert_eq!(args(&["--repeat", "6"]).unwrap().repeat, Some(6));
        assert!(args(&["--repeat", "1"]).is_err());
        assert!(args(&["--workload", "nope"]).unwrap_err().contains("ingest-small"));
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frob"]).is_err());
    }
}
