//! `exp_paper [E1 … E12]`: prints the paper's tables (`strata_bench::paper`)
//! for the named examples or all ten, each in a process of its own, with
//! the wall-time column. `tests/paper_reproduction.rs` pins the counts.
//!
//! With no argument or several, this process drives one child per example
//! and checks E12's two wall-clock claims on the child's rows; no count
//! backs them. A single argument only prints that example's table.

use std::io::Write;
use std::process::{exit, Command};

use strata_bench::paper::{self, Row, HEADER};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [id] = args.as_slice() {
        let Some(example) = paper::example(id) else {
            let known: Vec<&str> = paper::EXAMPLES.iter().map(|e| e.id).collect();
            eprintln!("error: unknown example {id} (known: {})", known.join(" "));
            exit(2)
        };
        let rows = (example.build)();
        let counts: Vec<String> = rows.iter().map(Row::counts).collect();
        let width = counts.iter().map(|c| c.chars().count()).chain([HEADER.len()]).max().unwrap();
        println!("== {} · {}\n{HEADER:<width$}  {:>9}", example.id, example.title, "ms");
        for (line, row) in counts.iter().zip(&rows) {
            println!("{line:<width$}  {:>9.2}", row.ms);
        }
        println!();
        return;
    }
    let ids =
        if args.is_empty() { paper::EXAMPLES.map(|e| e.id.to_string()).to_vec() } else { args };
    let exe = std::env::current_exe().expect("own path");
    for id in ids {
        let out = Command::new(&exe).arg(&id).output().expect("spawn exp_paper");
        std::io::stdout().write_all(&out.stdout).expect("stdout");
        std::io::stderr().write_all(&out.stderr).expect("stderr");
        if !out.status.success() {
            exit(out.status.code().unwrap_or(1));
        }
        if id.eq_ignore_ascii_case("E12") {
            let text = String::from_utf8_lossy(&out.stdout);
            let rows: Vec<Row> = text.lines().filter_map(Row::parse).collect();
            let ms = |strategy: &str, step: &str| {
                rows.iter().find(|r| r.strategy == strategy && r.step == step).expect("E12 row").ms
            };
            let (queries, session) = ("pods(100, 300) queries", "bom(3, 3) 1:200");
            assert!(ms("explicit", queries) < ms("implicit", queries), "lookups must beat proofs");
            assert!(
                ms("explicit", session) <= ms("implicit", session),
                "the explicit representation must win the query-heavy session (§3's premise)"
            );
        }
    }
}
