//! The benchmark command: `perfbench --workload <density|serve|churn>
//! --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints notes and check failures, then one JSON result line last. Exits
//! 0 when every check passed, 1 when a check failed, 2 on bad arguments.

use perfbench::{parse_args, run, Scale, HARNESS_THREADS};

fn main() {
    // Load comes from one process: pin the harness's parallel drivers
    // before anything reads the variable.
    std::env::set_var("HARNESS_THREADS", HARNESS_THREADS.to_string());
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(&args, &Scale::full());
    for note in &report.notes {
        println!("# {note}");
    }
    for failure in &report.failures {
        println!("# CHECK FAILED: {failure}");
    }
    println!("{}", report.json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}
