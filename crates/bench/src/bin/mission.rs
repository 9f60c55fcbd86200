//! Command-line mission runner: configure a guarded mission, inject faults,
//! and print the outcome (optionally the full event trace).
//!
//! ```text
//! cargo run --release -p synergy-bench --bin mission -- \
//!     --scheme coordinated --seed 7 --duration 120 \
//!     --internal 30 --external 4 --interval 5 \
//!     --sw-fault 40 --hw-fault 80 --trace
//! ```

use std::process::exit;
use std::str::FromStr;

use synergy::{Mission, Scheme, SystemConfig};

const USAGE: &str = "\
usage: mission [options]
  --scheme S       coordinated | write-through | naive | mdcd-only  (default coordinated)
  --seed N         random seed                                      (default 0)
  --duration SECS  mission length in seconds                        (default 120)
  --internal R     internal messages per minute per component       (default 30)
  --external R     external messages per minute per component       (default 4)
  --interval SECS  TB checkpoint interval                           (default 5)
  --sw-fault SECS  activate the design fault at this time
  --hw-fault SECS  crash P2's node at this time (repeatable)
  --node N         node for subsequent --hw-fault flags (0|1|2)     (default 2)
  --trace          print the full event trace
  --help           this text";

/// What the command line asks for.
struct Cli {
    config: SystemConfig,
    duration: f64,
    print_trace: bool,
}

/// The value after `flag`, parsed as a `T`.
fn value<T: FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

/// Parses `argv` (without the program name); `Ok(None)` asks for the usage.
fn parse(argv: &[String]) -> Result<Option<Cli>, String> {
    let mut args = argv.iter();
    let mut builder = SystemConfig::builder();
    let mut duration = 120.0;
    let mut print_trace = false;
    let mut node = 2usize;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scheme" => {
                let scheme = match args.next().map(String::as_str) {
                    Some("coordinated") => Scheme::Coordinated,
                    Some("write-through") => Scheme::WriteThrough,
                    Some("naive") => Scheme::Naive,
                    Some("mdcd-only") => Scheme::MdcdOnly,
                    other => return Err(format!("unknown scheme {other:?}")),
                };
                builder = builder.scheme(scheme);
            }
            "--seed" => builder = builder.seed(value(&mut args, flag)?),
            "--duration" => {
                duration = value(&mut args, flag)?;
                builder = builder.duration_secs(duration);
            }
            "--internal" => builder = builder.internal_rate_per_min(value(&mut args, flag)?),
            "--external" => builder = builder.external_rate_per_min(value(&mut args, flag)?),
            "--interval" => builder = builder.tb_interval_secs(value(&mut args, flag)?),
            "--sw-fault" => builder = builder.software_fault_at_secs(value(&mut args, flag)?),
            "--hw-fault" => {
                let at: f64 = value(&mut args, flag)?;
                builder = builder.hardware_fault(synergy::HardwareFault {
                    at: synergy_des::SimTime::from_secs_f64(at),
                    node,
                });
            }
            "--node" => {
                node = value(&mut args, flag)?;
                if node > 2 {
                    return Err("--node must be 0, 1 or 2".into());
                }
            }
            "--trace" => print_trace = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Cli {
        config: builder.build(),
        duration,
        print_trace,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            exit(2);
        }
    };

    let outcome = Mission::new(cli.config).run();
    if cli.print_trace {
        for e in outcome.trace.events() {
            println!("{e}");
        }
        println!();
    }
    let m = &outcome.metrics;
    println!("mission: {:.0}s", cli.duration);
    println!(
        "  messages: {} sent, {} delivered, {} re-sent",
        m.messages_sent, m.messages_delivered, m.messages_resent
    );
    println!(
        "  checkpoints: {} type-1, {} type-2, {} pseudo, {} stable ({} replaced)",
        m.type1_ckpts, m.type2_ckpts, m.pseudo_ckpts, m.stable_commits, m.stable_replacements
    );
    println!(
        "  acceptance tests: {} run, {} failed",
        m.at_runs, m.at_failures
    );
    println!(
        "  recoveries: {} software, {} hardware (shadow promoted: {})",
        m.software_recoveries, m.hardware_recoveries, outcome.shadow_promoted
    );
    for r in &m.rollbacks {
        println!(
            "    {:?} @ {}: {} {} ({:.3}s undone)",
            r.cause,
            r.at,
            synergy::system::process_name(r.process),
            r.decision,
            r.distance_secs
        );
    }
    println!(
        "  blocking: {} periods, {:.3}s total",
        m.blocking_periods,
        m.blocking_total.as_secs_f64()
    );
    println!("  device messages: {}", outcome.device_messages);
    println!(
        "  global-state checks: {} run; verdict: {}",
        outcome.verdicts.checks_run,
        if outcome.verdicts.all_hold() {
            "ALL PROPERTIES HOLD".to_string()
        } else {
            format!("{} VIOLATIONS", outcome.verdicts.violations.len())
        }
    );
    for v in outcome.verdicts.violations.iter().take(10) {
        println!("    {v}");
    }
    if !outcome.verdicts.all_hold() {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Option<Cli>, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn integer_flags_are_parsed_as_integers() {
        for bad in [
            &["--seed", "9007199254740993.0"][..],
            &["--seed", "1.5"],
            &["--node", "-1", "--hw-fault", "3"],
            &["--node", "2.5"],
            &["--node", "3"],
        ] {
            assert!(parse_args(bad).is_err(), "{bad:?} was accepted");
        }
        let config = |args| parse_args(args).unwrap().unwrap().config;
        assert_eq!(
            config(&["--seed", "9007199254740993"]).seed,
            9007199254740993
        );
        assert_eq!(config(&["--seed", "18446744073709551615"]).seed, u64::MAX);
        assert_eq!(
            config(&["--node", "0", "--hw-fault", "3"]).faults.hardware[0].node,
            0
        );
        assert!(parse_args(&["--help"]).unwrap().is_none());
    }
}
