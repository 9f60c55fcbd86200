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

use synergy::{Mission, NodeId, Scheme, SystemConfig};
use synergy_des::{SimDuration, SimTime};

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
    print_trace: bool,
}

/// The value after `flag`, parsed as a `T`.
fn value<T: FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

/// The value after `flag` as a finite, non-negative number (seconds or a
/// rate per minute).
fn non_negative(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<f64, String> {
    let v: f64 = value(args, flag)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(format!(
            "{flag} must be a finite number at least 0, got {v}"
        ))
    }
}

/// Parses `argv` (without the program name); `Ok(None)` asks for the usage.
fn parse(argv: &[String]) -> Result<Option<Cli>, String> {
    let mut args = argv.iter();
    // The defaults USAGE documents.
    let mut builder = SystemConfig::builder()
        .duration_secs(120.0)
        .internal_rate_per_min(30.0)
        .external_rate_per_min(4.0)
        .tb_interval_secs(5.0);
    let mut print_trace = false;
    let mut node = NodeId::P2;
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
            "--duration" => builder = builder.duration_secs(non_negative(&mut args, flag)?),
            "--internal" => builder = builder.internal_rate_per_min(non_negative(&mut args, flag)?),
            "--external" => builder = builder.external_rate_per_min(non_negative(&mut args, flag)?),
            "--interval" => {
                let secs = non_negative(&mut args, flag)?;
                // The TB interval is a count of nanoseconds, and zero is no
                // interval at all.
                if SimDuration::from_secs_f64(secs) == SimDuration::ZERO {
                    return Err(format!("--interval must be greater than 0, got {secs}"));
                }
                builder = builder.tb_interval_secs(secs);
            }
            "--sw-fault" => {
                builder = builder.software_fault_at_secs(non_negative(&mut args, flag)?)
            }
            "--hw-fault" => {
                let at = non_negative(&mut args, flag)?;
                builder = builder.hardware_fault(synergy::HardwareFault {
                    at: SimTime::from_secs_f64(at),
                    node,
                });
            }
            "--node" => {
                node = NodeId::from_index(value(&mut args, flag)?)
                    .ok_or("--node must be 0, 1 or 2")?;
            }
            "--trace" => print_trace = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let config = builder.build();
    check_faults_inside(&config)?;
    Ok(Some(Cli {
        config,
        print_trace,
    }))
}

/// Refuses a fault the mission would never run: a design fault at or
/// after the end, or a crash whose recovery (`restart_delay` later) is.
fn check_faults_inside(config: &SystemConfig) -> Result<(), String> {
    let end = config.duration.as_nanos();
    let secs = |nanos: u64| nanos as f64 / 1e9;
    if let Some(sw) = config.faults.software {
        if sw.at.as_nanos() >= end {
            return Err(format!(
                "--sw-fault at {}s is not before the end of a {}s mission",
                secs(sw.at.as_nanos()),
                secs(end)
            ));
        }
    }
    for hw in &config.faults.hardware {
        let recovery = hw
            .at
            .as_nanos()
            .saturating_add(config.restart_delay.as_nanos());
        if recovery >= end {
            return Err(format!(
                "--hw-fault at {}s recovers at {}s, not before the end of a {}s mission",
                secs(hw.at.as_nanos()),
                secs(recovery),
                secs(end)
            ));
        }
    }
    Ok(())
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

    let duration = cli.config.duration;
    let outcome = Mission::new(cli.config).run();
    if cli.print_trace {
        for e in outcome.trace.events() {
            println!("{e}");
        }
        println!();
    }
    let m = &outcome.metrics;
    println!("mission: {:.0}s", duration.as_secs_f64());
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
            &["--duration", "-5"],
            &["--duration", "nan"],
            &["--interval", "-1"],
            &["--interval", "0"],
            &["--interval", "1e-12"],
            &["--hw-fault", "-3"],
            &["--sw-fault", "-1"],
            &["--internal", "nan"],
            &["--external", "inf"],
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
            NodeId::P1Act
        );
        assert!(parse_args(&["--help"]).unwrap().is_none());
        // No flags: the defaults USAGE documents.
        let defaults = config(&[]);
        assert_eq!(defaults.duration, SimDuration::from_secs(120));
        assert_eq!(defaults.internal_rate_hz, 0.5);
        assert_eq!(defaults.external_rate_hz, 4.0 / 60.0);
        assert_eq!(defaults.tb_interval, SimDuration::from_secs(5));
    }

    #[test]
    fn faults_past_the_end_are_refused_whatever_the_flag_order() {
        for late in [
            &["--duration", "120", "--hw-fault", "200"][..],
            // Recovery lands on the end, after the 0.5 s restart delay.
            &["--duration", "120", "--hw-fault", "119.5"],
            &["--duration", "120", "--sw-fault", "120"],
        ] {
            assert!(parse_args(late).is_err(), "{late:?} was accepted");
        }
        let early = parse_args(&["--hw-fault", "100", "--duration", "150"]);
        assert_eq!(early.unwrap().unwrap().config.faults.hardware.len(), 1);
    }
}
