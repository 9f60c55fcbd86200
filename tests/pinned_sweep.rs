//! Pins what the simulator computes on the benchmark's own inputs, so a
//! revision can be compared with its parent rather than only with itself.
//!
//! The ledger's determinism guard compares the blocks of *one* run; the
//! chaos smokes compare two runtimes of one revision. Neither
//! notices a refactor of the driver that changes every runtime alike. The
//! constants below were taken at `9ba2a29`: the `sim_sweep` configuration
//! for the first 32 mission seeds of ledger seed 1, and one
//! `sim_dense`-shaped mission cut to 60 virtual seconds (delta accounting
//! on, a software and a hardware fault). A change that moves any of them
//! has changed an event order, a random draw, a checkpoint image or a
//! verdict, and must say so.

use synergy::{Scheme, System, SystemConfig};
use synergy_des::SimTime;
use synergy_storage::crc32;

/// What one finished mission is reduced to.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Pin {
    /// Discrete events fired.
    events: u64,
    /// CRC of the length-prefixed device stream (the ledger's
    /// `core.device_stream_crc` reduction).
    device_crc: u32,
    /// CRC of the `Debug` rendering of `RunMetrics` and `Verdicts`: every
    /// counter, every rollback record, `stable_bytes_delta`, every
    /// violation.
    state_crc: u32,
}

fn run(cfg: SystemConfig) -> (Pin, System) {
    let mut system = System::new(cfg);
    let mut events = 0u64;
    while !system.finished() {
        events += system.step_events(4096) as u64;
    }
    let mut stream = Vec::new();
    for payload in system.device_stream() {
        stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        stream.extend_from_slice(&payload);
    }
    let state = format!("{:?}|{:?}", system.metrics(), system.verdicts());
    let pin = Pin {
        events,
        device_crc: crc32(&stream),
        state_crc: crc32(state.as_bytes()),
    };
    (pin, system)
}

fn sweep_config(seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .seed(seed)
        .duration_secs(120.0)
        .internal_rate_per_min(60.0)
        .external_rate_per_min(2.0)
        .tb_interval_secs(5.0)
        .hardware_fault_at_secs(80.0)
        .trace(false)
        .build()
}

const DENSE_SECS: f64 = 60.0;

fn dense_config(seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .seed(seed)
        .duration_secs(DENSE_SECS)
        .internal_rate_per_min(600.0)
        .external_rate_per_min(30.0)
        .tb_interval_secs(1.0)
        .checkpoint_delta_k(4)
        .software_fault_at_secs(DENSE_SECS / 3.0)
        .hardware_fault_at_secs(DENSE_SECS * 2.0 / 3.0)
        .trace(false)
        .build()
}

const FIRST_SEED: u64 = 100_000;

#[rustfmt::skip]
const SWEEP: [Pin; 32] = [
    Pin { events: 1037, device_crc: 0xAF8AA2C3, state_crc: 0xEDCEAE7E },
    Pin { events: 1116, device_crc: 0x6EB88643, state_crc: 0x9F34A13B },
    Pin { events: 1176, device_crc: 0x86A1D7B0, state_crc: 0x356097B7 },
    Pin { events: 1174, device_crc: 0x1FC797B3, state_crc: 0xAF2FBC46 },
    Pin { events: 1140, device_crc: 0x3A457063, state_crc: 0xFC4A75DF },
    Pin { events: 1289, device_crc: 0x1DBDAC66, state_crc: 0xF9B8D6FD },
    Pin { events: 1242, device_crc: 0x25E67E64, state_crc: 0xEF7334AB },
    Pin { events: 1219, device_crc: 0xA61AF25D, state_crc: 0xF4F62330 },
    Pin { events: 1090, device_crc: 0x2119A5CC, state_crc: 0xA297EF92 },
    Pin { events: 1155, device_crc: 0x6B18143E, state_crc: 0x96409CB0 },
    Pin { events: 1077, device_crc: 0x52D6EE55, state_crc: 0xF989EF7A },
    Pin { events: 1114, device_crc: 0xCA7BA739, state_crc: 0x42BBB946 },
    Pin { events: 1086, device_crc: 0x2076F6C5, state_crc: 0x1AEE2CCE },
    Pin { events: 1215, device_crc: 0xA1D847DE, state_crc: 0x393ED091 },
    Pin { events: 1085, device_crc: 0x47267171, state_crc: 0x2CA79642 },
    Pin { events: 1170, device_crc: 0x1E79B61A, state_crc: 0x4B2C10C0 },
    Pin { events: 1165, device_crc: 0x187C3106, state_crc: 0x081D42D2 },
    Pin { events: 1193, device_crc: 0xD3E7E07D, state_crc: 0xFE3AC0E3 },
    Pin { events: 1168, device_crc: 0x9A6C9850, state_crc: 0xB9AD94DD },
    Pin { events: 1056, device_crc: 0x00A616B2, state_crc: 0x891BEF6E },
    Pin { events: 1082, device_crc: 0xBA79CC2A, state_crc: 0x99114B72 },
    Pin { events: 1045, device_crc: 0x45BD88C1, state_crc: 0xD8054ACF },
    Pin { events: 1028, device_crc: 0x66448814, state_crc: 0xC474E303 },
    Pin { events: 1096, device_crc: 0x35A87FB9, state_crc: 0x50503E6B },
    Pin { events: 1195, device_crc: 0x1F603791, state_crc: 0x05823148 },
    Pin { events: 966, device_crc: 0x23509192, state_crc: 0xC80F62B3 },
    Pin { events: 1094, device_crc: 0x9D85A6FD, state_crc: 0x4347C2AC },
    Pin { events: 1183, device_crc: 0x69CCBD2D, state_crc: 0x5AF50B55 },
    Pin { events: 1151, device_crc: 0xF4E997CD, state_crc: 0x42D06751 },
    Pin { events: 1039, device_crc: 0xE0C7C463, state_crc: 0x3E1FBD5A },
    Pin { events: 1122, device_crc: 0x0EA812B0, state_crc: 0x13F59EEB },
    Pin { events: 1015, device_crc: 0x03D277E2, state_crc: 0x17D0BC25 },
];

#[test]
fn sweep_missions_match_their_pinned_outcomes() {
    let mut got = Vec::with_capacity(SWEEP.len());
    let (mut sent, mut commits, mut rollbacks) = (0u64, 0u64, 0usize);
    for seed in FIRST_SEED..FIRST_SEED + SWEEP.len() as u64 {
        let (pin, system) = run(sweep_config(seed));
        assert!(
            system.verdicts().all_hold(),
            "seed {seed}: {:?}",
            system.verdicts()
        );
        let m = system.metrics();
        assert_eq!(m.stable_bytes_delta, 0, "no delta accounting on the sweep");
        sent += m.messages_sent;
        commits += m.stable_commits;
        rollbacks += m.rollbacks.len();
        got.push(pin);
    }
    assert_eq!(
        got, SWEEP,
        "a sweep mission no longer computes what it did at the pinned revision"
    );
    // The same missions in the units the ledger reports.
    assert_eq!(got.iter().map(|p| p.events).sum::<u64>(), 35_983);
    assert_eq!((sent, commits, rollbacks), (12_155, 2_176, 96));
}

#[test]
fn dense_mission_matches_its_pinned_outcome() {
    let (pin, system) = run(dense_config(FIRST_SEED));
    let m = system.metrics();
    assert!(system.verdicts().all_hold(), "{:?}", system.verdicts());
    // `state_crc` and the stable bytes were re-taken when envelopes lost
    // their 8-byte mission tag, which every checkpointed envelope carried;
    // events and the device stream did not move.
    assert_eq!(
        pin,
        Pin {
            events: 4_307,
            device_crc: 0x1B3B_9174,
            state_crc: 0xC7F5_0FA5,
        }
    );
    assert_eq!(
        (
            m.messages_sent,
            m.stable_commits,
            m.stable_bytes_full,
            m.stable_bytes_delta
        ),
        (1_446, 137, 870_144, 562_208)
    );
    assert_eq!((m.software_recoveries, m.hardware_recoveries), (1, 1));
}

#[test]
fn a_restore_that_cuts_a_chain_mid_group_accounts_a_full_image() {
    // The dense mission crashed at 38 s instead of 40 s: the restore
    // discards a record in the middle of its k = 4 chain group, so that
    // host's next commit is accounted as a full image. Diffed against the
    // discarded record instead, the delta bytes read 563 697.
    let mut cfg = dense_config(FIRST_SEED);
    cfg.faults.hardware[0].at = SimTime::from_secs_f64(38.0);
    let (_, system) = run(cfg);
    assert!(system.verdicts().all_hold(), "{:?}", system.verdicts());
    let m = system.metrics();
    assert_eq!(
        (m.stable_bytes_full, m.stable_bytes_delta),
        (872_209, 569_273)
    );
}
