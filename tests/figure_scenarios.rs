//! Integration-level assertions for every figure scenario, through the
//! public API (the same code paths `repro <figure>` prints).

use synergy::scenario::{
    fig1_original_mdcd, fig2_tb_hazards, fig3_modified_mdcd, fig4_naive_vs_coordinated, fig6_cases,
};

#[test]
fn fig1_checkpoint_trace() {
    let report = fig1_original_mdcd();
    // Every Type-1 checkpoint is taken while handling a delivery: the
    // closest preceding event at the same actor is the `msg.recv` of the
    // contaminating message (the checkpoint guards it before the
    // application sees it).
    let events = report.trace.events();
    for (i, e) in events.iter().enumerate() {
        if e.kind == "ckpt.type-1" {
            let prev_same_actor = events[..i]
                .iter()
                .rev()
                .find(|x| x.actor == e.actor)
                .expect("a delivery precedes the checkpoint");
            assert_eq!(
                prev_same_actor.kind, "msg.recv",
                "Type-1 must directly guard a delivery, found {prev_same_actor}"
            );
        }
    }
    assert_eq!(
        report.counts.pseudo, 0,
        "original protocol has no pseudo ckpts"
    );
    assert!(
        report.counts.type2 > 0,
        "original protocol takes Type-2 ckpts"
    );
    // P1act takes no checkpoints under the original protocol.
    assert_eq!(
        report
            .trace
            .by_actor("P1act")
            .filter(|e| e.kind.starts_with("ckpt"))
            .count(),
        0
    );
}

#[test]
fn fig3_modified_trace() {
    let report = fig3_modified_mdcd();
    assert_eq!(report.counts.type2, 0, "Type-2 establishment is eliminated");
    assert!(report.counts.pseudo >= 2, "P1act takes pseudo checkpoints");
    // The pseudo checkpoint precedes P1act's internal send.
    let events = report.trace.events();
    let pseudo_idx = events
        .iter()
        .position(|e| e.kind == "ckpt.pseudo")
        .expect("pseudo checkpoint exists");
    let send_after = events[pseudo_idx..]
        .iter()
        .find(|e| e.actor == "P1act" && e.kind == "msg.send");
    assert!(send_after.is_some(), "pseudo ckpt guards the next send");
}

#[test]
fn fig2_hazard_analysis() {
    let r = fig2_tb_hazards();
    assert!(r.consistency_violated_without_blocking);
    assert!(r.recoverability_violated_without_log);
    assert!(r.blocking_restores_consistency);
    assert!(r.logging_restores_recoverability);
}

#[test]
fn fig4_simple_combination_fails_where_coordination_succeeds() {
    let r = fig4_naive_vs_coordinated(8);
    assert!(
        r.naive_violations > 0,
        "naive combination must lose non-contaminated states in some runs"
    );
    assert_eq!(r.coordinated_violations, 0);
}

#[test]
fn fig6_checkpoint_content_selection() {
    let r = fig6_cases();
    assert!(r.p2_clean_saves_current);
    assert!(r.p2_dirty_replaces_on_passed_at);
    assert!(r.act_clean_saves_current);
    assert!(r.act_dirty_copies_volatile);
}

#[test]
fn table1_blocking_period_contract() {
    use synergy_clocks::SyncParams;
    use synergy_des::SimDuration;
    use synergy_tb::{blocking_period, TbVariant};
    let sync = SyncParams::new(SimDuration::from_micros(500), 1e-4);
    let tmin = SimDuration::from_micros(200);
    let tmax = SimDuration::from_millis(2);
    let elapsed = SimDuration::from_secs(60);
    let original = blocking_period(TbVariant::Original, sync, elapsed, tmin, tmax, true);
    let clean = blocking_period(TbVariant::Adapted, sync, elapsed, tmin, tmax, false);
    let dirty = blocking_period(TbVariant::Adapted, sync, elapsed, tmin, tmax, true);
    // Table 1 row "blocking period": τ = δ+2ρτ−tmin vs τ(b) = δ+2ρτ+Tm(b).
    assert_eq!(clean, original);
    assert_eq!(dirty - clean, tmax + tmin);
}
