//! Cache and observability invariants for the dual cycle-model paths:
//! `CycleKey` carries the [`CycleModel`], so sampled and analytic results
//! for the same (engine, layer) never cross-contaminate — they occupy two
//! distinct cache entries — while the analytic key canonicalizes the seed
//! and sampling budgets away (the closed form depends on neither), so
//! analytic re-queries hit regardless of seed. The serve `stats` op keeps
//! exposing the `hits + misses == lookups` accounting invariant across
//! both modes, and a cold analytic run records into the
//! `eval_serial_analytic_ns` histogram that joins the sampled path's
//! `eval_serial_sample_ns` span.

use tpe_engine::serve::{
    handle_request, handle_request_classified, parse_flat_object, JsonValue, NoOps,
};
use tpe_engine::{roster, CycleModel, EngineCache, Evaluator, SweepWorkload};
use tpe_obs::Registry;
use tpe_workloads::LayerShape;

fn serial_probe() -> (tpe_engine::EngineSpec, SweepWorkload) {
    let engine = roster::find("OPT4E[EN-T]/28nm@2.00GHz").expect("roster engine");
    let workload = SweepWorkload::Layer(LayerShape::new("probe", 64, 256, 128, 1));
    (engine, workload)
}

/// The numeric field `key` of a one-line JSON reply, as a u64.
fn field_u64(reply: &str, key: &str) -> u64 {
    match parse_flat_object(reply).expect("reply parses").get(key) {
        Some(JsonValue::Num(v)) => *v as u64,
        other => panic!("{key} = {other:?} in {reply}"),
    }
}

/// The same (engine, layer, seed) evaluated under both modes occupies two
/// cycle-cache entries — the mode is part of the key — and warm re-queries
/// of either mode hit their own entry without touching the other's.
#[test]
fn both_modes_coexist_without_cross_contamination() {
    let cache = EngineCache::new();
    let (engine, workload) = serial_probe();
    let sampled_eval = Evaluator::new(&cache);
    let analytic_eval = Evaluator::new(&cache).with_cycle_model(CycleModel::Analytic);

    sampled_eval
        .metrics(&engine, &workload, 42)
        .expect("sampled");
    analytic_eval
        .metrics(&engine, &workload, 42)
        .expect("analytic");
    let cold = cache.stats();
    assert_eq!(cold.cycle_misses, 2, "one miss per mode: {cold:?}");
    assert_eq!(cache.cycles_len(), 2, "two coexisting entries");

    sampled_eval
        .metrics(&engine, &workload, 42)
        .expect("sampled warm");
    analytic_eval
        .metrics(&engine, &workload, 42)
        .expect("analytic warm");
    let warm = cache.stats().since(&cold);
    assert_eq!(warm.cycle_misses, 0, "warm re-queries must not recompute");
    assert_eq!(warm.cycle_hits, 2, "each mode hits its own entry");

    let total = cache.stats();
    assert_eq!(total.hits() + total.misses(), total.lookups());
}

/// The analytic key canonicalizes the seed to zero: different seeds are
/// one entry (1 miss + 1 hit) and byte-identical metrics — the closed
/// form is a pure function of (engine, layer).
#[test]
fn analytic_entries_are_seed_canonicalized() {
    let cache = EngineCache::new();
    let (engine, workload) = serial_probe();
    let eval = Evaluator::new(&cache).with_cycle_model(CycleModel::Analytic);

    let first = eval.metrics(&engine, &workload, 1).expect("seed 1");
    let second = eval.metrics(&engine, &workload, 2).expect("seed 2");
    assert_eq!(first, second, "analytic results must be seed-independent");

    let stats = cache.stats();
    assert_eq!(stats.cycle_misses, 1, "{stats:?}");
    assert_eq!(stats.cycle_hits, 1, "{stats:?}");
    assert_eq!(cache.cycles_len(), 1, "one canonical entry");
}

/// The serve `stats` op still certifies `hits + misses == lookups` after
/// a mixed sampled/analytic request stream, the analytic replies echo
/// their mode, and sampled replies stay byte-identical to a server that
/// has never heard of cycle models.
#[test]
fn stats_op_invariant_holds_across_modes() {
    let cache: &'static EngineCache = Box::leak(Box::new(EngineCache::new()));
    let layer_req =
        r#"{"id":1,"op":"layer","engine":"OPT4E[EN-T]","m":48,"n":192,"k":96,"seed":7}"#;

    let (sampled, _) = handle_request(layer_req, cache, &NoOps);
    let (analytic, _, _) = handle_request_classified(
        layer_req,
        cache,
        &NoOps,
        CycleModel::Analytic,
        Registry::global(),
    );
    assert!(
        analytic[0].contains(r#""cycle_model":"analytic""#),
        "analytic replies must carry the mode: {}",
        analytic[0]
    );
    assert!(
        !sampled[0].contains("cycle_model"),
        "sampled replies must stay byte-identical to the pre-mode protocol: {}",
        sampled[0]
    );
    // An explicit per-request field overrides the server default the same
    // way — the reply is identical to the default-injected one.
    let explicit = r#"{"id":1,"op":"layer","engine":"OPT4E[EN-T]","m":48,"n":192,"k":96,"seed":7,"cycle_model":"analytic"}"#;
    let (explicit_reply, _) = handle_request(explicit, cache, &NoOps);
    assert_eq!(explicit_reply, analytic);

    let (stats, _) = handle_request(r#"{"id":2,"op":"stats"}"#, cache, &NoOps);
    let reply = &stats[0];
    let hits = field_u64(reply, "price_hits") + field_u64(reply, "cycle_hits");
    let misses = field_u64(reply, "price_misses") + field_u64(reply, "cycle_misses");
    let lookups = field_u64(reply, "price_lookups") + field_u64(reply, "cycle_lookups");
    assert_eq!(hits + misses, lookups, "stats op invariant: {reply}");
    assert_eq!(field_u64(reply, "cycle_misses"), 2, "one per mode: {reply}");
}

/// A cold analytic evaluation records into `eval_serial_analytic_ns`
/// (the closed-form path's span beside the sampler's
/// `eval_serial_sample_ns`). The histograms are process-global and
/// monotone, so the delta assertion is safe under parallel test threads.
#[test]
fn analytic_cold_run_records_into_its_histogram() {
    let registry = Registry::global();
    let before = registry.snapshot();

    let cache = EngineCache::new();
    let (engine, workload) = serial_probe();
    Evaluator::new(&cache)
        .with_cycle_model(CycleModel::Analytic)
        .metrics(&engine, &workload, 3)
        .expect("analytic cold run");

    let delta = registry.snapshot().since(&before);
    let count = delta
        .histogram("eval_serial_analytic_ns")
        .map_or(0, |h| h.count());
    assert!(count > 0, "analytic span must record: {delta:?}");
}
