//! The `repro snapshot-smoke` experiment: the warm-start acceptance gate
//! for cache snapshot persistence.
//!
//! ```text
//! repro snapshot-smoke [--filter SUBSTR] [--snapshot F.bin]
//!                      [--min-speedup X] [--out F.json]
//! ```
//!
//! Four phases, each a correctness gate, all timed:
//!
//! 1. **Cold sweep** — evaluate the (optionally filtered) design space on
//!    a fresh cache: the baseline every warm figure is measured against.
//! 2. **Save / load round trip** — snapshot the warmed cache, load it
//!    into a *fresh* cache, and re-sweep: the warm-from-disk run must
//!    finish ≥ `--min-speedup`× faster than cold (default 10×, the CI
//!    bar), record **zero** cache misses, and emit byte-identical CSV.
//! 3. **In-memory warm reference** — re-sweep on the still-warm original
//!    cache, so the report separates "what the disk round trip costs"
//!    from "what memoization alone buys".
//! 4. **Server restart** — serve the slice plus a whole-model query from
//!    one process-lifetime cache, save via the `snapshot` op, "restart"
//!    (a second serve loop on a fresh cache warm-started from the file),
//!    and replay the same requests: the replay must answer
//!    byte-identically with a 100% cache hit rate — the model op served
//!    straight from the persisted model map — the durability story end
//!    to end.
//!
//! `--out` writes the measurements as `BENCH_snapshot.json` for CI
//! artifact upload.

use std::fmt::Write as _;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Instant;

use super::serve::{parse_flags, parse_num};
use tpe_dse::emit::to_csv;
use tpe_dse::{
    pareto_front_per_workload, sweep_with_cache, DseOps, Objective, SweepConfig, SweepOutcome,
};
use tpe_engine::serve::{
    json_escape, query_batch, serve, BatchOps, ServeConfig, ServeObs, SnapshotOps,
};
use tpe_engine::{snapshot, EngineCache};

/// Runs the warm-start smoke and renders the report.
pub fn snapshot_smoke(args: &[String]) -> String {
    match try_snapshot_smoke(args) {
        Ok(report) => report,
        Err(msg) => format!(
            "error: {msg}\nusage: repro snapshot-smoke [--filter SUBSTR] [--snapshot F.bin] \
             [--min-speedup X] [--out F.json]\n"
        ),
    }
}

/// CSV of a sweep outcome with its per-workload front marked — the byte
/// string the warm runs must reproduce exactly.
fn outcome_csv(outcome: &SweepOutcome) -> String {
    let front = pareto_front_per_workload(&outcome.results, &Objective::DEFAULT);
    to_csv(&outcome.results, &front)
}

fn try_snapshot_smoke(args: &[String]) -> Result<String, String> {
    let values = parse_flags(
        args,
        &[
            ("--filter", false),
            ("--snapshot", false),
            ("--min-speedup", false),
            ("--out", false),
        ],
    )?;
    let filter = values[0].clone().unwrap_or_default();
    let default_snap = values[1].is_none();
    let snap_path = values[1].clone().map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("tpe-snapshot-smoke-{}.bin", std::process::id()))
    });
    let min_speedup: f64 = values[2]
        .as_deref()
        .map(|v| parse_num(v, "--min-speedup"))
        .transpose()?
        .unwrap_or(10.0);
    if !min_speedup.is_finite() || min_speedup <= 0.0 {
        return Err("--min-speedup must be positive".into());
    }
    let out_json = values[3].clone();

    let points = tpe_dse::slice_space(None)?.enumerate_filtered(&filter);
    if points.is_empty() {
        return Err(format!("no design points match filter `{filter}`"));
    }
    let config = SweepConfig {
        threads: 0,
        seed: 42,
        ..SweepConfig::default()
    };

    // Phase 1: cold baseline on a fresh cache.
    let cold_cache = EngineCache::new();
    let cold = sweep_with_cache(&points, config, &cold_cache);
    let cold_ms = cold.elapsed.as_secs_f64() * 1e3;
    let cold_csv = outcome_csv(&cold);

    // Phase 2: save, load into a fresh cache, re-sweep from disk state.
    let t = Instant::now();
    let info = snapshot::save(&cold_cache, &snap_path)
        .map_err(|e| format!("saving {}: {e}", snap_path.display()))?;
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let disk_cache = EngineCache::new();
    let t = Instant::now();
    snapshot::load(&disk_cache, &snap_path)
        .map_err(|e| format!("loading {}: {e}", snap_path.display()))?
        .ok_or("snapshot vanished between save and load")?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm_disk = sweep_with_cache(&points, config, &disk_cache);
    let warm_disk_ms = warm_disk.elapsed.as_secs_f64() * 1e3;

    // Phase 3: the in-memory warm reference on the original cache.
    let warm_mem = sweep_with_cache(&points, config, &cold_cache);
    let warm_mem_ms = warm_mem.elapsed.as_secs_f64() * 1e3;

    let speedup = cold_ms / warm_disk_ms.max(1e-9);
    let ratio_disk_vs_mem = warm_disk_ms / warm_mem_ms.max(1e-9);

    // Phase 4: server restart. Run A sweeps cold, runs a whole-model
    // query (populating the cache's model map), and saves through the
    // `snapshot` op; run B warm-starts from that file and must replay
    // both requests byte-identically without a single cache miss — the
    // model op answered straight from the persisted model map.
    let restart_path = snap_path.with_extension("restart.bin");
    let sweep_req = format!(
        r#"{{"id":1,"op":"sweep","filter":"{}","seed":42}}"#,
        json_escape(&filter)
    );
    let model_req =
        r#"{"id":2,"op":"model","engine":"OPT4E[EN-T]/28nm@2.00GHz","model":"resnet18","seed":42}"#
            .to_string();
    let serve_config = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    let run_server = |cache: &'static EngineCache,
                      snapshot_op_path: Option<PathBuf>,
                      requests: Vec<String>|
     -> Result<Vec<String>, String> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let server = std::thread::spawn(move || {
            let snapshot_ops = snapshot_op_path.map(|path| SnapshotOps::new(&DseOps, path));
            let ops: &dyn BatchOps = match &snapshot_ops {
                Some(ops) => ops,
                None => &DseOps,
            };
            serve(listener, cache, ops, serve_config, ServeObs::global(), None)
        });
        let replies = query_batch(&addr, &requests).map_err(|e| format!("restart query: {e}"))?;
        server
            .join()
            .map_err(|_| "restart server panicked".to_string())
            .and_then(|r| r.map_err(|e| format!("restart serve loop: {e}")))?;
        Ok(replies)
    };
    let cache_a: &'static EngineCache = Box::leak(Box::new(EngineCache::new()));
    let replies_a = run_server(
        cache_a,
        Some(restart_path.clone()),
        vec![
            sweep_req.clone(),
            model_req.clone(),
            r#"{"id":3,"op":"snapshot"}"#.to_string(),
            r#"{"id":4,"op":"shutdown"}"#.to_string(),
        ],
    )?;
    let cache_b: &'static EngineCache = Box::leak(Box::new(EngineCache::new()));
    snapshot::load(cache_b, &restart_path)
        .map_err(|e| format!("restart load: {e}"))?
        .ok_or("restart snapshot missing")?;
    let before_b = cache_b.stats();
    let replies_b = run_server(
        cache_b,
        None,
        vec![
            sweep_req,
            model_req,
            r#"{"id":3,"op":"shutdown"}"#.to_string(),
        ],
    )?;
    let replay_delta = cache_b.stats().since(&before_b);
    let replay_hit_rate = replay_delta.hit_rate();
    let model_replay_hit_rate = if replay_delta.model_lookups > 0 {
        replay_delta.model_hits as f64 / replay_delta.model_lookups as f64
    } else {
        0.0
    };
    let replay_identical = replies_a.first() == replies_b.first()
        && replies_a.get(1) == replies_b.get(1)
        && replies_b.len() >= 2;
    let _ = std::fs::remove_file(&restart_path);
    if default_snap {
        let _ = std::fs::remove_file(&snap_path);
    }

    let mut out = String::new();
    writeln!(
        out,
        "Snapshot warm-start smoke — {} design point(s){}",
        points.len(),
        if filter.is_empty() {
            " (full space)".to_string()
        } else {
            format!(" (filter `{filter}`)")
        },
    )
    .unwrap();
    writeln!(
        out,
        "snapshot: {} entries, {} bytes; save {save_ms:.1} ms, load {load_ms:.1} ms",
        info.entries, info.bytes,
    )
    .unwrap();
    writeln!(
        out,
        "sweep wall-clock: cold {cold_ms:.1} ms, warm-from-disk {warm_disk_ms:.1} ms \
         (×{speedup:.1} vs cold), warm-in-memory {warm_mem_ms:.1} ms \
         (disk/mem ratio ×{ratio_disk_vs_mem:.2})",
    )
    .unwrap();
    writeln!(
        out,
        "warm-from-disk cache: {} hits / {} misses; CSV byte-identical to cold: {}",
        warm_disk.cache.hits(),
        warm_disk.cache.misses(),
        outcome_csv(&warm_disk) == cold_csv,
    )
    .unwrap();
    writeln!(
        out,
        "server restart replay: {} hits / {} misses ({:.1}% hit rate; \
         model map {}/{} = {:.1}%), response byte-identical: {replay_identical}",
        replay_delta.hits(),
        replay_delta.misses(),
        replay_hit_rate * 100.0,
        replay_delta.model_hits,
        replay_delta.model_lookups,
        model_replay_hit_rate * 100.0,
    )
    .unwrap();

    if let Some(path) = &out_json {
        let json = format!(
            "{{\n  \"points\": {},\n  \"snapshot_bytes\": {},\n  \"entries\": {},\n  \
             \"save_ms\": {save_ms:.3},\n  \"load_ms\": {load_ms:.3},\n  \
             \"cold_ms\": {cold_ms:.3},\n  \"warm_mem_ms\": {warm_mem_ms:.3},\n  \
             \"warm_disk_ms\": {warm_disk_ms:.3},\n  \"speedup_vs_cold\": {speedup:.2},\n  \
             \"ratio_disk_vs_mem\": {ratio_disk_vs_mem:.3},\n  \
             \"replay_hit_rate\": {replay_hit_rate:.4},\n  \
             \"model_replay_hit_rate\": {model_replay_hit_rate:.4}\n}}\n",
            points.len(),
            info.bytes,
            info.entries,
        );
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(out, "measurements written to {path}").unwrap();
    }

    // The gates, after the report is fully rendered so failures carry it.
    if warm_disk.cache.misses() != 0 {
        return Err(format!(
            "warm-from-disk sweep missed the cache {} time(s) — snapshot is not complete\n{out}",
            warm_disk.cache.misses()
        ));
    }
    if outcome_csv(&warm_disk) != cold_csv {
        return Err(format!(
            "warm-from-disk sweep diverged from the cold CSV\n{out}"
        ));
    }
    if speedup < min_speedup {
        return Err(format!(
            "warm-from-disk speedup ×{speedup:.1} is below the ×{min_speedup:.1} floor\n{out}"
        ));
    }
    if !replay_identical {
        return Err(format!(
            "restart replay diverged from the pre-restart response\n{out}"
        ));
    }
    if replay_delta.misses() != 0 {
        return Err(format!(
            "restart replay missed the cache {} time(s) — warm start is not complete\n{out}",
            replay_delta.misses()
        ));
    }
    if replay_delta.model_lookups == 0 || replay_delta.model_misses != 0 {
        return Err(format!(
            "restart replay must answer the model op from the persisted model map \
             ({} lookups, {} misses)\n{out}",
            replay_delta.model_lookups, replay_delta.model_misses
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The full smoke on a one-engine slice (debug-profile friendly).
    /// The serial OPT4E engine makes the cold run sampling-bound, so the
    /// warm ratio is real; the floor is still relaxed to ×2, leaving the
    /// ×10 CI bar to the release-mode full-space run, while every
    /// correctness gate (zero misses, byte identity, restart replay)
    /// binds at full strength.
    #[test]
    fn snapshot_smoke_end_to_end() {
        let out_path = std::env::temp_dir().join(format!(
            "tpe-snapshot-smoke-test-{}.json",
            std::process::id()
        ));
        let out = out_path.to_str().unwrap().to_string();
        let report = snapshot_smoke(&args(&[
            "--filter",
            "OPT4E[EN-T]/28nm@2.00GHz,precision=w8",
            "--min-speedup",
            "2",
            "--out",
            &out,
        ]));
        assert!(!report.starts_with("error:"), "{report}");
        assert!(
            report.contains("CSV byte-identical to cold: true"),
            "{report}"
        );
        assert!(report.contains("(100.0% hit rate;"), "{report}");
        assert!(report.contains("= 100.0%)"), "{report}");
        assert!(report.contains("response byte-identical: true"), "{report}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        for field in [
            "\"snapshot_bytes\"",
            "\"save_ms\"",
            "\"load_ms\"",
            "\"cold_ms\"",
            "\"warm_disk_ms\"",
            "\"speedup_vs_cold\"",
            "\"replay_hit_rate\": 1.0000",
            "\"model_replay_hit_rate\": 1.0000",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn bad_flags_render_usage() {
        assert!(snapshot_smoke(&args(&["--bogus", "1"])).contains("usage:"));
        assert!(snapshot_smoke(&args(&["--min-speedup", "0"])).contains("usage:"));
        assert!(snapshot_smoke(&args(&["--min-speedup", "x"])).contains("usage:"));
        assert!(snapshot_smoke(&args(&["--filter", "no-such-point"])).contains("no design points"));
    }
}
