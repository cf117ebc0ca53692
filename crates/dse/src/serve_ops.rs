//! Server-side design-space batch ops for the `repro serve` front end.
//!
//! [`DseOps`] plugs the sweep executor and Pareto extractor into
//! `tpe_engine::serve`'s [`BatchOps`] extension point, so a client can
//! run whole design-space questions — the paper's Figure 11–13 sweeps
//! and Pareto fronts — over the wire instead of one point at a time:
//!
//! ```text
//! {"id":1,"op":"sweep","filter":"OPT4E[EN-T],precision=w8","seed":42,"points":true}
//! {"id":2,"op":"pareto","filter":"precision=w8","objectives":"area,delay,energy"}
//! ```
//!
//! * **`sweep`** evaluates the filtered slice
//!   ([`crate::sweep::evaluate_slice`] — the same points
//!   `repro dse --filter F [--model M]` sweeps) through the shared cache
//!   and answers a summary line. With `"points":true` it follows with one
//!   line per design point carrying the point's **exact `repro dse` CSV
//!   row** in a `"csv"` field (schema in the summary's `"csv_header"`),
//!   so the dse CSV pipeline is fully reconstructable from a query
//!   (golden-tested byte-identical in `tpe-bench`).
//! * **`pareto`** runs the same slice evaluation and extracts the
//!   per-(workload × precision) Pareto front ([`pareto_front_per_workload`])
//!   over the requested `"objectives"` (default `area,delay,energy`),
//!   answering a summary plus one line per *front* point (suppress with
//!   `"points":false`).
//!
//! Both summaries carry `"points_follow"` — the number of per-point lines
//! that follow — which `tpe_engine::serve::query_batch` uses to grow its
//! expected response count. All fields are deterministic functions of the
//! request, preserving the serve layer's batched==sequential
//! byte-identity property (cache-state observables like hit counts are
//! deliberately excluded).
//!
//! Slice size is capped per request ([`DEFAULT_MAX_POINTS`], raisable via
//! `"max_points"`): the cap is checked before any point is priced, so a
//! single cheap-to-send request cannot pin a pool worker on an unbounded
//! evaluation.

use std::sync::{Arc, OnceLock};

use tpe_engine::serve::{json_escape, BatchOps, Fields, DEFAULT_SEED};
use tpe_engine::{CycleModel, EngineCache};
use tpe_obs::{Counter, Histogram, Registry};

use crate::emit::{point_csv_row, CSV_HEADER};
use crate::eval::PointResult;
use crate::pareto::{pareto_front_per_workload, Objective};
use crate::shard::{encode_scores, group_key, scores_of, ShardSpec};
use crate::sweep::evaluate_slice_shard;

/// The `sweep`/`pareto`/`fleet` op set. Attach with
/// `tpe_engine::serve::serve(listener, cache, &DseOps, config, obs, None)`.
pub struct DseOps;

impl BatchOps for DseOps {
    fn handle(
        &self,
        op: &str,
        fields: &Fields,
        cache: &EngineCache,
    ) -> Option<Result<Vec<String>, String>> {
        match op {
            "sweep" => Some(slice_op(fields, cache, SliceOp::Sweep)),
            "pareto" => Some(slice_op(fields, cache, SliceOp::Pareto)),
            "fleet" => Some(crate::fleet::fleet_op(fields, cache)),
            _ => None,
        }
    }

    fn op_names(&self) -> String {
        "|sweep|pareto|fleet".to_string()
    }
}

/// Which of the two slice-shaped ops is being answered.
#[derive(Clone, Copy, PartialEq)]
enum SliceOp {
    Sweep,
    Pareto,
}

impl SliceOp {
    fn name(self) -> &'static str {
        match self {
            SliceOp::Sweep => "sweep",
            SliceOp::Pareto => "pareto",
        }
    }

    /// Whether per-point lines are emitted when the request omits
    /// `"points"`: a sweep defaults to summary-only (slices can be
    /// thousands of rows), while a pareto's whole purpose is the front.
    fn points_by_default(self) -> bool {
        matches!(self, SliceOp::Pareto)
    }
}

/// Process-wide metrics for the slice-shaped ops: the wall-clock of one
/// slice evaluation (`dse_slice_eval_ns`, cold or warm — the serve
/// layer's `metrics` op exposes the distribution) and the total design
/// points evaluated over the wire (`dse_slice_points`).
struct DseObs {
    slice_eval_ns: Arc<Histogram>,
    slice_points: Arc<Counter>,
}

fn dse_obs() -> &'static DseObs {
    static OBS: OnceLock<DseObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = Registry::global();
        DseObs {
            slice_eval_ns: reg.histogram("dse_slice_eval_ns"),
            slice_points: reg.counter("dse_slice_points"),
        }
    })
}

/// The default per-request slice-size cap: generous enough for the full
/// default space (2016 points), small enough that one request cannot pin
/// a pool worker on an unbounded evaluation. Requests may raise it
/// explicitly via `"max_points"`.
pub const DEFAULT_MAX_POINTS: usize = 2048;

/// Renders a slice-op summary body. Field order is part of the wire
/// format: the shard-merge client ([`crate::shard::merge_shard_responses`])
/// re-renders the merged summary through this same function, which is
/// what makes merged output byte-identical to a single-node answer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn render_summary(
    op_name: &str,
    filter: &str,
    model: Option<&str>,
    shard: Option<&str>,
    cycle_model: CycleModel,
    seed: u64,
    objective_names: &str,
    points: usize,
    feasible: usize,
    front: usize,
    points_follow: usize,
) -> String {
    let mut model_field = String::new();
    if let Some(m) = model {
        model_field = format!("\"model\":\"{}\",", json_escape(m));
    }
    let mut shard_field = String::new();
    if let Some(s) = shard {
        shard_field = format!("\"shard\":\"{}\",", json_escape(s));
    }
    // Echoed only when non-default so sampled summaries stay
    // byte-identical to the pre-mode wire format.
    let cycle_field = match cycle_model {
        CycleModel::Sampled => "",
        CycleModel::Analytic => "\"cycle_model\":\"analytic\",",
    };
    format!(
        "\"op\":\"{op_name}\",\"filter\":\"{}\",{model_field}{shard_field}{cycle_field}\
         \"seed\":{seed},\"objectives\":\"{objective_names}\",\"points\":{points},\
         \"feasible\":{feasible},\"front\":{front},\"csv_header\":\"{}\",\
         \"points_follow\":{points_follow}",
        json_escape(filter),
        json_escape(CSV_HEADER),
    )
}

/// Renders one per-point body (shared with the shard-merge client, same
/// byte-identity contract as [`render_summary`]). `extras` is either
/// empty or the pre-rendered `,"group":…,"scores":…,"csv_off":…` tail a
/// shard response attaches to its local-front rows.
pub(crate) fn render_point(
    op_name: &str,
    index: usize,
    label: &str,
    feasible: bool,
    on_front: bool,
    csv_row: &str,
    extras: &str,
) -> String {
    format!(
        "\"op\":\"{op_name}-point\",\"index\":{index},\"label\":\"{}\",\"feasible\":{feasible},\
         \"pareto\":{on_front},\"csv\":\"{}\"{extras}",
        json_escape(label),
        json_escape(csv_row),
    )
}

/// The shared request shape: evaluate a filtered slice (or one shard of
/// it), extract the front, answer a summary (+ optional per-point lines).
fn slice_op(fields: &Fields, cache: &EngineCache, op: SliceOp) -> Result<Vec<String>, String> {
    let filter = fields.opt_str("filter")?.unwrap_or("").to_string();
    let model = fields.opt_str("model")?.map(str::to_string);
    let seed = fields.uint_or("seed", DEFAULT_SEED)?;
    let objectives = match fields.opt_str("objectives")? {
        Some(list) => Objective::parse_list(list)?,
        None => Objective::DEFAULT.to_vec(),
    };
    let include_points = fields.bool_or("points", op.points_by_default())?;
    let max_points = fields.uint_or("max_points", DEFAULT_MAX_POINTS as u64)? as usize;
    let shard = fields.opt_str("shard")?.map(ShardSpec::parse).transpose()?;
    // Absent means sampled — and `handle_request_classified` injects the
    // server's default here, so `--cycle-model analytic` servers answer
    // analytic slices without clients re-spelling the field.
    let cycle_model = match fields.opt_str("cycle_model")? {
        None => CycleModel::Sampled,
        Some(m) => CycleModel::parse(m)
            .ok_or_else(|| format!("unknown cycle_model `{m}` (expected sampled|analytic)"))?,
    };

    let obs = dse_obs();
    let indexed = obs.slice_eval_ns.time(|| {
        evaluate_slice_shard(
            &filter,
            model.as_deref(),
            seed,
            Some(max_points),
            cache,
            cycle_model,
            shard.as_ref(),
        )
    })?;
    obs.slice_points.add(indexed.len() as u64);
    let (global_idx, results): (Vec<usize>, Vec<PointResult>) = indexed.into_iter().unzip();
    // Front positions are into the evaluated (shard-local) slice; with no
    // shard they coincide with global indices.
    let front = pareto_front_per_workload(&results, &objectives);
    let feasible = results.iter().filter(|r| r.feasible()).count();
    let objective_names = objectives
        .iter()
        .map(|o| o.name())
        .collect::<Vec<_>>()
        .join(",");

    // The per-point payload: the front members for `pareto`, the whole
    // slice for `sweep` (positions into `results`).
    let payload: Vec<usize> = match op {
        SliceOp::Sweep => (0..results.len()).collect(),
        SliceOp::Pareto => front.clone(),
    };
    let points_follow = if include_points { payload.len() } else { 0 };

    let shard_spelled = shard.as_ref().map(|s| s.spell());
    let mut bodies = vec![render_summary(
        op.name(),
        &filter,
        model.as_deref(),
        shard_spelled.as_deref(),
        cycle_model,
        seed,
        &objective_names,
        results.len(),
        feasible,
        front.len(),
        points_follow,
    )];
    if include_points {
        bodies.reserve(payload.len());
        for pos in payload {
            let r = &results[pos];
            let on_front = front.binary_search(&pos).is_ok();
            // A shard answers with the point's *global* slice index and,
            // on its local-front rows, the merge fields: dominance group,
            // exact score bits, and the row as it renders off-front — so
            // a merge client can demote globally-dominated points without
            // re-evaluating anything.
            let extras = match (&shard, on_front) {
                (Some(_), true) => {
                    let scores = scores_of(r, &objectives)
                        .expect("front members are feasible by construction");
                    format!(
                        ",\"group\":\"{}\",\"scores\":\"{}\",\"csv_off\":\"{}\"",
                        json_escape(&group_key(r)),
                        encode_scores(&scores),
                        json_escape(&point_csv_row(r, false)),
                    )
                }
                _ => String::new(),
            };
            bodies.push(render_point(
                op.name(),
                global_idx[pos],
                &r.point.label(),
                r.feasible(),
                on_front,
                &point_csv_row(r, on_front),
                &extras,
            ));
        }
    }
    Ok(bodies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::evaluate_slice;
    use tpe_engine::serve::handle_request;

    const FILTER: &str = "OPT1(TPU)/28nm@1.50,precision=w8";

    fn ask(req: &str, cache: &EngineCache) -> (Vec<String>, bool) {
        handle_request(req, cache, &DseOps)
    }

    #[test]
    fn sweep_summary_counts_the_slice() {
        let cache = EngineCache::new();
        let req = format!(r#"{{"id":5,"op":"sweep","filter":"{FILTER}","seed":42}}"#);
        let (lines, down) = ask(&req, &cache);
        assert!(!down);
        assert_eq!(lines.len(), 1, "summary only by default: {lines:?}");
        let expected = crate::space::DesignSpace::paper_default()
            .enumerate_filtered(FILTER)
            .len();
        assert!(
            lines[0].starts_with("{\"id\":5,\"ok\":true,\"op\":\"sweep\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[0].contains(&format!("\"points\":{expected}")),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"points_follow\":0"), "{}", lines[0]);
        assert!(
            lines[0].contains("\"objectives\":\"area,delay,energy\""),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn sweep_points_ship_the_exact_csv_rows() {
        let cache = EngineCache::new();
        let req = format!(r#"{{"id":1,"op":"sweep","filter":"{FILTER}","seed":42,"points":true}}"#);
        let (lines, _) = ask(&req, &cache);
        let slice = evaluate_slice(
            FILTER,
            None,
            42,
            None,
            &EngineCache::new(),
            CycleModel::Sampled,
        )
        .unwrap();
        assert_eq!(lines.len(), 1 + slice.len());
        assert!(
            lines[0].contains(&format!("\"points_follow\":{}", slice.len())),
            "{}",
            lines[0]
        );
        let front = pareto_front_per_workload(&slice, &Objective::DEFAULT);
        for (i, line) in lines[1..].iter().enumerate() {
            let on_front = front.binary_search(&i).is_ok();
            let expected = json_escape(&point_csv_row(&slice[i], on_front));
            assert!(
                line.contains(&format!("\"csv\":\"{expected}\"")),
                "point {i}: {line}"
            );
            assert!(line.contains(&format!("\"index\":{i}")), "{line}");
        }
    }

    #[test]
    fn pareto_answers_front_points_by_default() {
        let cache = EngineCache::new();
        let req = format!(r#"{{"id":2,"op":"pareto","filter":"{FILTER}","seed":42}}"#);
        let (lines, _) = ask(&req, &cache);
        let slice = evaluate_slice(
            FILTER,
            None,
            42,
            None,
            &EngineCache::new(),
            CycleModel::Sampled,
        )
        .unwrap();
        let front = pareto_front_per_workload(&slice, &Objective::DEFAULT);
        assert_eq!(lines.len(), 1 + front.len());
        assert!(
            lines[0].contains(&format!("\"front\":{}", front.len())),
            "{}",
            lines[0]
        );
        for line in &lines[1..] {
            assert!(line.contains("\"op\":\"pareto-point\""), "{line}");
            assert!(line.contains("\"pareto\":true"), "{line}");
        }
        // Custom objectives change the front deterministically.
        let req2 = format!(
            r#"{{"id":2,"op":"pareto","filter":"{FILTER}","seed":42,"objectives":"area,power"}}"#
        );
        let (lines2, _) = ask(&req2, &cache);
        assert!(
            lines2[0].contains("\"objectives\":\"area,power\""),
            "{}",
            lines2[0]
        );
    }

    #[test]
    fn slice_ops_surface_cli_shaped_errors() {
        let cache = EngineCache::new();
        for (req, needle) in [
            (
                r#"{"id":1,"op":"sweep","filter":"no-such-point"}"#,
                "no design points",
            ),
            (
                r#"{"id":1,"op":"sweep","objectives":"area"}"#,
                "at least two objectives",
            ),
            (
                r#"{"id":1,"op":"pareto","model":"no-such-net"}"#,
                "no network model",
            ),
            (
                r#"{"id":1,"op":"sweep","points":"yes"}"#,
                "must be a boolean",
            ),
            (
                r#"{"id":1,"op":"sweep","filter":"OPT1(TPU)/28nm@1.50,precision=w8","max_points":5}"#,
                "over the cap of 5",
            ),
        ] {
            let (lines, down) = ask(req, &cache);
            assert!(!down);
            assert_eq!(lines.len(), 1);
            assert!(lines[0].contains("\"ok\":false"), "{req} -> {}", lines[0]);
            assert!(lines[0].contains(needle), "{req} -> {}", lines[0]);
        }
    }

    /// Whole-model slices work over the wire like `repro dse --model`.
    #[test]
    fn sweep_accepts_a_model_axis() {
        let cache = EngineCache::new();
        let req = r#"{"id":3,"op":"sweep","filter":"OPT1(TPU)/28nm@1.50,precision=w8","model":"resnet18","seed":42,"points":true}"#;
        let (lines, _) = ask(req, &cache);
        assert!(lines[0].contains("\"model\":\"resnet18\""), "{}", lines[0]);
        assert!(lines.len() > 1);
        assert!(
            lines[1..].iter().all(|l| l.contains(",model,")),
            "per-point rows must be whole-model rows: {lines:?}"
        );
    }

    /// `max_points` bounds evaluation cost before any pricing runs; a
    /// request-level raise re-admits the slice.
    #[test]
    fn max_points_cap_is_raisable_per_request() {
        let cache = EngineCache::new();
        let capped = format!(r#"{{"id":1,"op":"sweep","filter":"{FILTER}","max_points":3}}"#);
        let (lines, _) = ask(&capped, &cache);
        assert!(lines[0].contains("over the cap of 3"), "{}", lines[0]);
        let raised = format!(r#"{{"id":1,"op":"sweep","filter":"{FILTER}","max_points":100}}"#);
        let (lines, _) = ask(&raised, &cache);
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    }

    /// Identical requests produce identical bytes whatever the cache has
    /// seen — the property that lets sweeps join pipelined batches.
    #[test]
    fn slice_ops_are_deterministic_per_request() {
        let cache = EngineCache::new();
        let req = format!(r#"{{"id":9,"op":"sweep","filter":"{FILTER}","points":true}}"#);
        let (a, _) = ask(&req, &cache);
        let (b, _) = ask(&req, &cache); // warm rerun
        assert_eq!(a, b);
        let (c, _) = ask(&req, &EngineCache::new()); // cold cache
        assert_eq!(a, c);
    }
}
