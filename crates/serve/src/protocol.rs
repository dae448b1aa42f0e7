//! The serve wire protocol: requests in, events out, all as single-line
//! JSON (see [`json`](crate::json) for the value model and its bit-exact
//! `f64` encoding).
//!
//! # Requests
//!
//! One JSON object per line:
//!
//! * `{"op":"run","id":"r1","stream":true,"specs":[{...},...]}` —
//!   execute scenarios. `id` is echoed on every event of the response
//!   (optional); `stream:true` additionally emits one `epoch` event per
//!   control interval per scenario.
//! * `{"op":"stats"}` — server counters (cache, coalescing, solver).
//! * `{"op":"ping"}` — liveness probe.
//! * `{"op":"shutdown"}` — graceful shutdown: drain in-flight work,
//!   refuse new connections, exit.
//!
//! # Spec objects
//!
//! Every field is optional; omitted fields keep the paper-baseline
//! defaults of [`ScenarioSpec::new`]. Unknown fields are rejected (a
//! typo must not silently simulate the wrong scenario). Fields:
//! `label`, `tiers`, `coolant` (`"air"`/`"water"`), `grid`
//! (`{"nx":..,"ny":..}`), `workload` (`"web-server"`, `"database"`,
//! `"multimedia"`, `"max-utilization"`), `policy` (`"ac-lb"`,
//! `"ac-tdvfs-lb"`, `"lc-lb"`, `"lc-fuzzy"`, `"lc-fuzzy-flow-only"`),
//! `solver` (`"direct"`/`"mg"`), `seconds`, `seed`,
//! `thermal_dt`, `control_interval`, `threshold_celsius`,
//! `sensor_noise` (`{"std":..,"seed":..}`), `flow_ml_per_min`, and
//! `fault` (`{"panic_at":e}` or `{"nan_at":e,"cell":c}` — the test
//! harness for fault-isolation drills). The nested objects reject unknown
//! keys as well.
//!
//! # Response events
//!
//! `run` answers with zero or more `epoch` events followed by exactly one
//! `done` event carrying per-slot results in request order. The `done`
//! payload contains only *spec-pure* data (metrics, fingerprints,
//! deterministic failure reports), which is what makes the determinism
//! contract — identical request, bit-identical response — independent of
//! scheduling; scheduling-dependent counters answer `stats` instead.

use cmosaic::batch::{RecoveryRecord, ScenarioError, ScenarioOutcome, SlotError};
use cmosaic::fault::{FaultKind, FaultPlan};
use cmosaic::metrics::RunMetrics;
use cmosaic::policy::PolicyKind;
use cmosaic::scenario::FlowSchedule;
use cmosaic::ScenarioSpec;
use cmosaic_floorplan::GridSpec;
use cmosaic_materials::units::{Celsius, VolumetricFlow};
use cmosaic_power::trace::WorkloadKind;
use cmosaic_thermal::{SolverBackend, SolverStats};

use crate::json::{obj, Json};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute scenarios, optionally streaming per-epoch events.
    Run {
        /// Caller-chosen id echoed on every response event.
        id: Option<String>,
        /// Emit `epoch` events before the final `done`.
        stream: bool,
        /// The scenarios to run, in response-slot order.
        specs: Vec<ScenarioSpec>,
    },
    /// Server counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown.
    Shutdown,
}

impl Request {
    /// Parses a request object; the error string is safe to echo to the
    /// client verbatim.
    pub fn parse(v: &Json) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request must carry a string 'op' field")?;
        match op {
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "run" => {
                let id = v.get("id").and_then(Json::as_str).map(str::to_string);
                let stream = v.get("stream").and_then(Json::as_bool).unwrap_or(false);
                let specs = v
                    .get("specs")
                    .and_then(Json::as_arr)
                    .ok_or("run requires a 'specs' array")?;
                if specs.is_empty() {
                    return Err("run requires at least one spec".into());
                }
                let specs = specs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| parse_spec(s).map_err(|e| format!("spec {i}: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Run { id, stream, specs })
            }
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

/// Builds a [`ScenarioSpec`] from a protocol spec object (see the module
/// docs for the field list). Unknown fields are errors.
pub fn parse_spec(v: &Json) -> Result<ScenarioSpec, String> {
    let fields = v.as_obj().ok_or("spec must be an object")?;
    let mut spec = ScenarioSpec::new();
    let str_of = |val: &Json, what: &str| -> Result<String, String> {
        val.as_str()
            .map(str::to_string)
            .ok_or(format!("{what} must be a string"))
    };
    let usize_of = |val: &Json, what: &str| -> Result<usize, String> {
        val.as_usize().ok_or(format!("{what} must be an integer"))
    };
    let f64_of = |val: &Json, what: &str| -> Result<f64, String> {
        val.as_f64().ok_or(format!("{what} must be a number"))
    };
    for (key, val) in fields {
        spec = match key.as_str() {
            "label" => spec.label(str_of(val, "label")?),
            "tiers" => spec.tiers(usize_of(val, "tiers")?),
            "coolant" => match str_of(val, "coolant")?.as_str() {
                "air" => spec.air(),
                "water" => spec.water(),
                other => return Err(format!("unknown coolant '{other}' (air|water)")),
            },
            "grid" => {
                only_keys(val, "grid", &["nx", "ny"])?;
                let nx = usize_of(val.get("nx").ok_or("grid requires nx")?, "grid.nx")?;
                let ny = usize_of(val.get("ny").ok_or("grid requires ny")?, "grid.ny")?;
                spec.grid(GridSpec::new(nx, ny).map_err(|e| e.to_string())?)
            }
            "workload" => spec.workload(match str_of(val, "workload")?.as_str() {
                "web-server" => WorkloadKind::WebServer,
                "database" => WorkloadKind::Database,
                "multimedia" => WorkloadKind::Multimedia,
                "max-utilization" => WorkloadKind::MaxUtilization,
                other => return Err(format!("unknown workload '{other}'")),
            }),
            "policy" => spec.policy(match str_of(val, "policy")?.as_str() {
                "ac-lb" => PolicyKind::AcLb,
                "ac-tdvfs-lb" => PolicyKind::AcTdvfsLb,
                "lc-lb" => PolicyKind::LcLb,
                "lc-fuzzy" => PolicyKind::LcFuzzy,
                "lc-fuzzy-flow-only" => PolicyKind::LcFuzzyFlowOnly,
                other => return Err(format!("unknown policy '{other}'")),
            }),
            "solver" => spec.solver(match str_of(val, "solver")?.as_str() {
                "direct" => SolverBackend::DirectLu,
                "mg" => SolverBackend::multigrid(),
                other => return Err(format!("unknown solver '{other}' (direct|mg)")),
            }),
            "seconds" => spec.seconds(usize_of(val, "seconds")?),
            "seed" => spec.seed(val.as_u64().ok_or("seed must be an integer")?),
            "thermal_dt" => spec.thermal_dt(f64_of(val, "thermal_dt")?),
            "control_interval" => spec.control_interval(f64_of(val, "control_interval")?),
            "threshold_celsius" => spec.threshold(Celsius(f64_of(val, "threshold_celsius")?)),
            "sensor_noise" => {
                only_keys(val, "sensor_noise", &["std", "seed"])?;
                let std = f64_of(val.get("std").ok_or("sensor_noise requires std")?, "std")?;
                let seed = val
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("sensor_noise requires an integer seed")?;
                spec.sensor_noise(std, seed)
            }
            "flow_ml_per_min" => spec.flow_schedule(FlowSchedule::Fixed(
                VolumetricFlow::from_ml_per_min(f64_of(val, "flow_ml_per_min")?),
            )),
            "fault" => {
                only_keys(val, "fault", &["panic_at", "nan_at", "cell"])?;
                let (at, kind) = match (val.get("panic_at"), val.get("nan_at"), val.get("cell")) {
                    (Some(epoch), None, None) => {
                        (usize_of(epoch, "fault.panic_at")?, FaultKind::Panic)
                    }
                    (None, Some(epoch), cell) => {
                        let cell = cell.map_or(Ok(0), |c| usize_of(c, "fault.cell"))?;
                        (usize_of(epoch, "fault.nan_at")?, FaultKind::Nan { cell })
                    }
                    (None, None, _) => return Err("fault requires panic_at or nan_at".into()),
                    _ => return Err("fault takes panic_at alone or nan_at with a cell".into()),
                };
                spec.fault_plan(FaultPlan::none().at(at, kind))
            }
            other => return Err(format!("unknown spec field '{other}'")),
        };
    }
    Ok(spec)
}

/// Rejects a nested spec object (the value of field `what`) that is not
/// an object or holds a key outside `allowed`.
fn only_keys(val: &Json, what: &str, allowed: &[&str]) -> Result<(), String> {
    let fields = val.as_obj().ok_or(format!("{what} must be an object"))?;
    match fields.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("unknown {what} field '{k}'")),
        None => Ok(()),
    }
}

/// A fingerprint rendered the way every endpoint renders it: 16 lowercase
/// hex digits.
pub fn hex_fingerprint(fp: u64) -> String {
    format!("{fp:016x}")
}

/// [`RunMetrics`] as a JSON object. Every float goes through the
/// bit-exact encoder, so equal metrics always produce equal bytes.
pub fn metrics_json(m: &RunMetrics) -> Json {
    obj(vec![
        ("hotspot_time_per_core", Json::Num(m.hotspot_time_per_core)),
        ("hotspot_time_any", Json::Num(m.hotspot_time_any)),
        ("peak_temperature_k", Json::Num(m.peak_temperature.0)),
        ("chip_energy_j", Json::Num(m.chip_energy)),
        ("pump_energy_j", Json::Num(m.pump_energy)),
        ("perf_loss_mean", Json::Num(m.perf_loss_mean)),
        ("perf_loss_max", Json::Num(m.perf_loss_max)),
        (
            "mean_flow_m3s",
            m.mean_flow.map_or(Json::Null, |q| Json::Num(q.0)),
        ),
        ("seconds", Json::u64(m.seconds as u64)),
    ])
}

fn error_json(e: &ScenarioError) -> Json {
    match e {
        ScenarioError::Panicked { message } => obj(vec![
            ("kind", Json::str("panicked")),
            ("message", Json::str(message.clone())),
        ]),
        ScenarioError::Diverged { epoch, cell, value } => obj(vec![
            ("kind", Json::str("diverged")),
            ("epoch", Json::u64(*epoch as u64)),
            ("cell", Json::u64(*cell as u64)),
            ("value", Json::Num(*value)),
        ]),
        ScenarioError::Failed { detail } => obj(vec![
            ("kind", Json::str("failed")),
            ("detail", Json::str(detail.clone())),
        ]),
    }
}

fn recovery_json(r: &RecoveryRecord) -> Json {
    obj(vec![
        ("attempts", Json::u64(u64::from(r.attempts))),
        (
            "backend_demotions",
            Json::u64(u64::from(r.backend_demotions)),
        ),
        ("dt_halvings", Json::u64(u64::from(r.dt_halvings))),
    ])
}

/// One per-slot result of a `done` event: label, spec fingerprint, and
/// either metrics or a structured error, plus what the retry ladder did.
/// Everything here is a pure function of the spec.
pub fn slot_json(
    label: &str,
    fingerprint: u64,
    result: &Result<ScenarioOutcome, SlotError>,
) -> Json {
    let mut fields = vec![
        ("label", Json::str(label)),
        ("fingerprint", Json::str(hex_fingerprint(fingerprint))),
        ("ok", Json::Bool(result.is_ok())),
    ];
    match result {
        Ok(outcome) => {
            fields.push(("metrics", metrics_json(&outcome.metrics)));
            fields.push(("recovery", recovery_json(&outcome.recovery)));
        }
        Err(slot) => {
            fields.push(("error", error_json(&slot.error)));
            fields.push(("recovery", recovery_json(&slot.recovery)));
        }
    }
    obj(fields)
}

/// The terminal event of a `run` response.
pub fn done_event(id: Option<&str>, slots: Vec<Json>) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", Json::str(id)));
    }
    fields.push(("event", Json::str("done")));
    fields.push(("results", Json::Arr(slots)));
    obj(fields)
}

/// One streamed per-epoch event (only with `stream:true`). `slot` is the
/// scenario's position in the request; the payload is spec-pure, so a
/// request's event stream is as deterministic as its `done` payload.
#[allow(clippy::too_many_arguments)]
pub fn epoch_event(
    id: Option<&str>,
    slot: usize,
    epoch: usize,
    time: f64,
    peak_k: f64,
    chip_w: f64,
    pump_w: f64,
    flow: Option<f64>,
) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", Json::str(id)));
    }
    fields.extend([
        ("event", Json::str("epoch")),
        ("slot", Json::u64(slot as u64)),
        ("epoch", Json::u64(epoch as u64)),
        ("time_s", Json::Num(time)),
        ("peak_k", Json::Num(peak_k)),
        ("chip_w", Json::Num(chip_w)),
        ("pump_w", Json::Num(pump_w)),
        ("flow_m3s", flow.map_or(Json::Null, Json::Num)),
    ]);
    obj(fields)
}

/// An error event (malformed request, spec validation failure, refusal
/// during shutdown).
pub fn error_event(id: Option<&str>, detail: &str) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", Json::str(id)));
    }
    fields.push(("event", Json::str("error")));
    fields.push(("detail", Json::str(detail)));
    obj(fields)
}

/// Aggregated [`SolverStats`] as a JSON object (for `stats`).
pub fn solver_json(s: &SolverStats) -> Json {
    obj(vec![
        ("full_factorizations", Json::u64(s.full_factorizations)),
        ("refactorizations", Json::u64(s.refactorizations)),
        ("pivot_fallbacks", Json::u64(s.pivot_fallbacks)),
        ("adopted_symbolics", Json::u64(s.adopted_symbolics)),
        ("iterative_solves", Json::u64(s.iterative_solves)),
        ("in_place_solves", Json::u64(s.in_place_solves)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_parses_specs_and_options() {
        let v = Json::parse(
            r#"{"op":"run","id":"r1","stream":true,"specs":[
                {"tiers":4,"coolant":"water","grid":{"nx":6,"ny":6},
                 "workload":"database","policy":"lc-lb","solver":"direct",
                 "seconds":3,"seed":9,"threshold_celsius":80.0}]}"#,
        )
        .unwrap();
        match Request::parse(&v).unwrap() {
            Request::Run { id, stream, specs } => {
                assert_eq!(id.as_deref(), Some("r1"));
                assert!(stream);
                assert_eq!(specs.len(), 1);
                assert_eq!(specs[0].duration(), 3);
                assert_eq!(specs[0].trace_seed(), 9);
                assert_eq!(specs[0].policy_kind(), PolicyKind::LcLb);
                specs[0].build().expect("spec is buildable");
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_and_ops_are_rejected() {
        let bad = Json::parse(r#"{"op":"run","specs":[{"sedo":1}]}"#).unwrap();
        let err = Request::parse(&bad).unwrap_err();
        assert!(err.contains("unknown spec field 'sedo'"), "{err}");
        let bad = Json::parse(r#"{"op":"explode"}"#).unwrap();
        assert!(Request::parse(&bad).is_err());
        let bad = Json::parse(r#"{"op":"run","specs":[]}"#).unwrap();
        assert!(Request::parse(&bad).is_err());
        let bad = Json::parse(r#"{"solver":"ilu0"}"#).unwrap();
        let err = parse_spec(&bad).unwrap_err();
        assert!(err.contains("unknown solver 'ilu0' (direct|mg)"), "{err}");
        // Nested objects reject unknown keys too, and a fault names one
        // kind: a typo must not silently simulate another scenario.
        for (text, want) in [
            (
                r#"{"grid":{"nx":8,"ny":8,"nz":3}}"#,
                "unknown grid field 'nz'",
            ),
            (
                r#"{"sensor_noise":{"std":0.5,"seed":1,"sed":2}}"#,
                "unknown sensor_noise field 'sed'",
            ),
            (
                r#"{"fault":{"nan_at":1,"cel":7}}"#,
                "unknown fault field 'cel'",
            ),
            (
                r#"{"fault":{"panic_at":1,"nan_at":2}}"#,
                "fault takes panic_at alone",
            ),
        ] {
            let err = parse_spec(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(want), "{text}: {err}");
        }
    }

    #[test]
    fn control_ops_parse() {
        for (text, want) in [
            (r#"{"op":"stats"}"#, Request::Stats),
            (r#"{"op":"ping"}"#, Request::Ping),
            (r#"{"op":"shutdown"}"#, Request::Shutdown),
        ] {
            assert_eq!(Request::parse(&Json::parse(text).unwrap()).unwrap(), want);
        }
    }

    #[test]
    fn fault_specs_parse_into_plans() {
        let v = Json::parse(r#"{"fault":{"panic_at":0}}"#).unwrap();
        let spec = parse_spec(&v).unwrap();
        assert_ne!(spec.fingerprint(), ScenarioSpec::new().fingerprint());
        let v = Json::parse(r#"{"fault":{"nan_at":1,"cell":3}}"#).unwrap();
        parse_spec(&v).unwrap();
        let v = Json::parse(r#"{"fault":{}}"#).unwrap();
        assert!(parse_spec(&v).is_err());
    }
}
