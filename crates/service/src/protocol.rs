//! The line-delimited JSON wire protocol.
//!
//! Each request is one JSON object on one line; each response is one
//! JSON object on one line. A request either carries a `cmd` field
//! (`ping`, `stats`, `shutdown`) or is a plan query (equivalently
//! `"cmd": "plan"`). Responses always carry `"ok"`; plan responses put
//! the deterministic payload under `"result"` and every run-variable
//! field — timings, work counters, cache statistics, telemetry — under
//! `"work"`, which golden comparisons strip.

use serde::Value;

use crate::qos::Qos;

/// Non-query protocol commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// Cache/counter statistics.
    Stats,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A plan query.
    Plan(PlanRequest),
    /// A control command.
    Control(Command),
}

/// A plan query: what to tune, where, and under which profile.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Model preset, e.g. `"gpt3-6.7b"`.
    pub model: String,
    /// Platform name: `"l4"` or `"a100"`.
    pub platform: String,
    /// Total GPU count (Table-3 shapes).
    pub gpus: u32,
    /// Global batch size.
    pub batch: u64,
    /// Search-space preset name (default `"mist"`).
    pub space: String,
    /// Sequence length (default: platform default).
    pub seq: Option<u64>,
    /// FlashAttention (default) vs standard attention.
    pub flash: bool,
    /// Per-GPU memory cap in GiB (default: the GPU's usable memory).
    pub budget_gib: Option<f64>,
    /// QoS profile (default exhaustive).
    pub qos: Qos,
    /// Bypass the plan cache entirely (no read, no write).
    pub no_cache: bool,
    /// Interference-calibration seed.
    pub seed: u64,
    /// Gradient-accumulation cap.
    pub max_grad_accum: u32,
}

impl Default for PlanRequest {
    fn default() -> Self {
        PlanRequest {
            model: String::new(),
            platform: "l4".to_owned(),
            gpus: 0,
            batch: 0,
            space: "mist".to_owned(),
            seq: None,
            flash: true,
            budget_gib: None,
            qos: Qos::Exhaustive,
            no_cache: false,
            seed: mist_sim::DEFAULT_SEED,
            max_grad_accum: mist_tuner::DEFAULT_MAX_GRAD_ACCUM,
        }
    }
}

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn want_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.as_i64()
        .filter(|&i| i >= 0)
        .map(|i| i as u64)
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

fn want_u32(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(want_u64(v, key)?).map_err(|_| format!("`{key}` is out of range"))
}

fn want_str(v: &Value, key: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("`{key}` must be a string")),
    }
}

fn want_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}` must be a boolean")),
    }
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("bad request JSON: {e}"))?;
        let Value::Object(fields) = &value else {
            return Err("request must be a JSON object".into());
        };
        let cmd = match field(fields, "cmd") {
            Some(v) => want_str(v, "cmd")?,
            None => "plan".to_owned(),
        };
        match cmd.as_str() {
            "ping" => Ok(Request::Control(Command::Ping)),
            "stats" => Ok(Request::Control(Command::Stats)),
            "shutdown" => Ok(Request::Control(Command::Shutdown)),
            "plan" => Ok(Request::Plan(PlanRequest::from_fields(fields)?)),
            other => Err(format!("unknown cmd `{other}`")),
        }
    }
}

impl PlanRequest {
    fn from_fields(fields: &[(String, Value)]) -> Result<PlanRequest, String> {
        let mut req = PlanRequest::default();
        for (key, value) in fields {
            match key.as_str() {
                "cmd" => {}
                "model" => req.model = want_str(value, key)?,
                "platform" => req.platform = want_str(value, key)?,
                "gpus" => req.gpus = want_u32(value, key)?,
                "batch" => req.batch = want_u64(value, key)?,
                "space" => req.space = want_str(value, key)?,
                "seq" => req.seq = Some(want_u64(value, key)?),
                "flash" => req.flash = want_bool(value, key)?,
                "budget_gib" => {
                    let gib = value.as_f64().ok_or("`budget_gib` must be a number")?;
                    mist_hardware::budget_bytes(gib).map_err(|e| format!("`budget_gib` {e}"))?;
                    req.budget_gib = Some(gib);
                }
                "qos" => req.qos = Qos::parse(&want_str(value, key)?)?,
                "no_cache" => req.no_cache = want_bool(value, key)?,
                "seed" => req.seed = want_u64(value, key)?,
                "max_grad_accum" => {
                    let cap = want_u32(value, key)?;
                    if !(1..=mist_tuner::MAX_GRAD_ACCUM).contains(&cap) {
                        return Err(format!(
                            "`max_grad_accum` must be in 1..={}",
                            mist_tuner::MAX_GRAD_ACCUM
                        ));
                    }
                    req.max_grad_accum = cap;
                }
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        if req.model.is_empty() {
            return Err("`model` is required".into());
        }
        if req.gpus == 0 {
            return Err("`gpus` is required".into());
        }
        if req.batch == 0 {
            return Err("`batch` is required".into());
        }
        if req.seq == Some(0) {
            return Err("`seq` must be positive".into());
        }
        Ok(req)
    }

    /// Renders the request as a wire value (defaults included, so the
    /// line a client sends is self-describing).
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("cmd".into(), Value::Str("plan".into())),
            ("model".into(), Value::Str(self.model.clone())),
            ("platform".into(), Value::Str(self.platform.clone())),
            ("gpus".into(), Value::Int(self.gpus as i64)),
            ("batch".into(), Value::Int(self.batch as i64)),
            ("space".into(), Value::Str(self.space.clone())),
            ("flash".into(), Value::Bool(self.flash)),
            ("qos".into(), Value::Str(self.qos.name().into())),
            ("no_cache".into(), Value::Bool(self.no_cache)),
            ("seed".into(), Value::Int(self.seed as i64)),
            (
                "max_grad_accum".into(),
                Value::Int(self.max_grad_accum as i64),
            ),
        ];
        if let Some(seq) = self.seq {
            fields.push(("seq".into(), Value::Int(seq as i64)));
        }
        if let Some(budget) = self.budget_gib {
            fields.push(("budget_gib".into(), Value::Float(budget)));
        }
        Value::Object(fields)
    }
}

/// Builds an error response line.
pub fn error_response(message: &str) -> String {
    serde_json::to_string(&serde_json::json!({
        "ok": false,
        "error": message,
    }))
    .expect("error response serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_plan_request() {
        let req = Request::parse(r#"{"model": "gpt3-1.3b", "gpus": 2, "batch": 8}"#).unwrap();
        let Request::Plan(plan) = req else {
            panic!("expected plan")
        };
        assert_eq!(plan.model, "gpt3-1.3b");
        assert_eq!(plan.platform, "l4");
        assert_eq!(plan.space, "mist");
        assert_eq!(plan.qos, Qos::Exhaustive);
        assert!(plan.flash);
        assert!(!plan.no_cache);
        assert_eq!(plan.seed, mist_sim::DEFAULT_SEED);
    }

    #[test]
    fn parse_commands() {
        assert_eq!(
            Request::parse(r#"{"cmd": "ping"}"#).unwrap(),
            Request::Control(Command::Ping)
        );
        assert_eq!(
            Request::parse(r#"{"cmd": "shutdown"}"#).unwrap(),
            Request::Control(Command::Shutdown)
        );
        assert_eq!(
            Request::parse(r#"{"cmd": "stats"}"#).unwrap(),
            Request::Control(Command::Stats)
        );
    }

    #[test]
    fn parse_rejects_bad_requests() {
        for bad in [
            "not json",
            "[1, 2]",
            r#"{"cmd": "bogus"}"#,
            r#"{"gpus": 2, "batch": 8}"#,
            r#"{"model": "gpt3-1.3b", "batch": 8}"#,
            r#"{"model": "gpt3-1.3b", "gpus": 2}"#,
            r#"{"model": "gpt3-1.3b", "gpus": 2, "batch": 8, "wat": 1}"#,
            r#"{"model": "gpt3-1.3b", "gpus": 2, "batch": 8, "qos": "fast"}"#,
            r#"{"model": "gpt3-1.3b", "gpus": 2, "batch": 8, "budget_gib": -1}"#,
            r#"{"model": "gpt3-1.3b", "gpus": 2, "batch": 8, "budget_gib": 1e300}"#,
            r#"{"model": "gpt3-1.3b", "gpus": 4294967298, "batch": 8}"#,
            r#"{"model": "gpt3-1.3b", "gpus": 2, "batch": 8, "max_grad_accum": 4294967304}"#,
            r#"{"model": "gpt3-1.3b", "gpus": 2, "batch": 8, "max_grad_accum": 65537}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn request_round_trips_through_wire_value() {
        let req = PlanRequest {
            model: "gpt3-6.7b".into(),
            platform: "a100".into(),
            gpus: 16,
            batch: 64,
            space: "mist-fine".into(),
            seq: Some(4096),
            flash: false,
            budget_gib: Some(30.5),
            qos: Qos::Interactive,
            no_cache: true,
            seed: 7,
            max_grad_accum: 32,
        };
        let line = serde_json::to_string(&req.to_value()).unwrap();
        let Request::Plan(parsed) = Request::parse(&line).unwrap() else {
            panic!("expected plan")
        };
        assert_eq!(parsed, req);
    }
}
