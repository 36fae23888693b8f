//! The planner: query resolution, cache orchestration, warm-started
//! tuning, and response construction.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use mist_hardware::{budget_bytes, ClusterSpec, OpCostDb, Platform};
use mist_interference::InterferenceModel;
use mist_models::{AttentionImpl, ModelSpec};
use mist_tuner::{SearchSpace, TuneOutcome, Tuner};
use parking_lot::{Condvar, Mutex};
use serde::Value;

use crate::cache::{CacheEntry, PlanCache, QuerySummary};
use crate::fingerprint::canonical_fingerprint;
use crate::protocol::{error_response, Command, PlanRequest, Request};

/// A fully resolved query: every default applied, every preset
/// expanded. Fingerprints are taken over this, never over the wire
/// form, so spelling variants (`"gpt3"` vs `"gpt"`) cannot split the
/// cache.
struct Resolved {
    model: ModelSpec,
    cluster: ClusterSpec,
    space: SearchSpace,
    budget: f64,
    exact: String,
    family: String,
    summary: QuerySummary,
}

/// What `handle_line` tells the server to do after responding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep serving.
    Continue,
    /// Stop the accept loop and exit.
    Shutdown,
}

/// The resident planner backing `mist-cli serve`.
pub struct PlannerService {
    cache: Mutex<PlanCache>,
    // One interference model per (platform, seed): `mist_sim::calibrate`
    // depends on nothing else, so all queries share the result.
    calibrations: Mutex<HashMap<(Platform, u64), Arc<InterferenceModel>>>,
    // Single-flight: exact fingerprints currently being tuned. A second
    // query for the same fingerprint waits and then hits the cache
    // instead of duplicating the tune.
    inflight: Mutex<HashSet<String>>,
    inflight_cv: Condvar,
    hits: mist_telemetry::Counter,
    misses: mist_telemetry::Counter,
    warm_starts: mist_telemetry::Counter,
    cert_rejections: mist_telemetry::Counter,
}

impl PlannerService {
    /// Creates a planner over a cache.
    pub fn new(cache: PlanCache) -> Self {
        PlannerService {
            cache: Mutex::new(cache),
            calibrations: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
            hits: mist_telemetry::Counter::new(),
            misses: mist_telemetry::Counter::new(),
            warm_starts: mist_telemetry::Counter::new(),
            cert_rejections: mist_telemetry::Counter::new(),
        }
    }

    /// Exact-hit count since startup.
    pub fn cache_hits(&self) -> u64 {
        self.hits.value()
    }

    /// Tuner-run count since startup (cold + warm).
    pub fn cache_misses(&self) -> u64 {
        self.misses.value()
    }

    /// Warm-started tuner runs since startup.
    pub fn warm_start_count(&self) -> u64 {
        self.warm_starts.value()
    }

    /// Cached plans evicted because their certificate failed re-check.
    pub fn cert_rejection_count(&self) -> u64 {
        self.cert_rejections.value()
    }

    /// Handles one request line; returns the response line and whether
    /// the server should shut down.
    pub fn handle_line(&self, line: &str) -> (String, Control) {
        match Request::parse(line) {
            Err(e) => (error_response(&e), Control::Continue),
            Ok(Request::Control(Command::Ping)) => (
                serde_json::to_string(&serde_json::json!({"ok": true, "pong": true}))
                    .expect("ping response"),
                Control::Continue,
            ),
            Ok(Request::Control(Command::Stats)) => {
                let entries = self.cache.lock().len() as u64;
                let value = serde_json::json!({
                    "ok": true,
                    "cache": self.cache_counters(entries),
                });
                (
                    serde_json::to_string(&value).expect("stats response"),
                    Control::Continue,
                )
            }
            Ok(Request::Control(Command::Shutdown)) => (
                serde_json::to_string(&serde_json::json!({"ok": true, "shutdown": true}))
                    .expect("shutdown response"),
                Control::Shutdown,
            ),
            Ok(Request::Plan(req)) => (
                serde_json::to_string(&self.plan(&req)).expect("plan response"),
                Control::Continue,
            ),
        }
    }

    /// Answers a plan query (the full cold/hit/warm state machine).
    pub fn plan(&self, req: &PlanRequest) -> Value {
        let started = Instant::now();
        let resolved = match self.resolve(req) {
            Ok(r) => r,
            Err(e) => {
                return serde_json::json!({"ok": false, "error": e});
            }
        };
        let _span = mist_telemetry::span!(
            "service.query",
            gpus = resolved.summary.gpus,
            batch = resolved.summary.batch
        );

        if !req.no_cache {
            if let Some(value) = self.try_hit(&resolved, req.seed, started) {
                return value;
            }
        }

        // Single-flight on the exact fingerprint: duplicate concurrent
        // queries wait here, then (cache permitting) take the hit path.
        let _flight = self.begin_flight(resolved.exact.clone());
        if !req.no_cache {
            if let Some(value) = self.try_hit(&resolved, req.seed, started) {
                return value;
            }
        }

        let interference = self.calibration(resolved.cluster.platform, req.seed);
        let warm_seed = if req.no_cache {
            None
        } else {
            self.cache
                .lock()
                .warm_seed(&resolved.family, &resolved.exact, resolved.budget)
        };
        let db = OpCostDb::new(resolved.cluster.gpu.clone());
        let mut tuner = Tuner::new(
            &resolved.model,
            &resolved.cluster,
            &db,
            &resolved.space,
            &interference,
        )
        .with_max_grad_accum(req.max_grad_accum)
        .with_budget(resolved.budget)
        .with_max_outer_candidates(req.qos.max_outer_candidates());
        if let Some(seed) = warm_seed {
            tuner = tuner.with_frontier_seed(Arc::new(seed));
        }

        match tuner.tune_with_export(req.batch) {
            None => {
                self.misses.inc();
                let entries = self.cache.lock().len() as u64;
                serde_json::json!({
                    "ok": true,
                    "result": serde_json::json!({
                        "feasible": false,
                        "model": resolved.model.name,
                        "space": resolved.space.name,
                    }),
                    "work": serde_json::json!({
                        "source": "cold",
                        "query_secs": started.elapsed().as_secs_f64(),
                        "configs_evaluated": 0u64,
                        "seeded_frontiers": 0u64,
                        "cache": self.cache_counters(entries),
                    }),
                })
            }
            Some((outcome, export)) => {
                let seeded = outcome.telemetry.counter("tuner.seeded_frontiers");
                self.misses.inc();
                let source = if seeded > 0 {
                    self.warm_starts.inc();
                    "warm"
                } else {
                    "cold"
                };
                if !req.no_cache {
                    let mut cache = self.cache.lock();
                    cache.insert(CacheEntry {
                        exact: resolved.exact.clone(),
                        family: resolved.family.clone(),
                        summary: resolved.summary.clone(),
                        outcome: outcome.clone(),
                        export,
                    });
                    if let Err(e) = cache.save() {
                        eprintln!("mist-service: cache save failed: {e}");
                    }
                }
                self.respond(&resolved, &outcome, source, seeded, started)
            }
        }
    }

    /// Exact-hit fast path. Before a cached plan is served its
    /// certificate is re-derived through the interval framework; an
    /// entry that no longer checks out (corrupted file, stale wire
    /// format, tampering) is evicted and the query falls through to a
    /// fresh tune instead of serving a bad plan.
    fn try_hit(&self, resolved: &Resolved, seed: u64, started: Instant) -> Option<Value> {
        let outcome = {
            let cache = self.cache.lock();
            cache.lookup(&resolved.exact)?.outcome.clone()
        };
        let interference = self.calibration(resolved.cluster.platform, seed);
        let db = OpCostDb::new(resolved.cluster.gpu.clone());
        let report = mist_tuner::certify_plan(
            &resolved.model,
            &resolved.cluster,
            &db,
            &interference,
            &outcome.plan,
            &outcome.stage_points,
            outcome.predicted_iteration,
            resolved.budget,
            resolved.space.overlap_aware,
            "serve",
        );
        if !report.ok() || report.certificate != outcome.certificate {
            self.cert_rejections.inc();
            mist_telemetry::counter_add("service.cache.cert_rejections", 1);
            eprintln!(
                "mist-service: evicting cached plan {}: certificate re-check failed: {:?}",
                resolved.exact, report.failures
            );
            self.cache.lock().remove(&resolved.exact);
            return None;
        }
        self.hits.inc();
        mist_telemetry::counter_add("service.cache.hits", 1);
        Some(self.respond(resolved, &outcome, "hit", 0, started))
    }

    /// Builds the plan response. Everything under `"result"` is a pure
    /// function of the resolved query — byte-identical across
    /// cold/hit/warm — while `"work"` carries the run-variable fields.
    fn respond(
        &self,
        resolved: &Resolved,
        outcome: &TuneOutcome,
        source: &str,
        seeded: u64,
        started: Instant,
    ) -> Value {
        let entries = self.cache.lock().len() as u64;
        serde_json::json!({
            "ok": true,
            "result": serde_json::json!({
                "feasible": true,
                "model": resolved.model.name,
                "space": resolved.space.name,
                "exact_fingerprint": resolved.exact,
                "family_fingerprint": resolved.family,
                "predicted_iteration_s": outcome.predicted_iteration,
                "predicted_throughput": outcome.predicted_throughput,
                "plan": outcome.plan,
                "stage_points": outcome.stage_points,
            }),
            "work": serde_json::json!({
                "source": source,
                "query_secs": started.elapsed().as_secs_f64(),
                "configs_evaluated": outcome.stats.configs_evaluated,
                "seeded_frontiers": seeded,
                "stats": outcome.stats,
                "telemetry": outcome.telemetry,
                "cache": self.cache_counters(entries),
            }),
        })
    }

    fn cache_counters(&self, entries: u64) -> Value {
        serde_json::json!({
            "hits": self.hits.value(),
            "misses": self.misses.value(),
            "warm_starts": self.warm_starts.value(),
            "cert_rejections": self.cert_rejections.value(),
            "entries": entries,
        })
    }

    /// Memoized interference calibration per (platform, seed).
    fn calibration(&self, platform: Platform, seed: u64) -> Arc<InterferenceModel> {
        if let Some(hit) = self.calibrations.lock().get(&(platform, seed)) {
            return hit.clone();
        }
        let model = Arc::new(mist_sim::calibrate(platform, seed));
        // First insert wins if two queries raced on the same key.
        self.calibrations
            .lock()
            .entry((platform, seed))
            .or_insert(model)
            .clone()
    }

    /// Registers `exact` as in flight, waiting while another thread
    /// tunes it. The guard deregisters and wakes waiters on drop.
    fn begin_flight(&self, exact: String) -> FlightGuard<'_> {
        let mut inflight = self.inflight.lock();
        while inflight.contains(&exact) {
            inflight = self.inflight_cv.wait(inflight);
        }
        inflight.insert(exact.clone());
        FlightGuard {
            planner: self,
            exact,
        }
    }

    /// Resolves the wire request into specs and fingerprints.
    fn resolve(&self, req: &PlanRequest) -> Result<Resolved, String> {
        let platform = Platform::parse(&req.platform)?;
        let platform_name = platform.name();
        let seq = req.seq.unwrap_or(platform.default_seq());
        ClusterSpec::check_gpu_count(req.gpus).map_err(|e| format!("gpus {e}"))?;
        let attention = if req.flash {
            AttentionImpl::Flash
        } else {
            AttentionImpl::Standard
        };
        let model = mist_models::preset(&req.model, seq, attention)?;
        let cluster = ClusterSpec::for_gpu_count(platform, req.gpus);
        let space = req.qos.restrict(&mist_baselines::space_preset(&req.space)?);
        let budget = match req.budget_gib {
            Some(gib) => budget_bytes(gib).map_err(|e| format!("budget_gib {e}"))?,
            None => cluster.gpu.memory_bytes,
        };

        let arch = serde_json::to_value(&model).map_err(|e| e.to_string())?;
        let space_value = serde_json::to_value(&space).map_err(|e| e.to_string())?;
        let exact = canonical_fingerprint(&serde_json::json!({
            "arch": arch.clone(),
            "cluster": serde_json::json!({
                "platform": platform_name,
                "num_nodes": cluster.num_nodes,
                "gpus_per_node": cluster.gpus_per_node,
            }),
            "space": space_value.clone(),
            "budget": budget,
            "batch": req.batch,
            "seed": req.seed,
            "max_grad_accum": req.max_grad_accum,
        }));
        // The family drops batch, node count, budget and the grad-accum
        // cap: those deltas are warm-startable. It keeps everything the
        // compiled tapes and the calibrated interference model can see —
        // platform (links, GPU, calibration), GPUs per node and the
        // single-node collective-placement branch.
        let family = canonical_fingerprint(&serde_json::json!({
            "arch": arch,
            "tape_env": serde_json::json!({
                "platform": platform_name,
                "gpus_per_node": cluster.gpus_per_node,
                "single_node": cluster.num_nodes == 1,
            }),
            "space": space_value,
            "seed": req.seed,
        }));
        let summary = QuerySummary {
            model: model.name.clone(),
            platform: platform_name.to_owned(),
            gpus: req.gpus,
            batch: req.batch,
            space: space.name.clone(),
            budget,
            seq,
            qos: req.qos.name().to_owned(),
        };
        Ok(Resolved {
            model,
            cluster,
            space,
            budget,
            exact,
            family,
            summary,
        })
    }
}

struct FlightGuard<'a> {
    planner: &'a PlannerService,
    exact: String,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.planner.inflight.lock().remove(&self.exact);
        self.planner.inflight_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::Qos;

    fn req(batch: u64) -> PlanRequest {
        PlanRequest {
            model: "gpt3-1.3b".into(),
            platform: "l4".into(),
            gpus: 2,
            batch,
            max_grad_accum: 8,
            ..PlanRequest::default()
        }
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        let Value::Object(fields) = v else {
            panic!("expected an object, got {v:?}")
        };
        serde::get_field(fields, key).unwrap_or_else(|_| panic!("missing `{key}`"))
    }

    fn result_json(v: &Value) -> String {
        serde_json::to_string(field(v, "result")).unwrap()
    }

    fn work_str<'a>(v: &'a Value, key: &str) -> &'a Value {
        field(field(v, "work"), key)
    }

    #[test]
    fn cold_hit_warm_state_machine() {
        let planner = PlannerService::new(PlanCache::in_memory());

        let cold16 = planner.plan(&req(16));
        assert_eq!(work_str(&cold16, "source"), &Value::Str("cold".into()));
        assert_eq!(planner.cache_misses(), 1);

        let hit16 = planner.plan(&req(16));
        assert_eq!(work_str(&hit16, "source"), &Value::Str("hit".into()));
        assert_eq!(planner.cache_hits(), 1);
        assert_eq!(
            result_json(&cold16),
            result_json(&hit16),
            "exact hit must reproduce the cold result byte-for-byte"
        );

        let warm32 = planner.plan(&req(32));
        assert_eq!(work_str(&warm32, "source"), &Value::Str("warm".into()));
        assert_eq!(planner.warm_start_count(), 1);

        // Reference: a cache-bypassing cold tune at the same batch.
        let mut bypass = req(32);
        bypass.no_cache = true;
        let cold32 = planner.plan(&bypass);
        assert_eq!(work_str(&cold32, "source"), &Value::Str("cold".into()));
        assert_eq!(
            result_json(&warm32),
            result_json(&cold32),
            "warm-start result must be byte-identical to cold"
        );
        let configs = |v: &Value| work_str(v, "configs_evaluated").as_i64().unwrap();
        assert!(
            configs(&warm32) < configs(&cold32),
            "warm {} must evaluate strictly fewer configs than cold {}",
            configs(&warm32),
            configs(&cold32)
        );
        assert!(work_str(&warm32, "seeded_frontiers").as_i64().unwrap() > 0);
    }

    /// A tight-budget donor queried first must not hide the records of
    /// a default-budget donor from a later batch delta.
    #[test]
    fn tight_budget_donor_does_not_block_warm_start() {
        let planner = PlannerService::new(PlanCache::in_memory());
        let mut tight = req(16);
        tight.budget_gib = Some(3.0);
        planner.plan(&tight);
        planner.plan(&req(16));
        let warm32 = planner.plan(&req(32));
        assert_eq!(work_str(&warm32, "source"), &Value::Str("warm".into()));
        assert!(work_str(&warm32, "seeded_frontiers").as_i64().unwrap() > 0);
    }

    #[test]
    fn no_cache_bypasses_read_and_write() {
        let planner = PlannerService::new(PlanCache::in_memory());
        let mut r = req(16);
        r.no_cache = true;
        planner.plan(&r);
        planner.plan(&r);
        assert_eq!(planner.cache_hits(), 0);
        assert_eq!(planner.cache_misses(), 2);
        assert_eq!(planner.cache.lock().len(), 0);
    }

    #[test]
    fn corrupted_cached_plan_is_evicted_and_retuned() {
        let planner = PlannerService::new(PlanCache::in_memory());
        let cold = planner.plan(&req(16));
        assert_eq!(work_str(&cold, "source"), &Value::Str("cold".into()));

        // Tamper with the cached plan's memory claim.
        let exact = planner.resolve(&req(16)).unwrap().exact;
        {
            let mut cache = planner.cache.lock();
            let mut entry = cache.lookup(&exact).unwrap().clone();
            entry.outcome.stage_points[0].mem_fwd *= 2.0;
            cache.insert(entry);
        }

        // The serve-time certificate re-check must refuse the corrupted
        // entry, evict it, and fall through to a fresh tune.
        let after = planner.plan(&req(16));
        assert_eq!(work_str(&after, "source"), &Value::Str("cold".into()));
        assert_eq!(planner.cert_rejection_count(), 1);
        assert_eq!(planner.cache_hits(), 0);
        assert_eq!(
            result_json(&cold),
            result_json(&after),
            "the re-tune must reproduce the honest result"
        );

        // The re-tune repopulated the cache with a certified entry.
        let hit = planner.plan(&req(16));
        assert_eq!(work_str(&hit, "source"), &Value::Str("hit".into()));
        assert_eq!(planner.cache_hits(), 1);
        assert_eq!(planner.cert_rejection_count(), 1);
    }

    #[test]
    fn qos_profiles_do_not_share_fingerprints() {
        let planner = PlannerService::new(PlanCache::in_memory());
        let exhaustive = planner.resolve(&req(16)).unwrap();
        let mut r = req(16);
        r.qos = Qos::Interactive;
        let interactive = planner.resolve(&r).unwrap();
        assert_ne!(exhaustive.exact, interactive.exact);
        assert_ne!(exhaustive.family, interactive.family);
    }

    #[test]
    fn fingerprints_separate_what_they_must() {
        let planner = PlannerService::new(PlanCache::in_memory());
        let base = planner.resolve(&req(16)).unwrap();

        // Batch delta: same family, different exact (warm-startable).
        let batch = planner.resolve(&req(32)).unwrap();
        assert_ne!(base.exact, batch.exact);
        assert_eq!(base.family, batch.family);

        // Budget delta: same family, different exact.
        let mut r = req(16);
        r.budget_gib = Some(12.0);
        let budget = planner.resolve(&r).unwrap();
        assert_ne!(base.exact, budget.exact);
        assert_eq!(base.family, budget.family);

        // Seed delta changes the interference fit: different family.
        let mut r = req(16);
        r.seed = 7;
        let seed = planner.resolve(&r).unwrap();
        assert_ne!(base.family, seed.family);

        // Model delta: different family.
        let mut r = req(16);
        r.model = "llama-1.3b".into();
        let model = planner.resolve(&r).unwrap();
        assert_ne!(base.family, model.family);

        // 8→16 GPUs crosses the single-node boundary: different family.
        let planner2 = PlannerService::new(PlanCache::in_memory());
        let mut r8 = req(16);
        r8.gpus = 8;
        let mut r16 = req(16);
        r16.gpus = 16;
        let mut r32 = req(16);
        r32.gpus = 32;
        let g8 = planner2.resolve(&r8).unwrap();
        let g16 = planner2.resolve(&r16).unwrap();
        let g32 = planner2.resolve(&r32).unwrap();
        assert_ne!(g8.family, g16.family, "single-node flag splits families");
        assert_eq!(g16.family, g32.family, "multi-node deltas share a family");
        assert_ne!(g16.exact, g32.exact);
    }

    #[test]
    fn infeasible_queries_are_reported_not_cached() {
        let planner = PlannerService::new(PlanCache::in_memory());
        let mut r = req(4);
        r.model = "gpt3-2.6b".into();
        r.space = "megatron".into();
        r.budget_gib = Some(2.0); // Nothing fits 2 GiB without offloading.
        r.max_grad_accum = 2;
        let v = planner.plan(&r);
        let Value::Object(fields) = &v else { panic!() };
        let Value::Object(result) = serde::get_field(fields, "result").unwrap() else {
            panic!()
        };
        assert_eq!(
            serde::get_field(result, "feasible").unwrap(),
            &Value::Bool(false)
        );
        assert_eq!(planner.cache.lock().len(), 0);
    }

    /// Answers one request line on a helper thread and returns the
    /// response, failing (instead of hanging the suite) when none
    /// arrives within `secs` seconds or the handler panics.
    fn answer_within(planner: &Arc<PlannerService>, line: &str, secs: u64) -> Value {
        let (tx, rx) = std::sync::mpsc::channel();
        let (planner, line) = (planner.clone(), line.to_owned());
        let handler = std::thread::spawn(move || tx.send(planner.handle_line(&line)).ok());
        let (response, control) = rx
            .recv_timeout(std::time::Duration::from_secs(secs))
            .unwrap_or_else(|e| panic!("no response within {secs} s: {e}"));
        handler.join().expect("handler thread");
        assert_eq!(control, Control::Continue);
        assert!(!response.contains('\n'), "exactly one response line");
        serde_json::from_str(&response).expect("response is JSON")
    }

    #[test]
    fn huge_gpu_count_answers_infeasible_instead_of_hanging() {
        // A multiple of 8 past 2^31: the mesh's TP doubling used to wrap.
        let planner = Arc::new(PlannerService::new(PlanCache::in_memory()));
        let v = answer_within(
            &planner,
            r#"{"model": "gpt3-1.3b", "gpus": 4294967288, "batch": 8}"#,
            120,
        );
        assert_eq!(field(&v, "ok"), &Value::Bool(true));
        assert_eq!(field(field(&v, "result"), "feasible"), &Value::Bool(false));
    }

    #[test]
    fn huge_seq_is_rejected_and_the_daemon_keeps_answering() {
        // `b·s` used to overflow while tracing and panic the handler.
        let planner = Arc::new(PlannerService::new(PlanCache::in_memory()));
        let v = answer_within(
            &planner,
            r#"{"model": "gpt3-1.3b", "gpus": 2, "batch": 8, "seq": 4611686018427387904}"#,
            120,
        );
        assert_eq!(field(&v, "ok"), &Value::Bool(false));
        let pong = answer_within(&planner, r#"{"cmd": "ping"}"#, 10);
        assert_eq!(field(&pong, "pong"), &Value::Bool(true));
    }

    #[test]
    fn huge_grad_accum_cap_is_rejected_and_the_daemon_keeps_answering() {
        // The divisor scan of `1..=min(cap, batch)` used to take ~17 s.
        let planner = Arc::new(PlannerService::new(PlanCache::in_memory()));
        let v = answer_within(
            &planner,
            r#"{"model": "gpt3-6.7b", "gpus": 8, "batch": 4611686018427387904, "max_grad_accum": 4294967295}"#,
            10,
        );
        assert_eq!(field(&v, "ok"), &Value::Bool(false));
        let pong = answer_within(&planner, r#"{"cmd": "ping"}"#, 10);
        assert_eq!(field(&pong, "pong"), &Value::Bool(true));
    }

    #[test]
    fn handle_line_commands() {
        let planner = PlannerService::new(PlanCache::in_memory());
        let (pong, c) = planner.handle_line(r#"{"cmd": "ping"}"#);
        assert_eq!(c, Control::Continue);
        assert!(pong.contains("\"pong\""));
        let (stats, c) = planner.handle_line(r#"{"cmd": "stats"}"#);
        assert_eq!(c, Control::Continue);
        assert!(stats.contains("\"entries\""));
        let (bye, c) = planner.handle_line(r#"{"cmd": "shutdown"}"#);
        assert_eq!(c, Control::Shutdown);
        assert!(bye.contains("\"shutdown\""));
        let (err, c) = planner.handle_line("garbage");
        assert_eq!(c, Control::Continue);
        assert!(err.contains("\"ok\":false") || err.contains("\"ok\": false"));
    }
}
