//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper
//! (see DESIGN.md's experiment index): it sweeps the relevant workloads,
//! tunes each system, *measures* the chosen plans on the discrete-event
//! simulator, prints a markdown table, and drops machine-readable JSON
//! under `results/`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use mist::presets::{falcon, gpt3, llama, AttentionImpl, Family, ModelSize, ModelSpec};
use mist::{Baseline, MistSession, Platform, SearchSpace, TuneOutcome};
use serde::Serialize;

/// One workload of the evaluation grid.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Model under training.
    pub model: ModelSpec,
    /// Hardware platform.
    pub platform: Platform,
    /// Total GPU count.
    pub gpus: u32,
    /// Global batch size.
    pub global_batch: u64,
}

impl Workload {
    /// Short identifier like `"GPT-3 6.7B/8xL4/B128"`.
    pub fn id(&self) -> String {
        let plat = match self.platform {
            Platform::GcpL4 => "L4",
            Platform::AwsA100 => "A100",
        };
        format!(
            "{}/{}x{}/B{}",
            self.model.name, self.gpus, plat, self.global_batch
        )
    }
}

/// The Table 4 grid: model size ↔ GPU count ↔ global batch pairing.
pub fn table4_grid(platform: Platform, family: Family, flash: bool) -> Vec<Workload> {
    let seq = platform.default_seq();
    let attn = if flash {
        AttentionImpl::Flash
    } else {
        AttentionImpl::Standard
    };
    let rows = [
        (ModelSize::B1_3, 2u32, 32u64),
        (ModelSize::B2_6, 4, 64),
        (ModelSize::B6_7, 8, 128),
        (ModelSize::B13, 16, 256),
        (ModelSize::B22, 32, 512),
    ];
    rows.iter()
        .map(|&(size, gpus, batch)| {
            let model = match family {
                Family::Gpt3 => gpt3(size, seq, attn),
                Family::Llama => llama(size, seq, attn),
                Family::Falcon => falcon(size, seq, attn),
            };
            Workload {
                model,
                platform,
                gpus,
                global_batch: batch,
            }
        })
        .collect()
}

/// A system under comparison.
#[derive(Debug, Clone)]
pub enum System {
    /// Mist with its full space.
    Mist,
    /// Mist restricted to an arbitrary space (ablations / Fig. 13).
    Space(SearchSpace),
    /// A named baseline.
    Baseline(Baseline),
}

impl System {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            System::Mist => "Mist".into(),
            System::Space(s) => s.name.clone(),
            System::Baseline(b) => b.name().into(),
        }
    }

    /// The search space this system tunes over.
    pub fn space(&self) -> SearchSpace {
        match self {
            System::Mist => SearchSpace::mist(),
            System::Space(s) => s.clone(),
            System::Baseline(b) => b.space(),
        }
    }
}

/// One measured data point.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Workload id.
    pub workload: String,
    /// System name.
    pub system: String,
    /// Measured throughput in samples/s (`None` = OOM / infeasible).
    pub throughput: Option<f64>,
    /// Measured iteration seconds.
    pub iteration_time: Option<f64>,
    /// Tuner-predicted iteration seconds.
    pub predicted_time: Option<f64>,
    /// Peak memory across stages (GiB).
    pub peak_mem_gib: Option<f64>,
    /// Tuning wall-clock seconds.
    pub tuning_secs: f64,
    /// Configurations the tuner evaluated.
    pub configs_evaluated: f64,
    /// Human-readable plan summary.
    pub plan: Option<String>,
}

/// Summarizes a plan as `G=…, S=…, [l/dp/tp/zero/ckpt…]`.
pub fn plan_summary(outcome: &TuneOutcome) -> String {
    let stages: Vec<String> = outcome
        .plan
        .stages
        .iter()
        .map(|s| {
            let c = &s.config;
            let mut extra = String::new();
            for (name, v) in [("wo", c.wo), ("go", c.go), ("oo", c.oo), ("ao", c.ao)] {
                if v > 0.0 {
                    extra.push_str(&format!(",{name}={v}"));
                }
            }
            format!(
                "l{}b{}dp{}tp{}z{}ck{}{}",
                c.layers,
                s.candidate.micro_batch,
                s.candidate.dp,
                s.candidate.tp,
                c.zero,
                c.ckpt,
                extra
            )
        })
        .collect();
    format!(
        "G={} S={} [{}]",
        outcome.plan.grad_accum,
        outcome.plan.num_stages(),
        stages.join(" | ")
    )
}

/// Tunes + measures one system on one workload.
pub fn run_system(system: &System, w: &Workload, max_grad_accum: u32) -> Measurement {
    let session = MistSession::builder(w.model.clone(), w.platform, w.gpus)
        .space(system.space())
        .max_grad_accum(max_grad_accum)
        .build();
    let start = std::time::Instant::now();
    let outcome = session.tune(w.global_batch);
    let tuning_secs = start.elapsed().as_secs_f64();
    match outcome {
        None => Measurement {
            workload: w.id(),
            system: system.name(),
            throughput: None,
            iteration_time: None,
            predicted_time: None,
            peak_mem_gib: None,
            tuning_secs,
            configs_evaluated: 0.0,
            plan: None,
        },
        Some(outcome) => {
            let report = session.execute(&outcome);
            Measurement {
                workload: w.id(),
                system: system.name(),
                throughput: Some(report.throughput(w.global_batch)),
                iteration_time: Some(report.iteration_time),
                predicted_time: Some(outcome.predicted_iteration),
                peak_mem_gib: Some(
                    report.stage_peak_mem.iter().cloned().fold(0.0, f64::max) / mist::GIB,
                ),
                tuning_secs,
                // Kept f64 so the results JSONs' number format (`49840.0`)
                // stays byte-stable under the vendored serializer.
                configs_evaluated: outcome.stats.configs_evaluated as f64,
                plan: Some(plan_summary(&outcome)),
            }
        }
    }
}

/// Prints a `workload × system → throughput` markdown table, appending a
/// speedup column of `numerator` over `denominator` when both are given.
pub fn print_throughput_table(title: &str, rows: &[Measurement], speedup_of: Option<(&str, &str)>) {
    println!("\n## {title}\n");
    let mut systems: Vec<String> = Vec::new();
    let mut workloads: Vec<String> = Vec::new();
    let mut grid: BTreeMap<(String, String), Option<f64>> = BTreeMap::new();
    for m in rows {
        if !systems.contains(&m.system) {
            systems.push(m.system.clone());
        }
        if !workloads.contains(&m.workload) {
            workloads.push(m.workload.clone());
        }
        grid.insert((m.workload.clone(), m.system.clone()), m.throughput);
    }
    print!("| workload |");
    for s in &systems {
        print!(" {s} |");
    }
    if let Some((a, b)) = speedup_of {
        print!(" {a}/{b} |");
    }
    println!();
    print!("|---|");
    for _ in &systems {
        print!("---|");
    }
    if speedup_of.is_some() {
        print!("---|");
    }
    println!();
    for w in &workloads {
        print!("| {w} |");
        for s in &systems {
            match grid.get(&(w.clone(), s.clone())).copied().flatten() {
                Some(t) => print!(" {t:.2} |"),
                None => print!(" OOM |"),
            }
        }
        if let Some((a, b)) = speedup_of {
            let ta = grid.get(&(w.clone(), a.to_string())).copied().flatten();
            let tb = grid.get(&(w.clone(), b.to_string())).copied().flatten();
            match (ta, tb) {
                (Some(ta), Some(tb)) if tb > 0.0 => print!(" {:.2}x |", ta / tb),
                _ => print!(" – |"),
            }
        }
        println!();
    }
}

/// Geometric-mean speedup of system `a` over system `b` across workloads
/// where both succeeded. Returns `(geomean, max)`.
pub fn speedup_stats(rows: &[Measurement], a: &str, b: &str) -> Option<(f64, f64)> {
    let mut ratios = Vec::new();
    let mut by: BTreeMap<(String, String), f64> = BTreeMap::new();
    for m in rows {
        if let Some(t) = m.throughput {
            by.insert((m.workload.clone(), m.system.clone()), t);
        }
    }
    let workloads: Vec<String> = by.keys().map(|(w, _)| w.clone()).collect();
    for w in workloads {
        if let (Some(&ta), Some(&tb)) = (
            by.get(&(w.clone(), a.to_string())),
            by.get(&(w.clone(), b.to_string())),
        ) {
            ratios.push(ta / tb);
        }
    }
    ratios.dedup();
    if ratios.is_empty() {
        return None;
    }
    let geo = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    Some((geo, max))
}

/// Writes experiment output as JSON under `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    std::fs::write(&path, json).expect("write results file");
    println!("\n[results written to {}]", path.display());
}

/// `results/` at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

/// True when `--quick` was passed (subset sweeps for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_grid_shapes() {
        let g = table4_grid(Platform::GcpL4, Family::Gpt3, true);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0].gpus, 2);
        assert_eq!(g[4].global_batch, 512);
        assert_eq!(g[0].model.seq_len, 2048);
        let a = table4_grid(Platform::AwsA100, Family::Llama, false);
        assert_eq!(a[0].model.seq_len, 4096);
        assert_eq!(a[0].model.attention, AttentionImpl::Standard);
    }

    #[test]
    fn speedup_stats_basic() {
        let mk = |w: &str, s: &str, t: f64| Measurement {
            workload: w.into(),
            system: s.into(),
            throughput: Some(t),
            iteration_time: Some(1.0),
            predicted_time: Some(1.0),
            peak_mem_gib: Some(1.0),
            tuning_secs: 0.0,
            configs_evaluated: 0.0,
            plan: None,
        };
        let rows = vec![
            mk("w1", "A", 2.0),
            mk("w1", "B", 1.0),
            mk("w2", "A", 3.0),
            mk("w2", "B", 2.0),
        ];
        let (geo, max) = speedup_stats(&rows, "A", "B").unwrap();
        assert!((geo - (2.0f64 * 1.5).sqrt()).abs() < 1e-12);
        assert_eq!(max, 2.0);
    }

    #[test]
    fn run_system_smoke() {
        let w = Workload {
            model: gpt3(ModelSize::B1_3, 2048, AttentionImpl::Flash),
            platform: Platform::GcpL4,
            gpus: 2,
            global_batch: 8,
        };
        let m = run_system(&System::Mist, &w, 8);
        assert!(m.throughput.unwrap() > 0.0);
        assert!(m.plan.unwrap().starts_with("G="));
    }
}
