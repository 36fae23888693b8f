//! The symbolic analyzer as an educational tool (paper §A.5): build a
//! stage cost model, print the compiled memory expression's behaviour,
//! and sweep one optimization knob to see the trade-off curves.
//!
//! ```bash
//! cargo run -p mist-examples --example symbolic_playground
//! ```

use mist::presets::{gpt3, AttentionImpl, ModelSize};
use mist::{stage_times, StageAnalyzer};
use mist::{
    ClusterSpec, DeviceMesh, GpuSpec, InterferenceModel, OpCostDb, Platform, StageCandidate,
    StageConfigValues, StageRole, GIB,
};

fn main() {
    let model = gpt3(ModelSize::B2_6, 2048, AttentionImpl::Flash);
    let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 4);
    let db = OpCostDb::new(GpuSpec::l4());
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let interference = InterferenceModel::pcie_defaults();

    // One symbolic analysis pass for the candidate…
    let tapes = analyzer.analyze(&StageCandidate {
        mesh: DeviceMesh::new(1, 4),
        dp: 2,
        tp: 2,
        micro_batch: 2,
        role: StageRole::Only,
    });
    println!(
        "stage program: {} roots in {} SSA ops over symbols {:?}\n",
        tapes.program.num_roots(),
        tapes.program.len(),
        tapes.program.symbols().names()
    );

    // …then every configuration is a cheap value substitution.
    println!("sweep: checkpointed layers (all else fixed, ZeRO-1)");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "ckpt", "mem (GiB)", "t (ms)", "d (ms)"
    );
    for ckpt in [0u32, 8, 16, 24, 32] {
        let cfg = StageConfigValues {
            layers: 32,
            ckpt,
            zero: 1,
            wo: 0.0,
            go: 0.0,
            oo: 0.0,
            ao: 0.0,
            inflight: 1,
        };
        let p = tapes.eval_point(&cfg);
        let st = stage_times(&p, &interference);
        println!(
            "{ckpt:>6} {:>12.2} {:>12.1} {:>12.1}",
            p.mem_fwd.max(p.mem_bwd) / GIB,
            st.t * 1e3,
            st.d * 1e3
        );
    }

    println!("\nsweep: optimizer-state offloading ratio (full ckpt)");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "oo", "mem (GiB)", "t (ms)", "d (ms)"
    );
    for oo in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let cfg = StageConfigValues {
            layers: 32,
            ckpt: 32,
            zero: 1,
            wo: 0.0,
            go: 0.0,
            oo,
            ao: 0.0,
            inflight: 1,
        };
        let p = tapes.eval_point(&cfg);
        let st = stage_times(&p, &interference);
        println!(
            "{oo:>6} {:>12.2} {:>12.1} {:>12.1}",
            p.mem_fwd.max(p.mem_bwd) / GIB,
            st.t * 1e3,
            st.d * 1e3
        );
    }
    println!("\nNote how `oo` trades stable-microbatch memory for first/last-microbatch");
    println!("delta `d` — exactly the Pareto dimension Mist's inter-stage MILP samples.");
}
