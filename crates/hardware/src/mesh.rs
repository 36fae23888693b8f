//! Device sub-meshes assigned to pipeline stages.

use serde::{Deserialize, Serialize};

use crate::cluster::{ClusterSpec, LinkSpec};

/// The devices assigned to one pipeline stage: `nodes × gpus_per_node`
/// (paper notation `(n_i, m_i)`, §5.3).
///
/// Inside a stage mesh, tensor-parallel groups are placed innermost
/// (consecutive GPUs within a node — the standard Megatron-LM placement),
/// and data-parallel groups span the remaining dimension. The mesh exposes
/// which physical link each collective runs on, which is what makes TP over
/// PCIe expensive and TP over NVLink cheap in the tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceMesh {
    /// Number of nodes in this stage's sub-mesh.
    pub nodes: u32,
    /// GPUs used per node (may be less than the node's GPU count when a
    /// node is shared by several stages).
    pub gpus_per_node: u32,
}

impl DeviceMesh {
    /// Creates a mesh, validating positivity.
    pub fn new(nodes: u32, gpus_per_node: u32) -> Self {
        assert!(nodes >= 1 && gpus_per_node >= 1, "empty device mesh");
        DeviceMesh {
            nodes,
            gpus_per_node,
        }
    }

    /// Total GPU count in the mesh.
    pub fn total(&self) -> u32 {
        self.nodes * self.gpus_per_node
    }

    /// Whether a `(dp, tp)` factorization fits this mesh.
    ///
    /// Requires `dp·tp == total` and TP groups that do not straddle nodes
    /// unless they must (tp > gpus_per_node only allowed when it uses whole
    /// nodes).
    pub fn supports(&self, dp: u32, tp: u32) -> bool {
        if dp == 0 || tp == 0 || dp * tp != self.total() {
            return false;
        }
        if tp <= self.gpus_per_node {
            // TP inside a node: must tile the node evenly.
            self.gpus_per_node.is_multiple_of(tp)
        } else {
            // TP spanning nodes: must use whole nodes.
            tp.is_multiple_of(self.gpus_per_node)
        }
    }

    /// The link a TP collective of size `tp` runs over. Cross-node TP
    /// shares the node NIC among all of the node's GPUs.
    pub fn tp_link(&self, cluster: &ClusterSpec, tp: u32) -> LinkSpec {
        if tp <= self.gpus_per_node {
            cluster.intra_node
        } else {
            cluster.shared_inter_node(self.gpus_per_node)
        }
    }

    /// The link a DP collective of size `dp` runs over, given the TP size.
    ///
    /// With TP innermost, each DP group strides by `tp`; it stays inside a
    /// node only while `dp ≤ gpus_per_node / tp`. When DP rings leave the
    /// node, *every* GPU of the node participates in some ring at the
    /// same time, so each flow gets `1/gpus_per_node` of the NIC.
    pub fn dp_link(&self, cluster: &ClusterSpec, dp: u32, tp: u32) -> LinkSpec {
        let per_node_dp = if tp >= self.gpus_per_node {
            1
        } else {
            self.gpus_per_node / tp
        };
        if dp <= per_node_dp {
            cluster.intra_node
        } else {
            cluster.shared_inter_node(self.gpus_per_node)
        }
    }

    /// Enumerates the stage sub-mesh shapes available on `cluster`,
    /// Alpa-style: `(1, 2^k)` slices of a node, and `(n, M)` groups of
    /// whole nodes.
    pub fn candidates(cluster: &ClusterSpec) -> Vec<DeviceMesh> {
        let mut out = Vec::new();
        let mut m = 1;
        while m <= cluster.gpus_per_node {
            out.push(DeviceMesh::new(1, m));
            m *= 2;
        }
        if cluster.gpus_per_node.is_power_of_two()
            && !out.contains(&DeviceMesh::new(1, cluster.gpus_per_node))
        {
            out.push(DeviceMesh::new(1, cluster.gpus_per_node));
        }
        for n in 2..=cluster.num_nodes {
            out.push(DeviceMesh::new(n, cluster.gpus_per_node));
        }
        out
    }

    /// Enumerates the `(dp, tp)` factorizations supported by this mesh
    /// (both powers of two, TP capped at one node's GPUs times node count).
    pub fn dp_tp_choices(&self) -> Vec<(u32, u32)> {
        let total = self.total();
        let mut out = Vec::new();
        let mut tp = 1u32;
        while tp <= total {
            if total.is_multiple_of(tp) {
                let dp = total / tp;
                if self.supports(dp, tp) {
                    out.push((dp, tp));
                }
            }
            // Past 2^31 GPUs, doubling wraps `u32` before it exceeds
            // `total`: stop there instead of looping forever.
            let Some(next) = tp.checked_mul(2) else { break };
            tp = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Platform;

    #[test]
    fn supports_validates_factorization() {
        let mesh = DeviceMesh::new(2, 8);
        assert!(mesh.supports(2, 8));
        assert!(mesh.supports(16, 1));
        assert!(mesh.supports(1, 16)); // TP over two whole nodes.
        assert!(!mesh.supports(3, 5));
        assert!(!mesh.supports(4, 8)); // 32 != 16.
    }

    #[test]
    fn tp_link_prefers_intra_node() {
        let cluster = ClusterSpec::for_gpu_count(Platform::AwsA100, 16);
        let mesh = DeviceMesh::new(2, 8);
        assert_eq!(mesh.tp_link(&cluster, 8), cluster.intra_node);
        // Cross-node TP shares the node NIC among all 8 GPUs.
        assert_eq!(mesh.tp_link(&cluster, 16), cluster.shared_inter_node(8));
        assert!(mesh.tp_link(&cluster, 16).bandwidth < cluster.inter_node.bandwidth / 7.0);
    }

    #[test]
    fn dp_link_depends_on_tp_packing() {
        let cluster = ClusterSpec::for_gpu_count(Platform::AwsA100, 16);
        let mesh = DeviceMesh::new(2, 8);
        // tp=8 fills a node, so any dp>1 crosses nodes — and every GPU of
        // the node rings at once, sharing the NIC.
        assert_eq!(mesh.dp_link(&cluster, 2, 8), cluster.shared_inter_node(8));
        // tp=2 leaves 4 dp slots per node.
        assert_eq!(mesh.dp_link(&cluster, 4, 2), cluster.intra_node);
        assert_eq!(mesh.dp_link(&cluster, 8, 2), cluster.shared_inter_node(8));
    }

    #[test]
    fn candidates_cover_cluster() {
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 32);
        let c = DeviceMesh::candidates(&cluster);
        assert!(c.contains(&DeviceMesh::new(1, 1)));
        assert!(c.contains(&DeviceMesh::new(1, 8)));
        assert!(c.contains(&DeviceMesh::new(4, 8)));
        // All candidates fit in the cluster.
        for m in &c {
            assert!(m.nodes <= cluster.num_nodes);
            assert!(m.gpus_per_node <= cluster.gpus_per_node);
        }
    }

    #[test]
    fn dp_tp_choices_multiply_to_total() {
        // 536870911 nodes of 8 = 4294967288 GPUs: doubling `tp` past
        // 2^31 wraps a `u32`, so the scan must stop there instead of
        // looping forever.
        for mesh in [DeviceMesh::new(1, 8), DeviceMesh::new(536_870_911, 8)] {
            let choices = mesh.dp_tp_choices();
            assert!(!choices.is_empty());
            for (dp, tp) in choices {
                assert_eq!(u64::from(dp) * u64::from(tp), u64::from(mesh.total()));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn dp_tp_choices_are_always_supported(nodes in 1u32..5, per in 1u32..9) {
            let mesh = DeviceMesh::new(nodes, per);
            for (dp, tp) in mesh.dp_tp_choices() {
                prop_assert!(mesh.supports(dp, tp), "({dp},{tp}) on {mesh:?}");
                prop_assert_eq!(dp * tp, mesh.total());
            }
        }

        #[test]
        fn candidates_tile_the_cluster(total in prop::sample::select(vec![2u32, 4, 8, 16, 32])) {
            let cluster = crate::cluster::ClusterSpec::for_gpu_count(
                crate::cluster::Platform::GcpL4, total);
            for mesh in DeviceMesh::candidates(&cluster) {
                prop_assert!(mesh.total() <= cluster.total_gpus());
                prop_assert!(mesh.gpus_per_node <= cluster.gpus_per_node);
                prop_assert!(mesh.nodes <= cluster.num_nodes);
            }
        }
    }
}
