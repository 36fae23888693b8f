//! Cluster topology: nodes, links, and the Table 3 testbeds.

use serde::{Deserialize, Serialize};

use crate::gpu::GpuSpec;

/// A point-to-point or shared communication link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Achievable bandwidth in bytes/s (per direction).
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
}

impl LinkSpec {
    /// Creates a link, validating positivity.
    pub fn new(bandwidth: f64, latency: f64) -> Self {
        assert!(bandwidth > 0.0 && latency >= 0.0);
        LinkSpec { bandwidth, latency }
    }

    /// Time to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0);
        self.latency + bytes / self.bandwidth
    }
}

/// Which testbed family a cluster belongs to (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// GCP g2 instances: L4 GPUs, PCIe intra-node, 100 Gbps Ethernet.
    GcpL4,
    /// AWS p4d.24xlarge: A100 40GB, NVLink intra-node, 400 Gbps EFA.
    AwsA100,
}

impl Platform {
    /// Parses a platform name: `l4` or `gcp`, `a100` or `aws`, in any case.
    pub fn parse(name: &str) -> Result<Platform, String> {
        match name.to_ascii_lowercase().as_str() {
            "l4" | "gcp" => Ok(Platform::GcpL4),
            "a100" | "aws" => Ok(Platform::AwsA100),
            other => Err(format!("unknown platform `{other}` (l4|a100)")),
        }
    }

    /// Canonical short name, the inverse of [`Platform::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Platform::GcpL4 => "l4",
            Platform::AwsA100 => "a100",
        }
    }

    /// Default training sequence length on this testbed (the paper's
    /// L4 runs use 2048 tokens, the A100 runs 4096).
    pub fn default_seq(self) -> u64 {
        match self {
            Platform::GcpL4 => 2048,
            Platform::AwsA100 => 4096,
        }
    }
}

/// A homogeneous GPU cluster: `num_nodes` nodes of `gpus_per_node` GPUs.
///
/// Matches the shape of the paper's device mesh `(N, M)` (§5.3). The two
/// constructors encode Table 3; [`ClusterSpec::for_gpu_count`] applies the
/// paper's scaling rule (2/4/8 GPUs in one node, then 8 per node).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Testbed family.
    pub platform: Platform,
    /// GPU model used throughout the cluster.
    pub gpu: GpuSpec,
    /// Number of nodes (paper symbol `N`).
    pub num_nodes: u32,
    /// GPUs per node (paper symbol `M`).
    pub gpus_per_node: u32,
    /// GPU↔GPU link inside one node (NVLink or PCIe P2P).
    pub intra_node: LinkSpec,
    /// GPU↔GPU link across nodes (Ethernet / EFA), per GPU pair.
    pub inter_node: LinkSpec,
}

impl ClusterSpec {
    /// GCP L4 testbed: PCIe Gen4 peer-to-peer intra-node (~20 GB/s
    /// effective, shared with host traffic), 100 Gbps (~11 GB/s effective)
    /// inter-node.
    pub fn gcp_l4(num_nodes: u32, gpus_per_node: u32) -> Self {
        assert!(num_nodes >= 1 && gpus_per_node >= 1);
        ClusterSpec {
            platform: Platform::GcpL4,
            gpu: GpuSpec::l4(),
            num_nodes,
            gpus_per_node,
            intra_node: LinkSpec::new(20e9, 8e-6),
            inter_node: LinkSpec::new(11e9, 25e-6),
        }
    }

    /// AWS A100 testbed: NVLink3 intra-node (~235 GB/s effective bus
    /// bandwidth), 400 Gbps EFA (~45 GB/s effective) inter-node.
    pub fn aws_a100(num_nodes: u32, gpus_per_node: u32) -> Self {
        assert!(num_nodes >= 1 && gpus_per_node >= 1);
        ClusterSpec {
            platform: Platform::AwsA100,
            gpu: GpuSpec::a100_40g(),
            num_nodes,
            gpus_per_node,
            intra_node: LinkSpec::new(235e9, 5e-6),
            inter_node: LinkSpec::new(45e9, 18e-6),
        }
    }

    /// Checks that `total_gpus` is a Table 3 cluster shape — 1 to 8 GPUs
    /// in one node, or whole 8-GPU nodes — the shapes
    /// [`ClusterSpec::for_gpu_count`] accepts.
    pub fn check_gpu_count(total_gpus: u32) -> Result<(), String> {
        if total_gpus == 0 || (total_gpus > 8 && !total_gpus.is_multiple_of(8)) {
            return Err(format!(
                "{total_gpus} is not a Table-3 cluster shape (1-8, or a multiple of 8)"
            ));
        }
        Ok(())
    }

    /// Builds the Table 3 cluster shape for a total GPU count: 2, 4 and 8
    /// GPUs live in one node; 16 and 32 use 8-GPU nodes.
    ///
    /// # Panics
    ///
    /// Panics if `total_gpus` is 0 or not representable with 8-GPU nodes.
    pub fn for_gpu_count(platform: Platform, total_gpus: u32) -> Self {
        assert!(total_gpus >= 1, "cluster needs at least one GPU");
        let (nodes, per_node) = if total_gpus <= 8 {
            (1, total_gpus)
        } else {
            assert!(
                total_gpus.is_multiple_of(8),
                "multi-node clusters must use whole 8-GPU nodes, got {total_gpus}"
            );
            (total_gpus / 8, 8)
        };
        match platform {
            Platform::GcpL4 => ClusterSpec::gcp_l4(nodes, per_node),
            Platform::AwsA100 => ClusterSpec::aws_a100(nodes, per_node),
        }
    }

    /// Total GPU count `N · M`.
    pub fn total_gpus(&self) -> u32 {
        self.num_nodes * self.gpus_per_node
    }

    /// The link used by a collective over `group_size` ranks that spans
    /// `nodes_spanned` nodes: inter-node links bottleneck as soon as the
    /// group leaves a node.
    pub fn group_link(&self, nodes_spanned: u32) -> LinkSpec {
        if nodes_spanned <= 1 {
            self.intra_node
        } else {
            self.inter_node
        }
    }

    /// The *effective per-flow* inter-node link when `participants` GPUs
    /// of one node communicate across nodes simultaneously.
    ///
    /// `inter_node` models the node's NIC (100 Gbps Ethernet / 400 Gbps
    /// EFA). Unlike NVLink/PCIe P2P, the NIC is one shared resource: when
    /// all 8 GPUs of a node run concurrent data-parallel rings (or send
    /// pipeline activations at once), each flow gets an eighth of it. This
    /// sharing is what makes cross-node data parallelism so expensive and
    /// pipeline parallelism attractive at multi-node scale.
    pub fn shared_inter_node(&self, participants: u32) -> LinkSpec {
        let p = participants.max(1) as f64;
        LinkSpec::new(self.inter_node.bandwidth / p, self.inter_node.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_gpu_count_matches_table3_shapes() {
        for &(total, nodes, per) in &[
            (2u32, 1u32, 2u32),
            (4, 1, 4),
            (8, 1, 8),
            (16, 2, 8),
            (32, 4, 8),
        ] {
            let c = ClusterSpec::for_gpu_count(Platform::GcpL4, total);
            assert_eq!((c.num_nodes, c.gpus_per_node), (nodes, per));
            assert_eq!(c.total_gpus(), total);
        }
    }

    #[test]
    #[should_panic(expected = "whole 8-GPU nodes")]
    fn irregular_multi_node_counts_rejected() {
        ClusterSpec::for_gpu_count(Platform::AwsA100, 12);
    }

    #[test]
    fn nvlink_is_much_faster_than_pcie_p2p() {
        let l4 = ClusterSpec::gcp_l4(1, 8);
        let a100 = ClusterSpec::aws_a100(1, 8);
        assert!(a100.intra_node.bandwidth > 5.0 * l4.intra_node.bandwidth);
    }

    #[test]
    fn group_link_picks_bottleneck() {
        let c = ClusterSpec::aws_a100(4, 8);
        assert_eq!(c.group_link(1), c.intra_node);
        assert_eq!(c.group_link(2), c.inter_node);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = LinkSpec::new(1e9, 1e-5);
        assert!((l.transfer_time(1e9) - (1.0 + 1e-5)).abs() < 1e-12);
        assert_eq!(l.transfer_time(0.0), 1e-5);
    }
}
