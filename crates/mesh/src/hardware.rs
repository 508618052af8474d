use std::fmt;

use crate::{Axis, Mesh, MeshError};

/// The family of accelerator a [`DeviceSpec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DeviceKind {
    /// Google TPU.
    Tpu,
    /// Nvidia GPU.
    Gpu,
    /// Host CPU (used for functional testing).
    Cpu,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Tpu => f.write_str("TPU"),
            DeviceKind::Gpu => f.write_str("GPU"),
            DeviceKind::Cpu => f.write_str("CPU"),
        }
    }
}

/// High-level specification of one accelerator device.
///
/// Only coarse characteristics are needed by the analytical simulator
/// (paper Appendix A.5): peak FLOPS, memory capacity and memory bandwidth.
///
/// # Examples
///
/// ```
/// use partir_mesh::DeviceSpec;
///
/// let tpu = DeviceSpec::tpu_v3();
/// assert!(tpu.peak_flops_f32 > 1e12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human readable name, e.g. `"TPUv3"`.
    pub name: String,
    /// Device family.
    pub kind: DeviceKind,
    /// Peak float32 FLOPS per second.
    pub peak_flops_f32: f64,
    /// Peak reduced-precision (bf16/f16) FLOPS per second.
    pub peak_flops_bf16: f64,
    /// High-bandwidth memory capacity in bytes.
    pub hbm_bytes: u64,
    /// HBM bandwidth in bytes per second.
    pub hbm_bandwidth: f64,
}

impl DeviceSpec {
    /// TPUv3 core: 61.5 TFLOPS f32 (123 TFLOPS bf16), 16 GiB HBM
    /// (paper Appendix A.2).
    pub fn tpu_v3() -> Self {
        DeviceSpec {
            name: "TPUv3".to_string(),
            kind: DeviceKind::Tpu,
            peak_flops_f32: 61.5e12,
            peak_flops_bf16: 123.0e12,
            hbm_bytes: 16 * (1 << 30),
            hbm_bandwidth: 900.0e9,
        }
    }

    /// Nvidia A100 40 GB: 156 TFLOPS f32 (TF32), 312 TFLOPS bf16
    /// (paper Appendix A.2).
    pub fn a100_40gb() -> Self {
        DeviceSpec {
            name: "A100-40GB".to_string(),
            kind: DeviceKind::Gpu,
            peak_flops_f32: 156.0e12,
            peak_flops_bf16: 312.0e12,
            hbm_bytes: 40 * (1 << 30),
            hbm_bandwidth: 1555.0e9,
        }
    }
}

/// Per-axis interconnect description for a mesh.
///
/// Mesh axes usually reflect the system's communication topology
/// (paper §2.1): e.g. a fast intra-server interconnect along one axis and
/// slower Ethernet across servers along another.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// `(axis, bandwidth bytes/s, latency seconds)` per mesh axis.
    links: Vec<(Axis, f64, f64)>,
}

impl Topology {
    /// Creates a topology from `(axis, bandwidth, latency)` triples.
    pub fn new<A: Into<Axis>>(links: impl IntoIterator<Item = (A, f64, f64)>) -> Self {
        Topology {
            links: links
                .into_iter()
                .map(|(a, bw, lat)| (a.into(), bw, lat))
                .collect(),
        }
    }

    /// A uniform topology giving every axis of `mesh` the same link.
    pub fn uniform(mesh: &Mesh, bandwidth: f64, latency: f64) -> Self {
        Topology {
            links: mesh
                .axis_names()
                .map(|a| (a.clone(), bandwidth, latency))
                .collect(),
        }
    }

    /// Link bandwidth (bytes/s) along `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownAxis`] when the axis has no link entry.
    pub fn bandwidth(&self, axis: &Axis) -> Result<f64, MeshError> {
        self.links
            .iter()
            .find(|(a, _, _)| a == axis)
            .map(|(_, bw, _)| *bw)
            .ok_or_else(|| MeshError::UnknownAxis(axis.clone()))
    }

    /// Link latency (seconds) along `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownAxis`] when the axis has no link entry.
    pub fn latency(&self, axis: &Axis) -> Result<f64, MeshError> {
        self.links
            .iter()
            .find(|(a, _, _)| a == axis)
            .map(|(_, _, lat)| *lat)
            .ok_or_else(|| MeshError::UnknownAxis(axis.clone()))
    }
}

/// A complete simulated machine: mesh + device spec + interconnect.
///
/// # Examples
///
/// ```
/// use partir_mesh::{HardwareConfig, Mesh};
///
/// let mesh = Mesh::new([("B", 16), ("M", 2)])?;
/// let hw = HardwareConfig::tpu_v3_pod(mesh);
/// assert_eq!(hw.mesh.num_devices(), 32);
/// # Ok::<(), partir_mesh::MeshError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// Logical device arrangement.
    pub mesh: Mesh,
    /// Per-device characteristics.
    pub device: DeviceSpec,
    /// Interconnect along each mesh axis.
    pub topology: Topology,
}

impl HardwareConfig {
    /// TPUv3 pod slice: 70 GB/s ICI links on every axis (paper A.2).
    pub fn tpu_v3_pod(mesh: Mesh) -> Self {
        let topology = Topology::uniform(&mesh, 70.0e9, 1.0e-6);
        HardwareConfig {
            mesh,
            device: DeviceSpec::tpu_v3(),
            topology,
        }
    }

    /// A100 cluster: 600 GB/s NVLink on the innermost (last) axis,
    /// 25 GB/s Ethernet on outer axes (paper §2.1 example).
    pub fn a100_cluster(mesh: Mesh) -> Self {
        let n = mesh.rank();
        let links: Vec<(Axis, f64, f64)> = mesh
            .axes()
            .iter()
            .enumerate()
            .map(|(i, (a, _))| {
                if i + 1 == n {
                    (a.clone(), 600.0e9, 2.0e-6)
                } else {
                    (a.clone(), 25.0e9, 10.0e-6)
                }
            })
            .collect();
        HardwareConfig {
            mesh,
            device: DeviceSpec::a100_40gb(),
            topology: Topology { links },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_specs_are_sane() {
        let tpu = DeviceSpec::tpu_v3();
        assert_eq!(tpu.kind, DeviceKind::Tpu);
        assert!(tpu.peak_flops_bf16 > tpu.peak_flops_f32);
        let gpu = DeviceSpec::a100_40gb();
        assert!(gpu.hbm_bytes > tpu.hbm_bytes);
    }

    #[test]
    fn uniform_topology_covers_all_axes() {
        let mesh = Mesh::new([("a", 2), ("b", 2)]).unwrap();
        let t = Topology::uniform(&mesh, 1e9, 1e-6);
        assert_eq!(t.bandwidth(&"a".into()).unwrap(), 1e9);
        assert_eq!(t.latency(&"b".into()).unwrap(), 1e-6);
        assert!(t.bandwidth(&"c".into()).is_err());
    }

    #[test]
    fn a100_cluster_has_fast_inner_axis() {
        let mesh = Mesh::new([("hosts", 4), ("gpus", 8)]).unwrap();
        let hw = HardwareConfig::a100_cluster(mesh);
        let outer = hw.topology.bandwidth(&"hosts".into()).unwrap();
        let inner = hw.topology.bandwidth(&"gpus".into()).unwrap();
        assert!(inner > outer);
    }

    #[test]
    fn device_kind_displays() {
        assert_eq!(DeviceKind::Tpu.to_string(), "TPU");
        assert_eq!(DeviceKind::Gpu.to_string(), "GPU");
    }
}
