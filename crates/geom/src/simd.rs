//! The one run-time choice between the AVX2 instantiations of the hot loops
//! and their portable twins.
//!
//! Two loops have both: the back-projection kernel
//! (`scalefbp-backproject`) and the lane filter's group step
//! (`scalefbp-filter`). Each twin runs the same IEEE operations in the same
//! order as its AVX2 instance, so the choice changes throughput, never a
//! bit.

/// Which instantiation backs the kernel and the filter on this run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdBackend {
    /// AVX2: the kernel's 8-lane `core::arch` intrinsics and the filter's
    /// `#[target_feature(enable = "avx2")]` group step.
    Avx2,
    /// The portable code (identical operation sequence → identical bits).
    Scalar,
}

impl SimdBackend {
    /// Stable lowercase name for logs and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Scalar => "scalar",
        }
    }
}

/// Selects the backend of the back-projection kernel and the lane filter:
/// AVX2 when the CPU reports it, unless `SCALEFBP_SIMD=scalar` forces the
/// portable path for both (read per call, so CI can exercise both backends
/// in one binary).
pub fn simd_backend() -> SimdBackend {
    if std::env::var_os("SCALEFBP_SIMD").is_some_and(|v| v == "scalar") {
        return SimdBackend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return SimdBackend::Avx2;
        }
    }
    SimdBackend::Scalar
}

/// Runtime-detected x86 vector features relevant to the hot loops, for the
/// bench JSON's `detected_features` field (empty on non-x86 targets).
pub fn detected_cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse4.1", is_x86_feature_detected!("sse4.1")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                features.push(name);
            }
        }
    }
    features
}
