//! The dispatch enums shared by every driver: which back-projection
//! kernel and which compute backend.
//!
//! These lived in `scalefbp::config` before the executor split; they
//! moved here so the executors can dispatch on them without a circular
//! dependency, and `scalefbp` re-exports them unchanged.

/// Which back-projection kernel the drivers run: the oracle or the fast
/// kernel. Both produce bit-identical volumes on the in-core and streaming
/// paths (see `docs/performance.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Algorithm 1 verbatim: the serial quadruple loop. Slow; the ground
    /// truth for equivalence testing. Streams through `backproject_window`.
    Reference,
    /// L1-tiled f32x8 SIMD reusing each z-column's invariants along `k`
    /// (AVX2 with runtime detection, portable scalar twin otherwise).
    /// Bit-identical to `Reference` on either backend.
    #[default]
    Simd,
}

impl KernelChoice {
    /// All selectable kernels, in benchmark display order.
    pub const ALL: [KernelChoice; 2] = [KernelChoice::Reference, KernelChoice::Simd];

    /// Stable lowercase name (used in CLI flags and BENCH JSON).
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Reference => "reference",
            KernelChoice::Simd => "simd",
        }
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for KernelChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(KernelChoice::Reference),
            "simd" => Ok(KernelChoice::Simd),
            other => Err(format!(
                "unknown kernel '{other}' (expected reference|simd)"
            )),
        }
    }
}

/// How the ramp-filtering stage is executed. Only the two-pass path
/// exists; the enum survives with this single variant because
/// `benchmark/` compiles against
/// `Executor::filter_stack(&plan, FilterChoice::default(), ..)` and may
/// not change in the PR that removed the fused path. The parameter goes at
/// the next `benchmark`-archetype PR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FilterChoice {
    /// Weight + convolve, then the discretisation scale on the f32 store.
    #[default]
    TwoPass,
}

/// Which executor backs the drivers' transfers and kernel launches.
///
/// `Sim` and `Cpu` run the identical host kernels — volumes are bitwise
/// equal across the two — and differ only in accounting: `Sim` charges
/// the `gpusim` cost model (capacity, modelled seconds, `gpu.*` time
/// counters), `Cpu` records the same byte/call counters with zero
/// modelled time (see `docs/backends.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The `gpusim` cost model: enforced capacity, modelled seconds,
    /// exact `gpu.*` accounting. The default — byte-identical to the
    /// pre-executor drivers.
    #[default]
    Sim,
    /// Native host execution: unlimited memory, zero modelled time,
    /// byte/call accounting only.
    Cpu,
}

impl BackendChoice {
    /// All backends, in display order.
    pub const ALL: [BackendChoice; 2] = [BackendChoice::Sim, BackendChoice::Cpu];

    /// Stable lowercase name (used in CLI flags and BENCH JSON).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Sim => "sim",
            BackendChoice::Cpu => "cpu",
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendChoice::Sim),
            "cpu" => Ok(BackendChoice::Cpu),
            other => Err(format!("unknown backend '{other}' (expected sim|cpu)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in BackendChoice::ALL {
            assert_eq!(b.name().parse::<BackendChoice>().unwrap(), b);
            assert_eq!(format!("{b}"), b.name());
        }
        let err = "cuda".parse::<BackendChoice>().unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert_eq!(BackendChoice::ALL.len(), 2);
        assert_eq!(BackendChoice::default(), BackendChoice::Sim);
    }
}
