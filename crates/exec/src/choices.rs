//! The choices shared by every driver: which back-projection kernel, and
//! which cost model charges the streaming driver's device. `scalefbp`
//! re-exports them unchanged.

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

/// Which cost model charges the streaming driver's device
/// (`scalefbp_gpusim::Device`).
///
/// The kernels are the same under both — volumes are bitwise equal — and
/// so are the fault operations: `Sim` charges the `gpusim` model
/// (capacity, modelled seconds, `gpu.*` time counters), `Cpu` records
/// the same byte/call counters with unlimited memory and zero modelled
/// time (see `docs/backends.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The modelled device: enforced capacity, modelled seconds, exact
    /// `gpu.*` accounting. The default.
    #[default]
    Sim,
    /// The counted device: unlimited memory, zero modelled time,
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
