//! The host-side kernel dispatch: every driver runs exactly these
//! functions under either cost model, which is what makes `sim` and
//! `cpu` volumes bitwise identical by construction.

use scalefbp_backproject::{
    backproject_reference, backproject_simd, backproject_window, backproject_window_simd,
    KernelStats, TextureWindow,
};
use scalefbp_geom::{ProjectionMatrix, ProjectionStack, Volume};

use crate::KernelChoice;

/// Dispatches the configured in-core back-projection kernel.
pub fn run_backprojection(
    choice: KernelChoice,
    stack: &ProjectionStack,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
) -> KernelStats {
    match choice {
        KernelChoice::Reference => backproject_reference(stack, mats, vol),
        KernelChoice::Simd => backproject_simd(stack, mats, vol),
    }
}

/// Dispatches the streaming (ring-buffer) back-projection kernel;
/// `backproject_window` is the oracle's streaming form.
pub fn run_window_backprojection(
    choice: KernelChoice,
    window: &TextureWindow,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
) -> KernelStats {
    match choice {
        KernelChoice::Reference => backproject_window(window, mats, vol),
        KernelChoice::Simd => backproject_window_simd(window, mats, vol),
    }
}
