//! Per-module operation mixes — the level-1 profiling data.
//!
//! "Accurate profiling is of key relevance to estimate performance of the
//! architecture under investigation" (§4.1). The mixes below model the
//! target CPU running each module's direct formulation — per pixel or per
//! element, as commented on each arm (EROSION: a 3×3 window of 9 loads and
//! 8 compares) — scaled by the workload geometry; they feed
//! [`platform::Profile`] and from there the level-2/3 SW timing
//! annotation. The host implementations in [`crate::pipeline`] compute the
//! same outputs by cheaper separable, row-sliced passes; the mixes, and so
//! simulated time, do not depend on them.

use crate::dataset::DatasetConfig;
use crate::pipeline::FEATURE_LEN;
use platform::{OpMix, Profile};

/// Per-invocation operation mix of one Figure-2 module for frames of
/// `width × height` pixels and a gallery of `gallery_len` signatures.
pub fn module_mix(module: &str, config: &DatasetConfig, gallery_len: usize) -> OpMix {
    let pixels = (config.width * config.height) as u64;
    let feat = FEATURE_LEN as u64;
    let gal = gallery_len as u64;
    match module {
        // Quad gather (4 loads) + 3 adds + shift per pixel.
        "bay" => OpMix {
            alu: 4 * pixels,
            mem: 5 * pixels,
            branch: pixels,
            ..OpMix::default()
        },
        // 3×3 window: 9 loads, 8 compares per pixel.
        "erosion" => OpMix {
            alu: 8 * pixels,
            mem: 10 * pixels,
            branch: pixels,
            ..OpMix::default()
        },
        // Sobel: ~12 adds, 2 abs, 1 compare, 6 loads per pixel.
        "edge" => OpMix {
            alu: 15 * pixels,
            mem: 7 * pixels,
            branch: pixels,
            ..OpMix::default()
        },
        // Two passes over the image, one sqrt-free moment accumulation.
        "ellipse" => OpMix {
            alu: 8 * pixels,
            mul: 2 * pixels,
            mem: 2 * pixels,
            branch: 2 * pixels,
            div: 4,
            ..OpMix::default()
        },
        "crtbord" => OpMix {
            alu: 16,
            ..OpMix::default()
        },
        // Resampling grid: address arithmetic + a load per sample.
        "crtline" => OpMix {
            alu: 6 * feat,
            mem: feat,
            div: 2 * feat,
            ..OpMix::default()
        },
        // Min/max scan + normalization divide per element.
        "calcline" => OpMix {
            alu: 3 * feat,
            div: feat,
            mem: 2 * feat,
            branch: 2 * feat,
            ..OpMix::default()
        },
        // Per gallery entry: feat × (sub, compare, mul, add, 2 loads).
        "distance" => OpMix {
            alu: 2 * feat * gal,
            mul: feat * gal,
            mem: 2 * feat * gal,
            branch: feat * gal,
            ..OpMix::default()
        },
        "calcdist" => OpMix {
            alu: feat * gal,
            mem: feat * gal,
            ..OpMix::default()
        },
        // Bit-pair isqrt: 16 iterations of compare/sub/shift per entry.
        "root" => OpMix {
            alu: 5 * 16 * gal,
            branch: 16 * gal,
            ..OpMix::default()
        },
        "winner" => OpMix {
            alu: 2 * gal,
            branch: gal,
            mem: gal,
            ..OpMix::default()
        },
        // Frame readout: one store per pixel.
        "camera" => OpMix {
            mem: pixels,
            alu: pixels,
            ..OpMix::default()
        },
        // Gallery fetch: one load per signature element.
        "database" => OpMix {
            mem: feat * gal,
            ..OpMix::default()
        },
        _ => OpMix::default(),
    }
}

/// The canonical module list in dataflow order (Figure 2).
pub const MODULES: [&str; 13] = [
    "camera", "bay", "erosion", "edge", "ellipse", "crtbord", "crtline", "calcline", "database",
    "distance", "calcdist", "root", "winner",
];

/// Builds the full level-1 profile for a dataset configuration.
pub fn build_profile(config: &DatasetConfig, gallery_len: usize) -> Profile {
    let mut p = Profile::new();
    for m in MODULES {
        p.record(m, module_mix(m, config, gallery_len));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::CpuModel;

    #[test]
    fn heavy_modules_rank_first() {
        let config = DatasetConfig::default();
        let profile = build_profile(&config, 80);
        let ranking = profile.ranking();
        let top: Vec<&str> = ranking.iter().take(4).map(|(n, _)| *n).collect();
        // The compute-heavy pixel/vector kernels must dominate — this is
        // the designer's ranking that drives the HW/SW partition.
        assert!(
            top.contains(&"distance"),
            "distance must rank in the top 4: {top:?}"
        );
        assert!(
            top.contains(&"edge") || top.contains(&"erosion") || top.contains(&"ellipse"),
            "pixel kernels must rank high: {top:?}"
        );
    }

    #[test]
    fn profile_covers_all_modules() {
        let config = DatasetConfig::default();
        let profile = build_profile(&config, 10);
        for m in MODULES {
            assert!(
                profile.mix(m).total() > 0,
                "module {m} must have a non-empty mix"
            );
        }
    }

    #[test]
    fn annotation_scales_with_gallery() {
        let config = DatasetConfig::default();
        let cpu = CpuModel::arm7tdmi();
        let small = build_profile(&config, 10).annotate("distance", &cpu);
        let large = build_profile(&config, 80).annotate("distance", &cpu);
        assert_eq!(large, 8 * small);
    }

    #[test]
    fn unknown_module_has_empty_mix() {
        let config = DatasetConfig::default();
        assert_eq!(module_mix("ghost", &config, 1), OpMix::default());
    }
}
