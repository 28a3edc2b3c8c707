//! Property-based tests of the imaging pipeline: algebraic invariants of
//! every Figure-2 kernel that hold for *any* image, not just faces, and
//! the row-sliced front-end kernels against their direct per-pixel
//! definitions at every shape up to 24×24.

use media::image::{BayerImage, BinaryImage, GrayImage};
use media::pipeline::{
    bay, calcdist, calcline, crtbord, crtline, distance, edge, ellipse, erosion, root, winner,
    EllipseFit, FEATURE_LEN,
};
use proptest::prelude::*;

/// BAY, EROSION, EDGE and ELLIPSE written pixel by pixel, straight from
/// their definitions, with clamped neighbour access. They share no code
/// with `media::pipeline`: the separable and row-sliced kernels there
/// must match them bit for bit.
mod direct {
    use super::{BayerImage, BinaryImage, EllipseFit, GrayImage};

    /// Pixel `(x, y)` with both coordinates clamped into the image.
    fn clamped(img: &GrayImage, x: isize, y: isize) -> u16 {
        let cx = x.clamp(0, img.width as isize - 1) as usize;
        let cy = y.clamp(0, img.height as isize - 1) as usize;
        img.data[cy * img.width + cx]
    }

    pub fn bay(raw: &BayerImage) -> GrayImage {
        let (w, h) = (raw.width, raw.height);
        let at = |x: usize, y: usize| u32::from(raw.data[y * w + x]);
        let mut out = GrayImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let (qx, qy) = (x & !1, y & !1);
                let (x1, y1) = ((qx + 1).min(w - 1), (qy + 1).min(h - 1));
                let sum = at(qx, qy) + at(x1, qy) + at(qx, y1) + at(x1, y1);
                out.data[y * w + x] = (sum / 4).min(255) as u16;
            }
        }
        out
    }

    pub fn erosion(img: &GrayImage) -> GrayImage {
        let mut out = GrayImage::new(img.width, img.height);
        for y in 0..img.height {
            for x in 0..img.width {
                let mut m = u16::MAX;
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        m = m.min(clamped(img, x as isize + dx, y as isize + dy));
                    }
                }
                out.data[y * img.width + x] = m;
            }
        }
        out
    }

    pub fn edge(img: &GrayImage) -> BinaryImage {
        let mut out = BinaryImage::new(img.width, img.height);
        let sum: u64 = img.data.iter().map(|&p| u64::from(p)).sum();
        let mean = if img.data.is_empty() {
            0
        } else {
            sum / img.data.len() as u64
        };
        let threshold = (mean / 2).max(16);
        for y in 0..img.height {
            for x in 0..img.width {
                let p = |dx: isize, dy: isize| {
                    i64::from(clamped(img, x as isize + dx, y as isize + dy))
                };
                let gx = -p(-1, -1) - 2 * p(-1, 0) - p(-1, 1) + p(1, -1) + 2 * p(1, 0) + p(1, 1);
                let gy = -p(-1, -1) - 2 * p(0, -1) - p(1, -1) + p(-1, 1) + 2 * p(0, 1) + p(1, 1);
                if (gx.abs() + gy.abs()) as u64 / 4 > threshold {
                    out.data[y * img.width + x] = 1;
                }
            }
        }
        out
    }

    /// `⌊√x⌋` by bisection.
    fn isqrt(x: u64) -> u64 {
        let (mut lo, mut hi) = (0u64, 1 << 32);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if mid * mid <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    pub fn ellipse(edges: &BinaryImage) -> EllipseFit {
        let points: Vec<(i64, i64)> = (0..edges.height)
            .flat_map(|y| (0..edges.width).map(move |x| (x, y)))
            .filter(|&(x, y)| edges.data[y * edges.width + x] != 0)
            .map(|(x, y)| (x as i64, y as i64))
            .collect();
        let n = points.len() as i64;
        if n == 0 {
            return EllipseFit {
                cx: edges.width as i32 / 2,
                cy: edges.height as i32 / 2,
                a: 1,
                b: 1,
                points: 0,
            };
        }
        let cx = points.iter().map(|p| p.0).sum::<i64>() / n;
        let cy = points.iter().map(|p| p.1).sum::<i64>() / n;
        let vxx = points.iter().map(|p| (p.0 - cx).pow(2)).sum::<i64>() / n;
        let vyy = points.iter().map(|p| (p.1 - cy).pow(2)).sum::<i64>() / n;
        let axis = |v: i64| (2 * isqrt(v.max(1) as u64) as i32).max(1);
        EllipseFit {
            cx: cx as i32,
            cy: cy as i32,
            a: axis(vxx),
            b: axis(vyy),
            points: n as u32,
        }
    }
}

/// The largest width and height the direct-definition comparisons
/// enumerate.
const MAX_EDGE: usize = 24;

/// Every `(width, height)` from 0×0 to `MAX_EDGE`×`MAX_EDGE`: empty,
/// one-wide, odd and non-square shapes included.
fn shapes() -> impl Iterator<Item = (usize, usize)> {
    (0..=MAX_EDGE).flat_map(|w| (0..=MAX_EDGE).map(move |h| (w, h)))
}

/// Enough samples for the largest shape; each shape takes a prefix.
fn samples() -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::vec(any::<u16>(), MAX_EDGE * MAX_EDGE)
}

fn gray_image(max_dim: usize) -> impl Strategy<Value = GrayImage> {
    (4..=max_dim, 4..=max_dim).prop_flat_map(|(w, h)| {
        proptest::collection::vec(0u16..=255, w * h).prop_map(move |data| GrayImage {
            width: w,
            height: h,
            data,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn erosion_never_brightens(img in gray_image(24)) {
        let e = erosion(&img);
        for y in 0..img.height {
            for x in 0..img.width {
                prop_assert!(e.at(x, y) <= img.at(x, y));
            }
        }
    }

    #[test]
    fn erosion_is_monotone(img in gray_image(16)) {
        // Eroding a uniformly brightened image dominates eroding the
        // original (morphological monotonicity).
        let brighter = GrayImage {
            width: img.width,
            height: img.height,
            data: img.data.iter().map(|&p| (p + 10).min(255)).collect(),
        };
        let e1 = erosion(&img);
        let e2 = erosion(&brighter);
        for (a, b) in e1.data.iter().zip(&e2.data) {
            prop_assert!(b >= a);
        }
    }

    #[test]
    fn edge_of_flat_image_is_empty(w in 4usize..20, h in 4usize..20, v in 0u16..=255) {
        let img = GrayImage { width: w, height: h, data: vec![v; w * h] };
        let e = edge(&img);
        prop_assert_eq!(e.count_ones(), 0);
    }

    #[test]
    fn ellipse_center_stays_in_bounds(img in gray_image(24)) {
        let edges = edge(&img);
        let fit = ellipse(&edges);
        prop_assert!(fit.cx >= 0 && (fit.cx as usize) < img.width);
        prop_assert!(fit.cy >= 0 && (fit.cy as usize) < img.height);
        prop_assert!(fit.a >= 1 && fit.b >= 1);
        // CRTBORD clamps to the frame.
        let region = crtbord(img.width, img.height, &fit);
        prop_assert!(region.x1 <= img.width.max(region.x0 + 1));
        prop_assert!(region.y1 <= img.height.max(region.y0 + 1));
        prop_assert!(region.width() >= 1 && region.height() >= 1);
    }

    #[test]
    fn feature_extraction_has_fixed_shape_and_range(img in gray_image(24)) {
        let edges = edge(&img);
        let fit = ellipse(&edges);
        let region = crtbord(img.width, img.height, &fit);
        let raw = crtline(&img, &region);
        prop_assert_eq!(raw.len(), FEATURE_LEN);
        let features = calcline(&raw);
        prop_assert_eq!(features.len(), FEATURE_LEN);
        prop_assert!(features.iter().all(|&v| v <= 255));
    }

    #[test]
    fn distance_is_a_semimetric(
        a in proptest::collection::vec(0u16..=255, 16),
        b in proptest::collection::vec(0u16..=255, 16),
    ) {
        // Symmetry and identity of the squared distance.
        let dab = calcdist(&distance(&a, &b));
        let dba = calcdist(&distance(&b, &a));
        prop_assert_eq!(dab, dba);
        prop_assert_eq!(calcdist(&distance(&a, &a)), 0);
        // Rooted distance agrees with the float norm within rounding.
        let exact: f64 = a.iter().zip(&b)
            .map(|(&x, &y)| {
                let d = x as f64 - y as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt();
        let r = root(dab) as f64;
        prop_assert!((r - exact).abs() <= 1.0, "root {r} vs {exact}");
    }

    #[test]
    fn winner_returns_a_global_minimum(d in proptest::collection::vec(any::<u32>(), 1..40)) {
        let w = winner(&d);
        prop_assert!(d.iter().all(|&x| d[w] <= x));
        // Tie-break: no earlier index has the same value.
        prop_assert!(d[..w].iter().all(|&x| x > d[w]));
    }

    #[test]
    fn bay_output_is_8_bit_and_quad_constant(
        w in 2usize..16, h in 2usize..16,
        data in proptest::collection::vec(0u16..=255, 16 * 16),
    ) {
        let raw = media::image::BayerImage {
            width: w,
            height: h,
            data: data[..w * h].to_vec(),
        };
        let g = bay(&raw);
        prop_assert!(g.data.iter().all(|&p| p <= 255));
        // Every pixel of an aligned 2×2 quad gets the same demosaiced value.
        for y in (0..h & !1).step_by(2) {
            for x in (0..w & !1).step_by(2) {
                if x + 1 < w && y + 1 < h {
                    let v = g.at(x, y);
                    prop_assert_eq!(g.at(x + 1, y), v);
                    prop_assert_eq!(g.at(x, y + 1), v);
                    prop_assert_eq!(g.at(x + 1, y + 1), v);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bay_matches_its_direct_definition_at_every_shape(samples in samples()) {
        // 10-bit photosites: quads above 255 exercise the output clamp.
        for (w, h) in shapes() {
            let data = samples[..w * h].iter().map(|&v| v & 0x3FF).collect();
            let raw = BayerImage { width: w, height: h, data };
            prop_assert_eq!(bay(&raw), direct::bay(&raw), "bay at {}x{}", w, h);
        }
    }

    #[test]
    fn erosion_matches_its_direct_definition_at_every_shape(
        samples in samples(),
        shift in 0u32..16,
    ) {
        for (w, h) in shapes() {
            let data = samples[..w * h].iter().map(|&v| v >> shift).collect();
            let img = GrayImage { width: w, height: h, data };
            prop_assert_eq!(erosion(&img), direct::erosion(&img), "erosion at {}x{}", w, h);
        }
    }

    #[test]
    fn edge_matches_its_direct_definition_at_every_shape(
        samples in samples(),
        shift in 0u32..16,
    ) {
        // Full-range pixels reach the ±4·65535 gradient extremes; shifted
        // ones put the magnitudes on both sides of the threshold.
        for (w, h) in shapes() {
            let data = samples[..w * h].iter().map(|&v| v >> shift).collect();
            let img = GrayImage { width: w, height: h, data };
            prop_assert_eq!(edge(&img), direct::edge(&img), "edge at {}x{}", w, h);
        }
    }

    #[test]
    fn ellipse_matches_its_direct_definition_at_every_shape(
        samples in samples(),
        density in 0u16..=16,
    ) {
        // Density 0 leaves every mask empty: the centred unit fit.
        for (w, h) in shapes() {
            let data = samples[..w * h].iter().map(|&v| u8::from(v % 16 < density)).collect();
            let mask = BinaryImage { width: w, height: h, data };
            prop_assert_eq!(ellipse(&mask), direct::ellipse(&mask), "ellipse at {}x{}", w, h);
        }
    }
}

#[test]
fn edge_reaches_the_gradient_extremes_without_overflow() {
    // Full-scale steps across and down the frame: |gx| or |gy| reaches
    // 4·65535 along the step.
    for (w, h) in [(1, 1), (2, 3), (3, 2), (7, 5), (24, 24)] {
        for across in [true, false] {
            let data = (0..w * h)
                .map(|i| {
                    let (x, y) = (i % w, i / w);
                    let past = if across { 2 * x >= w } else { 2 * y >= h };
                    if past {
                        u16::MAX
                    } else {
                        0
                    }
                })
                .collect();
            let img = GrayImage {
                width: w,
                height: h,
                data,
            };
            let e = edge(&img);
            assert_eq!(e, direct::edge(&img), "{w}x{h}, across: {across}");
            if w == 24 {
                assert!(e.count_ones() > 0, "the step is an edge");
            }
        }
    }
}

#[test]
fn edge_detects_vertical_step_everywhere() {
    // Deterministic sanity companion to the proptests.
    for split in 2..6 {
        let mut img = GrayImage::new(8, 8);
        for y in 0..8 {
            for x in split..8 {
                *img.at_mut(x, y) = 220;
            }
        }
        let e: BinaryImage = edge(&img);
        assert!(e.count_ones() > 0, "split at {split}");
    }
}
