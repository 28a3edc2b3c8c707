//! The Figure-2 modules as pure functions.
//!
//! Each function is one box of the paper's level-1 dataflow network. The
//! same code backs every abstraction level: level 1 wires these functions
//! into kernel processes, levels 2–3 execute them natively inside SW/HW
//! tasks while annotated simulated time advances, and the two FPGA kernels
//! (DISTANCE, ROOT) additionally exist as `behav` functions in
//! [`crate::kernels`] for the formal levels.
//!
//! Simulated time comes from the static mixes of [`crate::profile`], not
//! from these bodies, so the front-end kernels (BAY, EROSION, EDGE,
//! ELLIPSE) are written for host speed: they work on row slices, and the
//! two 3×3 filters are separable. `tests/media_properties.rs` holds their
//! direct per-pixel definitions and checks them bit for bit.

use crate::image::{BayerImage, BinaryImage, GrayImage};

/// Result of the ELLIPSE module: a moment-based ellipse fit of the edge
/// cloud (the face outline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EllipseFit {
    /// Center x (pixels).
    pub cx: i32,
    /// Center y (pixels).
    pub cy: i32,
    /// Semi-axis along x.
    pub a: i32,
    /// Semi-axis along y.
    pub b: i32,
    /// Number of edge points used.
    pub points: u32,
}

/// Result of CRTBORD: the clamped bounding region around the fitted face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Inclusive left edge.
    pub x0: usize,
    /// Inclusive top edge.
    pub y0: usize,
    /// Exclusive right edge.
    pub x1: usize,
    /// Exclusive bottom edge.
    pub y1: usize,
}

impl Region {
    /// Region width.
    pub fn width(&self) -> usize {
        self.x1.saturating_sub(self.x0)
    }

    /// Region height.
    pub fn height(&self) -> usize {
        self.y1.saturating_sub(self.y0)
    }
}

/// Number of scan lines in a feature vector.
pub const FEATURE_LINES: usize = 8;
/// Samples per scan line.
pub const FEATURE_SAMPLES: usize = 16;
/// Total feature-vector length.
pub const FEATURE_LEN: usize = FEATURE_LINES * FEATURE_SAMPLES;

/// A normalized face signature (output of CALCLINE).
pub type FeatureVector = Vec<u16>;

/// BAY: demosaics the RGGB Bayer frame into grayscale by averaging each
/// pixel's 2×2 quad (gains of the three channels cancel in the average).
/// A quad cut off by an odd right or bottom border repeats its last
/// column or row.
pub fn bay(raw: &BayerImage) -> GrayImage {
    let (w, h) = (raw.width, raw.height);
    let mut out = GrayImage::new(w, h);
    if w == 0 {
        return out;
    }
    let row = |y: usize| &raw.data[y * w..][..w];
    // Both output rows of a quad row are equal: compute the first, copy it.
    for (quad_row, rows) in out.data.chunks_mut(2 * w).enumerate() {
        let qy = 2 * quad_row;
        let (top, bottom) = (row(qy), row((qy + 1).min(h - 1)));
        let (first, second) = rows.split_at_mut(w);
        for ((o, t), b) in first.chunks_mut(2).zip(top.chunks(2)).zip(bottom.chunks(2)) {
            let sum = u32::from(t[0]) + u32::from(t[t.len() - 1]);
            let sum = sum + u32::from(b[0]) + u32::from(b[b.len() - 1]);
            o.fill((sum / 4).min(255) as u16);
        }
        if !second.is_empty() {
            second.copy_from_slice(first);
        }
    }
    out
}

/// Rows `y − 1`, `y` and `y + 1` of `img`, clamped to the image: the
/// border convention of the 3×3 filters. `img` has a non-zero width.
fn clamped_rows(img: &GrayImage, y: usize) -> [&[u16]; 3] {
    let w = img.width;
    let row = |y: usize| &img.data[y * w..][..w];
    [
        row(y.saturating_sub(1)),
        row(y),
        row((y + 1).min(img.height - 1)),
    ]
}

/// `dst[x] = min(src[x − 1], src[x], src[x + 1])`, indices clamped to the
/// row. `src` and `dst` have the same, non-zero length.
fn min3_clamped(src: &[u16], dst: &mut [u16]) {
    let w = src.len();
    dst[0] = src[0].min(src[1.min(w - 1)]);
    if w > 1 {
        dst[w - 1] = src[w - 2].min(src[w - 1]);
        for (d, s) in dst[1..w - 1].iter_mut().zip(src.windows(3)) {
            *d = s[0].min(s[1]).min(s[2]);
        }
    }
}

/// EROSION: 3×3 grayscale erosion (minimum filter) — suppresses salt
/// noise before edge detection. Out-of-range neighbours clamp to the
/// border. The clamped 3×3 window is the product of the clamped row and
/// column neighbourhoods, so each output row is the horizontal minimum
/// of the vertical minima of three source rows.
pub fn erosion(img: &GrayImage) -> GrayImage {
    let (w, h) = (img.width, img.height);
    let mut out = GrayImage::new(w, h);
    if w == 0 {
        return out;
    }
    let mut column_min = vec![0u16; w];
    for (y, out_row) in out.data.chunks_exact_mut(w).enumerate() {
        let [up, mid, down] = clamped_rows(img, y);
        for (m, ((&u, &c), &d)) in column_min.iter_mut().zip(up.iter().zip(mid).zip(down)) {
            *m = u.min(c).min(d);
        }
        min3_clamped(&column_min, out_row);
    }
    out
}

/// EDGE: Sobel gradient magnitude thresholded against half the image mean.
/// Out-of-range neighbours clamp to the border. The Sobel kernels are
/// separable: with `V = up + 2·mid + down` and `D = down − up` per
/// column, `gx = V[x + 1] − V[x − 1]` and `gy = D[x − 1] + 2·D[x] +
/// D[x + 1]`. Both stay within ±4·65535, so no `u16` input overflows.
pub fn edge(img: &GrayImage) -> BinaryImage {
    let (w, h) = (img.width, img.height);
    let mut out = BinaryImage::new(w, h);
    if w == 0 {
        return out;
    }
    let threshold = (img.mean() as u32 / 2).max(16);
    let flag = |gx: i32, gy: i32| u8::from((gx.abs() + gy.abs()) as u32 / 4 > threshold);
    let (mut v, mut d) = (vec![0i32; w], vec![0i32; w]);
    for (y, out_row) in out.data.chunks_exact_mut(w).enumerate() {
        let [up, mid, down] = clamped_rows(img, y);
        for (x, ((&u, &c), &b)) in up.iter().zip(mid).zip(down).enumerate() {
            let (u, c, b) = (i32::from(u), i32::from(c), i32::from(b));
            v[x] = u + 2 * c + b;
            d[x] = b - u;
        }
        let at = |l: usize, x: usize, r: usize| flag(v[r] - v[l], d[l] + 2 * d[x] + d[r]);
        out_row[0] = at(0, 0, 1.min(w - 1));
        if w > 1 {
            out_row[w - 1] = at(w - 2, w - 1, w - 1);
            let interior = out_row[1..w - 1].iter_mut();
            for (o, (vw, dw)) in interior.zip(v.windows(3).zip(d.windows(3))) {
                *o = flag(vw[2] - vw[0], dw[0] + 2 * dw[1] + dw[2]);
            }
        }
    }
    out
}

/// ELLIPSE: fits an ellipse to the edge cloud via first and second
/// moments. Returns a centered unit fit when no edges exist.
pub fn ellipse(edges: &BinaryImage) -> EllipseFit {
    // Each row's index with the columns of its set pixels. A width-0
    // mask has no data, so it has no rows either.
    let rows = || {
        edges
            .data
            .chunks_exact(edges.width.max(1))
            .enumerate()
            .map(|(y, row)| {
                let xs = row.iter().enumerate().filter(|&(_, &b)| b != 0);
                (y, xs.map(|(x, _)| x))
            })
    };
    let mut n = 0u64;
    let (mut sx, mut sy) = (0u64, 0u64);
    for (y, xs) in rows() {
        let mut count = 0u64;
        for x in xs {
            count += 1;
            sx += x as u64;
        }
        n += count;
        sy += count * y as u64;
    }
    if n == 0 {
        return EllipseFit {
            cx: edges.width as i32 / 2,
            cy: edges.height as i32 / 2,
            a: 1,
            b: 1,
            points: 0,
        };
    }
    let cx = (sx / n) as i64;
    let cy = (sy / n) as i64;
    let (mut vxx, mut vyy) = (0u64, 0u64);
    for (y, xs) in rows() {
        let dy = y as i64 - cy;
        let mut count = 0u64;
        for x in xs {
            count += 1;
            let dx = x as i64 - cx;
            vxx += (dx * dx) as u64;
        }
        vyy += count * (dy * dy) as u64;
    }
    // Semi-axes: 2·stddev covers the bulk of an elliptic outline.
    let a = 2 * root((vxx / n).max(1)) as i32;
    let b = 2 * root((vyy / n).max(1)) as i32;
    EllipseFit {
        cx: cx as i32,
        cy: cy as i32,
        a: a.max(1),
        b: b.max(1),
        points: n as u32,
    }
}

/// CRTBORD: the clamped bounding region of the fitted ellipse.
pub fn crtbord(width: usize, height: usize, fit: &EllipseFit) -> Region {
    let x0 = (fit.cx - fit.a).max(0) as usize;
    let y0 = (fit.cy - fit.b).max(0) as usize;
    let x1 = ((fit.cx + fit.a + 1) as usize).min(width);
    let y1 = ((fit.cy + fit.b + 1) as usize).min(height);
    Region {
        x0,
        y0,
        x1: x1.max(x0 + 1),
        y1: y1.max(y0 + 1),
    }
}

/// CRTLINE: samples [`FEATURE_LINES`] horizontal scan lines ×
/// [`FEATURE_SAMPLES`] points across the region (nearest-neighbour
/// resampling to a pose-independent grid).
pub fn crtline(img: &GrayImage, region: &Region) -> Vec<u16> {
    let mut out = Vec::with_capacity(FEATURE_LEN);
    let w = region.width().max(1);
    let h = region.height().max(1);
    for line in 0..FEATURE_LINES {
        let y = region.y0 + (line * h + h / 2) / FEATURE_LINES;
        let y = y.min(img.height - 1);
        for s in 0..FEATURE_SAMPLES {
            let x = region.x0 + (s * w + w / 2) / FEATURE_SAMPLES;
            let x = x.min(img.width - 1);
            out.push(img.at(x, y));
        }
    }
    out
}

/// CALCLINE: normalizes raw line samples to a 0..=255 signature
/// (illumination invariance).
pub fn calcline(raw: &[u16]) -> FeatureVector {
    let min = raw.iter().copied().min().unwrap_or(0) as u32;
    let max = raw.iter().copied().max().unwrap_or(0) as u32;
    let span = (max - min).max(1);
    raw.iter()
        .map(|&v| (((v as u32 - min) * 255) / span) as u16)
        .collect()
}

/// DISTANCE: per-element squared differences of two signatures — the
/// kernel the case study maps into FPGA context `config1`.
pub fn distance(a: &[u16], b: &[u16]) -> Vec<u64> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as i64 - y as i64;
            (d * d) as u64
        })
        .collect()
}

/// CALCDIST: accumulates the squared differences.
pub fn calcdist(sq: &[u64]) -> u64 {
    sq.iter().sum()
}

/// ROOT: integer square root (non-restoring, bit-pair method) — the kernel
/// mapped into FPGA context `config2`.
pub fn root(x: u64) -> u32 {
    let mut rem = x;
    let mut res = 0u64;
    let mut bit = 1u64 << 62;
    while bit > rem {
        bit >>= 2;
    }
    while bit != 0 {
        if rem >= res + bit {
            rem -= res + bit;
            res = (res >> 1) + bit;
        } else {
            res >>= 1;
        }
        bit >>= 2;
    }
    res as u32
}

/// WINNER: index of the minimum distance (ties broken toward the lower
/// index, deterministically).
pub fn winner(distances: &[u32]) -> usize {
    distances
        .iter()
        .enumerate()
        .min_by_key(|&(i, &d)| (d, i))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_exact_integer_sqrt() {
        for x in 0..2000u64 {
            let r = root(x) as u64;
            assert!(r * r <= x, "x={x}");
            assert!((r + 1) * (r + 1) > x, "x={x}");
        }
        assert_eq!(root(u64::MAX), u32::MAX);
        assert_eq!(root(0), 0);
        assert_eq!(root(1), 1);
    }

    #[test]
    fn distance_and_calcdist() {
        let a = vec![10u16, 20, 30];
        let b = vec![13u16, 20, 26];
        let sq = distance(&a, &b);
        assert_eq!(sq, vec![9, 0, 16]);
        assert_eq!(calcdist(&sq), 25);
        assert_eq!(root(calcdist(&sq)), 5);
    }

    #[test]
    fn winner_breaks_ties_low() {
        assert_eq!(winner(&[5, 2, 2, 7]), 1);
        assert_eq!(winner(&[1]), 0);
        assert_eq!(winner(&[]), 0);
    }

    #[test]
    fn calcline_normalizes_full_range() {
        let raw = vec![50u16, 100, 150];
        let n = calcline(&raw);
        assert_eq!(n[0], 0);
        assert_eq!(n[2], 255);
        // Constant input stays at zero (span clamps to 1).
        let flat = calcline(&[7, 7, 7]);
        assert_eq!(flat, vec![0, 0, 0]);
    }

    #[test]
    fn erosion_shrinks_bright_areas() {
        let mut img = GrayImage::new(5, 5);
        *img.at_mut(2, 2) = 200; // single bright pixel
        let e = erosion(&img);
        // A lone bright pixel is erased by a min filter.
        assert_eq!(e.at(2, 2), 0);
    }

    #[test]
    fn edge_detects_step() {
        let mut img = GrayImage::new(8, 8);
        for y in 0..8 {
            for x in 4..8 {
                *img.at_mut(x, y) = 200;
            }
        }
        let e = edge(&img);
        // Edges concentrate near the x=4 boundary.
        let edge_cols: Vec<usize> = (0..8)
            .filter(|&x| (0..8).any(|y| e.at(x, y) != 0))
            .collect();
        assert!(!edge_cols.is_empty());
        assert!(edge_cols.iter().all(|&x| (3..=5).contains(&x)));
    }

    #[test]
    fn ellipse_centers_on_cloud() {
        let mut b = BinaryImage::new(20, 20);
        // Ring of points around (10, 10).
        for (dx, dy) in [(3i32, 0i32), (-3, 0), (0, 4), (0, -4), (2, 2), (-2, -2)] {
            *b.at_mut((10 + dx) as usize, (10 + dy) as usize) = 1;
        }
        let fit = ellipse(&b);
        assert!((fit.cx - 10).abs() <= 1);
        assert!((fit.cy - 10).abs() <= 1);
        assert!(fit.a >= 1 && fit.b >= 1);
        assert_eq!(fit.points, 6);
    }

    #[test]
    fn empty_edge_cloud_yields_centered_unit_fit() {
        let b = BinaryImage::new(16, 16);
        let fit = ellipse(&b);
        assert_eq!(fit.cx, 8);
        assert_eq!(fit.points, 0);
        let r = crtbord(16, 16, &fit);
        assert!(r.width() >= 1 && r.height() >= 1);
    }

    #[test]
    fn crtline_has_fixed_length() {
        let img = GrayImage::new(32, 32);
        let region = Region {
            x0: 4,
            y0: 4,
            x1: 28,
            y1: 28,
        };
        let raw = crtline(&img, &region);
        assert_eq!(raw.len(), FEATURE_LEN);
    }

    #[test]
    fn bay_averages_quads() {
        let mut raw = BayerImage::new(2, 2);
        *raw.at_mut(0, 0) = 100;
        *raw.at_mut(1, 0) = 200;
        *raw.at_mut(0, 1) = 100;
        *raw.at_mut(1, 1) = 200;
        let g = bay(&raw);
        for y in 0..2 {
            for x in 0..2 {
                assert_eq!(g.at(x, y), 150);
            }
        }
    }
}
