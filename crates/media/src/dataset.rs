//! The synthetic camera and face gallery.
//!
//! Substitutes the paper's proprietary 20-identity face database and CMOS
//! camera (see DESIGN.md): a parametric face renderer produces
//! deterministic, identity-distinct, pose-varying images, mosaiced RGGB
//! with seeded sensor noise. Determinism is load-bearing — the flow's
//! cross-level trace comparison requires bit-identical frames per
//! `(identity, pose, noise_seed)`.

use crate::image::BayerImage;

/// A tiny deterministic xorshift PRNG (no external dependency so the frame
/// bytes are fully pinned by this crate alone).
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Per-identity facial geometry (derived deterministically from the id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaceParams {
    head_a: i64,
    head_b: i64,
    eye_dx: i64,
    eye_dy: i64,
    eye_r: i64,
    mouth_w: i64,
    mouth_y: i64,
    skin: i64,
    brow: bool,
}

impl FaceParams {
    fn for_identity(id: usize) -> FaceParams {
        let mut rng = XorShift::new(0xFACE_0000 + id as u64);
        FaceParams {
            head_a: rng.range(16, 24),
            head_b: rng.range(22, 29),
            eye_dx: rng.range(6, 11),
            eye_dy: rng.range(6, 10),
            eye_r: rng.range(2, 4),
            mouth_w: rng.range(6, 14),
            mouth_y: rng.range(10, 16),
            skin: rng.range(150, 220),
            brow: rng.next().is_multiple_of(2),
        }
    }
}

/// Dataset configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetConfig {
    /// Number of identities in the gallery (the paper uses 20).
    pub identities: usize,
    /// Poses per identity.
    pub poses: usize,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Peak sensor-noise amplitude (grey levels).
    pub noise_amp: i64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            identities: 20,
            poses: 4,
            width: 64,
            height: 64,
            noise_amp: 6,
        }
    }
}

/// The synthetic face dataset: camera + gallery source.
#[derive(Debug, Clone)]
pub struct Dataset {
    config: DatasetConfig,
}

impl Dataset {
    /// Creates a dataset with the given configuration.
    pub fn new(config: DatasetConfig) -> Self {
        assert!(config.identities > 0 && config.poses > 0);
        assert!(config.width >= 32 && config.height >= 32);
        Dataset { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Renders the camera frame for `(identity, pose)` with the given
    /// noise seed. `noise_seed = 0` disables noise (gallery enrolment);
    /// probes use non-zero seeds so they never equal the enrolled frame
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if identity or pose is out of range.
    pub fn frame(&self, identity: usize, pose: usize, noise_seed: u64) -> BayerImage {
        assert!(identity < self.config.identities, "identity out of range");
        assert!(pose < self.config.poses, "pose out of range");
        let p = FaceParams::for_identity(identity);
        let mut pose_rng = XorShift::new(0x9053_0000 + pose as u64 * 131 + identity as u64);
        let dx = pose_rng.range(-4, 4);
        let dy = pose_rng.range(-3, 3);
        // Pose scale in 1/16ths: 15..=17 (≈ ±6 %).
        let scale16 = pose_rng.range(15, 17);

        let w = self.config.width as i64;
        let h = self.config.height as i64;
        let cx = w / 2 + dx;
        let cy = h / 2 + dy;
        let head_a = p.head_a * scale16 / 16;
        let head_b = p.head_b * scale16 / 16;

        let (aa, bb) = (head_a * head_a, head_b * head_b);
        let eye_r2 = p.eye_r * p.eye_r;
        let noisy = self.config.noise_amp > 0 && noise_seed != 0;
        let mut noise = XorShift::new(noise_seed);
        let mut raw = BayerImage::new(self.config.width, self.config.height);
        for (y, out) in (0..h).zip(raw.data.chunks_exact_mut(self.config.width)) {
            // Row invariants: background with a soft vertical gradient,
            // the head ellipse's y term, whether an eye, a brow, the nose
            // or the mouth crosses this row, and the RGGB gains of the
            // row's parity (BAY's quad average restores the luminance).
            let background: i64 = 30 + y / 8;
            let ey = y - cy;
            let ey_term = ey * ey * aa;
            let ddy = ey + p.eye_dy;
            let eye_row = ddy * ddy <= eye_r2;
            let brow_row = p.brow && ddy == -(p.eye_r + 2);
            let nose_row = (-2..=4).contains(&ey);
            let mouth_row = ey >= p.mouth_y && ey <= p.mouth_y + 1;
            // [R, G] on even rows, [G, B] on odd ones.
            let gains: [u32; 2] = if y & 1 == 0 { [90, 100] } else { [100, 110] };
            for (x, px) in (0..w).zip(out.iter_mut()) {
                let mut v = background;
                let ex = x - cx;
                // Head ellipse.
                if ex * ex * bb + ey_term <= aa * bb {
                    v = p.skin - (ex.abs() + ey.abs()) / 4;
                    // Each side's eye, then its brow; left side first.
                    if eye_row || brow_row {
                        for side in [-1i64, 1] {
                            let ddx = ex - side * p.eye_dx;
                            if ddx * ddx + ddy * ddy <= eye_r2 {
                                v = 50;
                            }
                            if brow_row && ddx.abs() <= p.eye_r + 1 {
                                v = 70;
                            }
                        }
                    }
                    if nose_row && ex.abs() <= 1 {
                        v -= 30;
                    }
                    if mouth_row && ex.abs() <= p.mouth_w {
                        v = 60;
                    }
                }
                if noisy {
                    v += noise.range(-self.config.noise_amp, self.config.noise_amp);
                }
                let v = v.clamp(0, 255) as u32;
                *px = (v * gains[(x & 1) as usize] / 100).min(255) as u16;
            }
        }
        raw
    }

    /// Enumerates `(identity, pose)` pairs of the gallery.
    pub fn gallery_entries(&self) -> Vec<(usize, usize)> {
        let mut v = Vec::with_capacity(self.config.identities * self.config.poses);
        for id in 0..self.config.identities {
            for pose in 0..self.config.poses {
                v.push((id, pose));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_deterministic() {
        let ds = Dataset::new(DatasetConfig::default());
        let a = ds.frame(3, 1, 42);
        let b = ds.frame(3, 1, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn identities_differ() {
        let ds = Dataset::new(DatasetConfig::default());
        let a = ds.frame(0, 0, 0);
        let b = ds.frame(1, 0, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn poses_differ() {
        let ds = Dataset::new(DatasetConfig::default());
        let a = ds.frame(0, 0, 0);
        let b = ds.frame(0, 1, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn noise_seed_changes_frame_but_zero_is_clean() {
        let ds = Dataset::new(DatasetConfig::default());
        let clean1 = ds.frame(5, 2, 0);
        let clean2 = ds.frame(5, 2, 0);
        let noisy = ds.frame(5, 2, 7);
        assert_eq!(clean1, clean2);
        assert_ne!(clean1, noisy);
    }

    #[test]
    fn gallery_enumeration() {
        let ds = Dataset::new(DatasetConfig {
            identities: 3,
            poses: 2,
            ..DatasetConfig::default()
        });
        let entries = ds.gallery_entries();
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[0], (0, 0));
        assert_eq!(entries[5], (2, 1));
    }

    #[test]
    #[should_panic(expected = "identity out of range")]
    fn identity_bounds_checked() {
        let ds = Dataset::new(DatasetConfig::default());
        ds.frame(99, 0, 0);
    }

    #[test]
    fn default_dataset_frames_are_pinned() {
        // FNV-1a over the little-endian samples of every gallery frame,
        // in gallery order, at three noise seeds. Any change to the
        // renderer or the noise draw order moves a digest.
        let ds = Dataset::new(DatasetConfig::default());
        let digest = |seed: u64| {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for (id, pose) in ds.gallery_entries() {
                for v in ds.frame(id, pose, seed).data {
                    for b in v.to_le_bytes() {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
                    }
                }
            }
            h
        };
        assert_eq!(ds.gallery_entries().len(), 80);
        let got = [0, 1, 0xDEAD_BEEF_F00D_CAFE].map(digest);
        assert_eq!(
            got,
            [
                0x6E16_0E67_D2EA_6C54,
                0xB5C8_6289_D47F_7DC8,
                0xA5F7_B9A6_05AF_0195
            ],
            "{got:#018x?}"
        );
    }

    #[test]
    fn frame_values_fit_in_8_bits() {
        let ds = Dataset::new(DatasetConfig::default());
        let f = ds.frame(7, 3, 123);
        assert!(f.data.iter().all(|&v| v <= 255));
    }
}
