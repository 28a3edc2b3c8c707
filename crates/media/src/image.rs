//! Image containers.

/// A raw Bayer-mosaic frame as produced by the CMOS camera model
/// (RGGB pattern, one 10-bit sample per photosite, stored in `u16`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BayerImage {
    /// Width in photosites.
    pub width: usize,
    /// Height in photosites.
    pub height: usize,
    /// Row-major samples.
    pub data: Vec<u16>,
}

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GrayImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major pixels.
    pub data: Vec<u16>,
}

/// A binary image (0 / 1 per pixel).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinaryImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major flags.
    pub data: Vec<u8>,
}

impl BayerImage {
    /// Creates a zero frame.
    pub fn new(width: usize, height: usize) -> Self {
        BayerImage {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Sample at `(x, y)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> u16 {
        self.data[y * self.width + x]
    }

    /// Mutable sample at `(x, y)`.
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize) -> &mut u16 {
        &mut self.data[y * self.width + x]
    }
}

impl GrayImage {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        GrayImage {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Pixel at `(x, y)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> u16 {
        self.data[y * self.width + x]
    }

    /// Mutable pixel at `(x, y)`.
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize) -> &mut u16 {
        &mut self.data[y * self.width + x]
    }

    /// Mean pixel value.
    pub fn mean(&self) -> u16 {
        if self.data.is_empty() {
            return 0;
        }
        let sum: u64 = self.data.iter().map(|&p| p as u64).sum();
        (sum / self.data.len() as u64) as u16
    }
}

impl BinaryImage {
    /// Creates an all-zero mask.
    pub fn new(width: usize, height: usize) -> Self {
        BinaryImage {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Flag at `(x, y)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    /// Mutable flag at `(x, y)`.
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize) -> &mut u8 {
        &mut self.data[y * self.width + x]
    }

    /// Number of set pixels.
    pub fn count_ones(&self) -> usize {
        self.data.iter().filter(|&&b| b != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut g = GrayImage::new(4, 3);
        *g.at_mut(2, 1) = 77;
        assert_eq!(g.at(2, 1), 77);
        assert_eq!(g.at(0, 0), 0);
    }

    #[test]
    fn mean_and_count() {
        let mut g = GrayImage::new(2, 1);
        *g.at_mut(0, 0) = 10;
        *g.at_mut(1, 0) = 20;
        assert_eq!(g.mean(), 15);
        let mut b = BinaryImage::new(2, 2);
        *b.at_mut(0, 1) = 1;
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn bayer_indexing() {
        let mut b = BayerImage::new(2, 2);
        *b.at_mut(1, 0) = 300;
        assert_eq!(b.at(1, 0), 300);
    }
}
