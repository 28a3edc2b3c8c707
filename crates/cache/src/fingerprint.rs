//! Obligation fingerprints: 128-bit content hashes of an obligation's
//! engine tag and sources.

/// FNV-1a offset bases for the two independent 64-bit lanes. The second
/// lane perturbs the offset so the lanes decorrelate; together they give
/// a 128-bit fingerprint, making accidental collisions across the few
/// thousand obligations of a flow run negligible.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_2: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 128-bit content address for one verification obligation.
///
/// Built by [`FingerprintBuilder`]; equal fingerprints mean the same
/// engine reads the same sources and parameters, so the cached verdict is
/// interchangeable with a fresh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Renders as 32 lowercase hex digits (the persisted key format).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the [`Fingerprint::to_hex`] rendering.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

/// Incremental fingerprint builder.
///
/// Feed the engine tag (at construction), then numbers and strings in a
/// fixed structural order, then [`FingerprintBuilder::finish`]. Input
/// order matters — callers must feed fields in a fixed order, which the
/// one obligation key encoder (`mc::obligation`) does by construction.
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    h1: u64,
    h2: u64,
}

impl FingerprintBuilder {
    /// Starts a fingerprint for the given engine tag (e.g. `"bmc"`,
    /// `"level4.miter"`). Distinct engines never share entries even on
    /// identical sources: their verdict encodings differ.
    pub fn new(engine: &str) -> Self {
        let mut b = FingerprintBuilder {
            h1: FNV_OFFSET,
            h2: FNV_OFFSET_2,
        };
        b.feed_str(engine);
        b
    }

    fn feed(&mut self, byte: u8) {
        self.h1 = (self.h1 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        self.h2 = (self.h2 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        // Decorrelate the lanes beyond the differing offsets.
        self.h2 = self.h2.rotate_left(1);
    }

    fn feed_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.feed(b);
        }
    }

    fn feed_str(&mut self, s: &str) {
        self.feed_u64(s.len() as u64);
        for b in s.bytes() {
            self.feed(b);
        }
    }

    /// Mixes in one numeric engine parameter (bound, k, mode tag, …).
    pub fn param(mut self, v: u64) -> Self {
        self.feed(0xB1);
        self.feed_u64(v);
        self
    }

    /// Mixes in a slice of numeric parameters (e.g. reset values).
    pub fn params(mut self, vs: &[u64]) -> Self {
        self.feed(0xA5);
        self.feed_u64(vs.len() as u64);
        for &v in vs {
            self.feed_u64(v);
        }
        self
    }

    /// Mixes in a string parameter (length-prefixed).
    pub fn text(mut self, s: &str) -> Self {
        self.feed(0x5A);
        self.feed_str(s);
        self
    }

    /// Finalises the 128-bit fingerprint.
    pub fn finish(self) -> Fingerprint {
        Fingerprint((u128::from(self.h1) << 64) | u128::from(self.h2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let fp = FingerprintBuilder::new("e").param(7).finish();
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(""), None);
    }

    #[test]
    fn engine_and_params_separate_entries() {
        let base = FingerprintBuilder::new("bmc").param(10).finish();
        assert_ne!(FingerprintBuilder::new("bmc").param(11).finish(), base);
        assert_ne!(FingerprintBuilder::new("ind").param(10).finish(), base);
        assert_eq!(FingerprintBuilder::new("bmc").param(10).finish(), base);
    }
}
