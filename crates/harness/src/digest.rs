//! Content digests for the campaign cache.
//!
//! A job's digest is a 64-bit FNV-1a hash over everything that
//! determines its result: the simulator's timing-semantics version, the
//! full core configuration identity, and the workload's assembled
//! program image (which itself captures the scale and the generator
//! seeds). Two jobs with equal digests produce bit-identical
//! [`dmdp_core::SimStats`], so a cached result can stand in for a re-run.

/// Streaming FNV-1a (64-bit). Not cryptographic — it only needs to make
/// accidental digest collisions between *different experiment setups*
/// vanishingly unlikely, and to be stable across platforms and builds.
#[derive(Debug, Clone, Copy)]
pub struct Digest64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// [`Digest64::write`] on each of `N` digests, byte by byte across them.
fn write_group<const N: usize>(group: &mut [Digest64], bytes: &[u8]) {
    let mut state: [u64; N] = std::array::from_fn(|i| group[i].state);
    for &b in bytes {
        for s in &mut state {
            *s = (*s ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    for (d, s) in group.iter_mut().zip(state) {
        d.state = s;
    }
}

impl Digest64 {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Digest64 {
        Digest64 { state: FNV_OFFSET }
    }

    /// Resumes a digest from its [`Digest64::hex`] form. An FNV-1a
    /// digest is its whole state, so writing more bytes to the resumed
    /// digest equals writing them before the digest was taken. `None`
    /// unless `hex` is 16 hex digits.
    pub(crate) fn from_hex(hex: &str) -> Option<Digest64> {
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(hex, 16)
            .ok()
            .map(|state| Digest64 { state })
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs the same bytes into every digest of `lanes`, with the
    /// result of calling [`Digest64::write`] on each. The lanes' multiply
    /// chains are independent, so taking each byte into up to eight of
    /// them at once overlaps the multiply latency that bounds a single
    /// chain.
    pub(crate) fn write_lanes(lanes: &mut [Digest64], bytes: &[u8]) {
        let mut rest = lanes;
        while !rest.is_empty() {
            // Fixed group widths keep every chain in a register.
            let width = [8, 4, 2, 1]
                .into_iter()
                .find(|&w| w <= rest.len())
                .unwrap_or(1);
            let (group, tail) = rest.split_at_mut(width);
            match width {
                8 => write_group::<8>(group, bytes),
                4 => write_group::<4>(group, bytes),
                2 => write_group::<2>(group, bytes),
                _ => write_group::<1>(group, bytes),
            }
            rest = tail;
        }
    }

    /// Absorbs a string, length-prefixed so field boundaries cannot
    /// alias (`"ab" + "c"` digests differently from `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes())
    }

    /// The final 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// The final digest as a fixed-width hex string (JSON-friendly).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

impl Default for Digest64 {
    fn default() -> Self {
        Digest64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_offset_basis() {
        assert_eq!(Digest64::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn known_answer() {
        // FNV-1a("a") — the published test vector.
        let mut d = Digest64::new();
        d.write(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn length_prefix_prevents_aliasing() {
        let mut a = Digest64::new();
        a.write_str("ab").write_str("c");
        let mut b = Digest64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_sixteen_chars() {
        assert_eq!(Digest64::new().hex().len(), 16);
    }

    #[test]
    fn lanes_equal_one_write_per_lane() {
        let mut rng = dmdp_prng::Prng::new(0x1a9e5);
        let bytes: Vec<u8> = (0..1000).map(|_| rng.next_u32() as u8).collect();
        for n in [0, 1, 7, 8, 9, 37] {
            for input in [&[][..], &bytes[..]] {
                // Distinct starting states, as distinct config prefixes give.
                let start: Vec<Digest64> = (0..n)
                    .map(|i| {
                        let mut d = Digest64::new();
                        d.write_str(&format!("lane {i}"));
                        d
                    })
                    .collect();
                let mut lanes = start.clone();
                Digest64::write_lanes(&mut lanes, input);
                for (i, (got, mut want)) in lanes.iter().zip(start).enumerate() {
                    want.write(input);
                    assert_eq!(
                        got.finish(),
                        want.finish(),
                        "lane {i} of {n}, {} bytes",
                        input.len()
                    );
                }
            }
        }
    }

    #[test]
    fn a_resumed_digest_continues_the_stream() {
        let mut whole = Digest64::new();
        whole.write_str("full").write_str("suffix");
        let mut head = Digest64::new();
        head.write_str("full");
        let mut resumed = Digest64::from_hex(&head.hex()).unwrap();
        resumed.write_str("suffix");
        assert_eq!(resumed.hex(), whole.hex());
        for bad in [
            "",
            "abc",
            "0123456789abcdefg",
            "0123456789abcdeg",
            "+123456789abcdef",
        ] {
            assert!(Digest64::from_hex(bad).is_none(), "{bad:?}");
        }
    }
}
