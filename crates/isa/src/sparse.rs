use crate::op::MemWidth;
use crate::pagedir::PageDir;
use crate::{Addr, Word};

/// Bits of a byte address below its page index.
pub(crate) const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

/// Size in bytes of one backing page (4 KiB) — the granule of
/// architectural checkpoints.
pub const PAGE_BYTES: usize = PAGE_SIZE;

/// A sparse byte-addressable memory image, allocated in 4 KiB pages on
/// first touch. Unwritten bytes read as zero.
///
/// This is the *architectural* storage used by the functional emulator and
/// as the backing store behind the timed cache hierarchy; it has no timing
/// of its own. A naturally aligned access never crosses a page, so every
/// [`SparseMem::read`] and [`SparseMem::write`] costs one page lookup in
/// a two-level page directory.
///
/// # Example
///
/// ```
/// use dmdp_isa::SparseMem;
/// let mut m = SparseMem::new();
/// m.write_word(0x1000, 0xDEAD_BEEF);
/// assert_eq!(m.read_word(0x1000), 0xDEAD_BEEF);
/// assert_eq!(m.read_byte(0x1003), 0xDE); // little-endian
/// assert_eq!(m.read_word(0x2000), 0);    // untouched memory is zero
/// ```
#[derive(Clone, Default)]
pub struct SparseMem {
    pages: PageDir<[u8; PAGE_SIZE]>,
}

impl SparseMem {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> SparseMem {
        SparseMem::default()
    }

    #[inline]
    fn page(&self, addr: Addr) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(addr >> PAGE_SHIFT)
    }

    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_SIZE] {
        self.pages.get_or_insert_with(addr >> PAGE_SHIFT, || Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    #[inline]
    pub fn read_byte(&self, addr: Addr) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_byte(&mut self, addr: Addr, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a naturally-aligned little-endian word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    #[inline]
    pub fn read_word(&self, addr: Addr) -> Word {
        assert!(addr.is_multiple_of(4), "unaligned word read at {addr:#x}");
        self.read_aligned(addr, 4)
    }

    /// Writes a naturally-aligned little-endian word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    #[inline]
    pub fn write_word(&mut self, addr: Addr, value: Word) {
        assert!(addr.is_multiple_of(4), "unaligned word write at {addr:#x}");
        self.write_aligned(addr, 4, value);
    }

    /// The `len`-byte little-endian value at `addr`, zero-extended.
    /// The access lies inside one page (`addr` is `len`-aligned and
    /// `len` ≤ 4).
    #[inline]
    fn read_aligned(&self, addr: Addr, len: usize) -> Word {
        let Some(page) = self.page(addr) else { return 0 };
        let off = (addr & PAGE_MASK) as usize;
        let mut le = [0u8; 4];
        le[..len].copy_from_slice(&page[off..off + len]);
        u32::from_le_bytes(le)
    }

    /// Writes the low `len` bytes of `value` at `addr`, inside one page
    /// (`addr` is `len`-aligned and `len` ≤ 4).
    #[inline]
    fn write_aligned(&mut self, addr: Addr, len: usize, value: Word) {
        let off = (addr & PAGE_MASK) as usize;
        self.page_mut(addr)[off..off + len].copy_from_slice(&value.to_le_bytes()[..len]);
    }

    /// Reads an access of the given width, applying sign/zero extension
    /// for sub-word loads.
    ///
    /// # Panics
    ///
    /// Panics if the access is not naturally aligned.
    #[inline]
    pub fn read(&self, addr: Addr, width: MemWidth, signed: bool) -> Word {
        assert!(width.is_aligned(addr), "unaligned {width} read at {addr:#x}");
        let v = self.read_aligned(addr, width.bytes() as usize);
        match (width, signed) {
            (MemWidth::Byte, true) => v as u8 as i8 as i32 as u32,
            (MemWidth::Half, true) => v as u16 as i16 as i32 as u32,
            _ => v,
        }
    }

    /// Writes the low `width` bytes of `value`.
    ///
    /// # Panics
    ///
    /// Panics if the access is not naturally aligned.
    #[inline]
    pub fn write(&mut self, addr: Addr, width: MemWidth, value: Word) {
        assert!(width.is_aligned(addr), "unaligned {width} write at {addr:#x}");
        self.write_aligned(addr, width.bytes() as usize, value);
    }

    /// Copies a byte slice into memory starting at `addr`, one page at
    /// a time.
    pub fn write_bytes(&mut self, addr: Addr, mut bytes: &[u8]) {
        let mut at = addr;
        while !bytes.is_empty() {
            let off = (at & PAGE_MASK) as usize;
            let n = bytes.len().min(PAGE_SIZE - off);
            self.page_mut(at)[off..off + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            at = at.wrapping_add(n as u32);
        }
    }

    /// Number of resident 4 KiB pages (useful in tests and for memory
    /// footprint reporting).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// A snapshot of every resident page as `(page index, bytes)`,
    /// sorted by index — the canonical order used by architectural
    /// checkpoints so that equal memory states serialize identically.
    pub fn pages_sorted(&self) -> Vec<(u32, Box<[u8; PAGE_SIZE]>)> {
        self.pages.iter().map(|(i, p)| (i, Box::new(*p))).collect()
    }

    /// Installs a full page at the given page index, replacing whatever
    /// was resident there (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below 2^20, the page count of the
    /// 32-bit address space.
    pub fn install_page(&mut self, index: u32, bytes: &[u8; PAGE_SIZE]) {
        *self.pages.get_or_insert_with(index, || Box::new([0u8; PAGE_SIZE])) = *bytes;
    }
}

impl std::fmt::Debug for SparseMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMem")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill() {
        let m = SparseMem::new();
        assert_eq!(m.read_word(0), 0);
        assert_eq!(m.read_byte(0xFFFF_FFFF), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMem::new();
        m.write_word(0x10, 0x0102_0304);
        assert_eq!(m.read_byte(0x10), 0x04);
        assert_eq!(m.read_byte(0x13), 0x01);
    }

    #[test]
    fn cross_page_word() {
        let mut m = SparseMem::new();
        m.write_word(0xFFC, 0xAABB_CCDD);
        assert_eq!(m.read_word(0xFFC), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 1);
        m.write_bytes(0xFFE, &[1, 2, 3, 4]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn sub_word_reads() {
        let mut m = SparseMem::new();
        m.write_word(0x20, 0xFFFF_80FE);
        assert_eq!(m.read(0x20, MemWidth::Byte, false), 0xFE);
        assert_eq!(m.read(0x20, MemWidth::Byte, true), 0xFFFF_FFFE);
        assert_eq!(m.read(0x20, MemWidth::Half, true), 0xFFFF_80FE);
        assert_eq!(m.read(0x20, MemWidth::Half, false), 0x80FE);
        assert_eq!(m.read(0x22, MemWidth::Half, false), 0xFFFF);
    }

    #[test]
    fn sub_word_writes() {
        let mut m = SparseMem::new();
        m.write_word(0x30, 0xAAAA_AAAA);
        m.write(0x31, MemWidth::Byte, 0x11);
        assert_eq!(m.read_word(0x30), 0xAAAA_11AA);
        m.write(0x32, MemWidth::Half, 0xBEEF);
        assert_eq!(m.read_word(0x30), 0xBEEF_11AA);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_word_read_panics() {
        SparseMem::new().read_word(2);
    }

    /// Byte-at-a-time model of [`SparseMem`]: one map entry per written
    /// byte, little-endian assembly and sign extension spelled out.
    #[derive(Default)]
    struct ByteModel {
        bytes: std::collections::BTreeMap<Addr, u8>,
    }

    impl ByteModel {
        fn read(&self, addr: Addr, width: MemWidth, signed: bool) -> Word {
            let n = width.bytes();
            let mut v: u32 = 0;
            for i in 0..n {
                let b = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
                v |= (b as u32) << (8 * i);
            }
            if signed && n < 4 && v >> (8 * n - 1) & 1 == 1 {
                v |= u32::MAX << (8 * n);
            }
            v
        }

        fn write(&mut self, addr: Addr, width: MemWidth, value: Word) {
            for i in 0..width.bytes() {
                self.bytes.insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }
    }

    #[test]
    fn aligned_accesses_match_a_byte_model_at_page_edges() {
        let mut prng = dmdp_prng::Prng::new(0x5EED_9A6E);
        let mut mem = SparseMem::new();
        let mut model = ByteModel::default();
        // Page boundaries to straddle, including both ends of the
        // address space.
        let edges: [Addr; 5] = [0, 0x1000, 0x2000, 0x0001_0000, 0xFFFF_F000];
        let widths = [MemWidth::Byte, MemWidth::Half, MemWidth::Word];
        for step in 0..20_000 {
            let width = widths[prng.index(3)];
            // Offsets 0xFF8..=0xFFF of the page below the edge and
            // 0x000..=0x007 of the page above it, aligned down.
            let offset = prng.range_i32(-8, 7);
            let addr =
                edges[prng.index(edges.len())].wrapping_add(offset as u32) & !(width.bytes() - 1);
            if prng.flip() {
                let value = prng.next_u32();
                mem.write(addr, width, value);
                model.write(addr, width, value);
            } else {
                let signed = prng.flip();
                assert_eq!(
                    mem.read(addr, width, signed),
                    model.read(addr, width, signed),
                    "step {step}: {width} read at {addr:#x} (signed {signed})"
                );
            }
            if width == MemWidth::Word && step % 7 == 0 {
                assert_eq!(mem.read_word(addr), model.read(addr, width, false), "{addr:#x}");
            }
        }
        // Exactly the written pages are resident, and they hold exactly
        // the written bytes.
        let mut written: Vec<u32> = model.bytes.keys().map(|a| a >> PAGE_SHIFT).collect();
        written.dedup();
        let pages = mem.pages_sorted();
        assert_eq!(pages.iter().map(|&(i, _)| i).collect::<Vec<_>>(), written);
        for (index, page) in &pages {
            for (off, &b) in page.iter().enumerate() {
                let addr = (index << PAGE_SHIFT) | off as u32;
                assert_eq!(b, model.bytes.get(&addr).copied().unwrap_or(0), "{addr:#x}");
            }
        }
    }

    #[test]
    fn pages_round_trip_sorted() {
        let mut m = SparseMem::new();
        m.write_word(0x5000, 3);
        m.write_word(0x1000, 1);
        m.write_word(0x3000, 2);
        let pages = m.pages_sorted();
        assert_eq!(pages.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![1, 3, 5]);
        let mut n = SparseMem::new();
        for (i, p) in &pages {
            n.install_page(*i, p);
        }
        for addr in [0x1000, 0x3000, 0x5000] {
            assert_eq!(n.read_word(addr), m.read_word(addr));
        }
        assert_eq!(n.resident_pages(), 3);
    }
}
