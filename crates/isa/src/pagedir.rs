//! A two-level page directory: per-page state of the 32-bit address
//! space, found by two array indexings.
//!
//! The functional passes look up a page on every retired memory access:
//! the memory image, the last-writer table and the per-line locality
//! counters all keep one record per 4 KiB page. A page index has 20
//! bits; the directory splits it into a 10-bit table number and a
//! 10-bit slot. The root holds 1024 optional tables and each table 1024
//! optional pages, so a lookup is two dependent loads with no hashing
//! and no probing. A table costs 8 KiB and covers 4 MiB of address
//! space: a program touching a data segment and a stack pays for two or
//! three.

/// Bits of a page index taken by each level.
const LEVEL_BITS: u32 = 10;
/// Entries per level.
const FAN: usize = 1 << LEVEL_BITS;

/// One second-level table: the pages of a 4 MiB region.
type Table<T> = [Option<Box<T>>; FAN];

/// A map from page index (`addr >> 12`, below 2^20) to a boxed `T`,
/// allocated on first touch.
#[derive(Clone)]
pub(crate) struct PageDir<T> {
    root: Box<[Option<Box<Table<T>>>; FAN]>,
    resident: usize,
}

/// A boxed array of `FAN` empty slots, built on the heap.
fn empty<S>() -> Box<[Option<S>; FAN]> {
    let slots: Box<[Option<S>]> = std::iter::repeat_with(|| None).take(FAN).collect();
    slots.try_into().unwrap_or_else(|_| unreachable!("FAN slots collected"))
}

impl<T> Default for PageDir<T> {
    fn default() -> PageDir<T> {
        PageDir { root: empty(), resident: 0 }
    }
}

impl<T> PageDir<T> {
    /// The page at `page`, if resident.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not below 2^20.
    #[inline]
    pub(crate) fn get(&self, page: u32) -> Option<&T> {
        let table = self.root[(page >> LEVEL_BITS) as usize].as_deref()?;
        table[page as usize & (FAN - 1)].as_deref()
    }

    /// The page at `page`, allocated with `new` on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not below 2^20.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, page: u32, new: impl FnOnce() -> Box<T>) -> &mut T {
        let table = self.root[(page >> LEVEL_BITS) as usize].get_or_insert_with(empty);
        let slot = &mut table[page as usize & (FAN - 1)];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(new)
    }

    /// Number of resident pages.
    pub(crate) fn len(&self) -> usize {
        self.resident
    }

    /// Every resident page as `(page index, page)`, ascending by index.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.root.iter().enumerate().filter_map(|(hi, t)| Some((hi, t.as_deref()?))).flat_map(
            |(hi, table)| {
                table.iter().enumerate().filter_map(move |(lo, p)| {
                    Some((((hi << LEVEL_BITS) | lo) as u32, p.as_deref()?))
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_resolve_across_table_boundaries_in_index_order() {
        let mut dir: PageDir<u32> = PageDir::default();
        // Both ends of the index space and both sides of the boundary
        // between the first two tables, inserted out of order.
        let pages = [0xF_FFFF, 0x400, 0, 0x3FF, 0x401, 0x7_FC00];
        for (n, &page) in pages.iter().enumerate() {
            *dir.get_or_insert_with(page, || Box::new(0)) = page + 1;
            assert_eq!(dir.len(), n + 1);
        }
        // A second touch finds the page instead of allocating another.
        *dir.get_or_insert_with(0x400, || Box::new(0)) += 10;
        assert_eq!(dir.len(), pages.len());
        assert_eq!(dir.get(0x400), Some(&0x40B));
        assert_eq!(dir.get(0x3FF), Some(&0x400));
        for absent in [1, 0x402, 0xF_FFFE, 0x7_FBFF] {
            assert_eq!(dir.get(absent), None, "{absent:#x}");
        }
        let mut sorted = pages;
        sorted.sort_unstable();
        assert_eq!(dir.iter().map(|(i, _)| i).collect::<Vec<_>>(), sorted);
        assert!(dir.iter().all(|(i, &v)| v == i + 1 + if i == 0x400 { 10 } else { 0 }));
    }
}
