use reno_isa::Program;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Page granularity of [`Memory::delta_from`] / [`Memory::apply_page`].
pub const PAGE_BYTES: usize = PAGE_SIZE;

/// Sparse, byte-addressed, little-endian memory.
///
/// Pages are allocated on first touch; reads of untouched memory return zero.
/// Unaligned accesses are permitted (they are assembled a byte at a time).
///
/// Pages are copy-on-write: a clone shares every page with its original
/// under a reference count, so cloning costs one page-table copy (plus the
/// dirty set), not one 4 KiB copy per resident page. The first write to a
/// shared page copies that page alone. Clones are fully independent
/// machines — writes, dirty tracking and deltas never leak between them.
///
/// ```
/// use reno_func::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0, "untouched memory reads zero");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Arc<[u8; PAGE_SIZE]>>,
    /// Pages written since the last [`Memory::clear_dirty`] — the write
    /// paths maintain this natively so checkpointing engines get the dirty
    /// set without instrumenting the instruction stream.
    dirty: HashSet<u64>,
    /// Memo of the last dirtied page, stored as `page + 1` (0 = none), so
    /// the common stream of same-page stores costs one compare.
    dirty_memo: u64,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// `program`'s initial memory image: its data segments loaded, the
    /// dirty set empty. [`crate::Cpu::from_image`] starts a machine from a
    /// copy-on-write clone of it, so machines of one program built from
    /// one image share every page none of them has written.
    pub fn image_of(program: &Program) -> Memory {
        let mut mem = Memory::new();
        for seg in &program.data {
            mem.write_bytes(seg.addr, &seg.bytes);
        }
        // Dirty tracking measures writes *since the initial image*: loading
        // the program's own data segments does not count.
        mem.clear_dirty();
        mem
    }

    #[inline]
    fn mark_dirty(&mut self, pno: u64) {
        if self.dirty_memo != pno.wrapping_add(1) {
            self.dirty_memo = pno.wrapping_add(1);
            self.dirty.insert(pno);
        }
    }

    /// The pages written since the last [`Memory::clear_dirty`] (or since
    /// construction), sorted and deduplicated — a superset of the pages
    /// whose contents differ from that point's image, suitable for
    /// [`crate::Checkpoint::take_with_dirty_pages`].
    pub fn dirty_pages_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.dirty.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of pages currently tracked as dirty.
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.len()
    }

    /// Resets dirty-page tracking (e.g. right after loading a program's
    /// initial image, so the tracked set is a delta against that image).
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
        self.dirty_memo = 0;
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The writable page `pno`: allocated zeroed on first touch, copied
    /// first if a clone still shares it.
    #[inline]
    fn page_mut(&mut self, pno: u64) -> &mut [u8; PAGE_SIZE] {
        self.mark_dirty(pno);
        Arc::make_mut(
            self.pages
                .entry(pno)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE])),
        )
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads `n <= 8` bytes little-endian into a `u64`.
    #[inline]
    pub fn read_le(&self, addr: u64, n: u64) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr & PAGE_MASK) as usize;
        // Fast path: the access stays inside one page — a single page
        // lookup instead of one per byte (this is the simulator's
        // load/store hot path).
        if off + n as usize <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => {
                    let mut v = 0u64;
                    for (i, b) in p[off..off + n as usize].iter().enumerate() {
                        v |= (*b as u64) << (8 * i);
                    }
                    v
                }
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in 0..n {
                v |= (self.read_u8(addr + i) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes the low `n <= 8` bytes of `val` little-endian.
    #[inline]
    pub fn write_le(&mut self, addr: u64, n: u64, val: u64) {
        debug_assert!(n <= 8);
        let off = (addr & PAGE_MASK) as usize;
        if off + n as usize <= PAGE_SIZE {
            let page = self.page_mut(addr >> PAGE_SHIFT);
            for (i, b) in page[off..off + n as usize].iter_mut().enumerate() {
                *b = (val >> (8 * i)) as u8;
            }
        } else {
            for i in 0..n {
                self.write_u8(addr + i, (val >> (8 * i)) as u8);
            }
        }
    }

    /// Reads a 64-bit little-endian word.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_le(addr, 8, val)
    }

    /// Copies a byte slice into memory at `addr`, page-chunked (loading a
    /// megabyte data segment or restoring a checkpoint page is a handful of
    /// `memcpy`s, not a per-byte walk).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(addr >> PAGE_SHIFT)[off..off + n].copy_from_slice(&rest[..n]);
            addr += n as u64;
            rest = &rest[n..];
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr + i as u64)).collect()
    }

    /// The pages whose *contents* differ from `base`, as sorted
    /// `(page_number, PAGE_BYTES bytes)` records — the delta a checkpoint
    /// stores against a program's initial memory image.
    ///
    /// Residency is irrelevant: an untouched page reads as zeros on either
    /// side, so only byte content participates in the comparison. Applying
    /// the delta to a copy of `base` with [`Memory::apply_page`] reproduces
    /// this memory's architectural content exactly.
    pub fn delta_from(&self, base: &Memory) -> Vec<(u64, Vec<u8>)> {
        let mut pages: Vec<u64> = self
            .pages
            .keys()
            .chain(base.pages.keys())
            .copied()
            .collect();
        pages.sort_unstable();
        pages.dedup();
        const ZEROS: [u8; PAGE_SIZE] = [0u8; PAGE_SIZE];
        let mut out = Vec::new();
        for pno in pages {
            let (ours, theirs) = (self.pages.get(&pno), base.pages.get(&pno));
            if let (Some(a), Some(b)) = (ours, theirs) {
                if Arc::ptr_eq(a, b) {
                    continue; // still shared with `base`: identical by construction
                }
            }
            let ours: &[u8] = ours.map_or(&ZEROS, |p| &p[..]);
            let theirs: &[u8] = theirs.map_or(&ZEROS, |p| &p[..]);
            if ours != theirs {
                out.push((pno, ours.to_vec()));
            }
        }
        out
    }

    /// One page's full contents (zeros when untouched).
    pub(crate) fn page_contents(&self, page_number: u64) -> Vec<u8> {
        match self.pages.get(&page_number) {
            Some(p) => p.to_vec(),
            None => vec![0u8; PAGE_SIZE],
        }
    }

    /// Number of pages resident in both `self` and `other` that hold one
    /// shared allocation.
    #[cfg(test)]
    pub(crate) fn shared_pages(&self, other: &Memory) -> usize {
        self.pages
            .iter()
            .filter(|(pno, p)| other.pages.get(pno).is_some_and(|q| Arc::ptr_eq(p, q)))
            .count()
    }

    /// Overwrites one whole page with `bytes` (see [`PAGE_BYTES`]),
    /// installing a fresh page: a page this memory shares with a clone is
    /// replaced here, never copied and then overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly [`PAGE_BYTES`] long.
    pub fn apply_page(&mut self, page_number: u64, bytes: &[u8]) {
        assert_eq!(bytes.len(), PAGE_SIZE, "a page delta is a whole page");
        let mut page = [0u8; PAGE_SIZE];
        page.copy_from_slice(bytes);
        self.mark_dirty(page_number);
        self.pages.insert(page_number, Arc::new(page));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u64(0xffff_ffff_0000), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = Memory::new();
        m.write_le(100, 4, 0x0403_0201);
        assert_eq!(m.read_u8(100), 1);
        assert_eq!(m.read_u8(103), 4);
        assert_eq!(m.read_le(100, 4), 0x0403_0201);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u64 - 3; // straddles the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn partial_width_write_preserves_neighbors() {
        let mut m = Memory::new();
        m.write_u64(0, u64::MAX);
        m.write_le(2, 2, 0);
        assert_eq!(m.read_u64(0), 0xffff_ffff_0000_ffff);
    }

    #[test]
    fn bulk_bytes() {
        let mut m = Memory::new();
        m.write_bytes(5000, &[9, 8, 7]);
        assert_eq!(m.read_bytes(5000, 3), vec![9, 8, 7]);
    }

    #[test]
    fn delta_tracks_content_not_residency() {
        let mut base = Memory::new();
        base.write_u64(0x1000, 77);
        let mut m = base.clone();
        m.read_u8(0x9000); // reads never create pages
        assert!(m.delta_from(&base).is_empty(), "identical content");
        m.write_u64(0x1000, 78); // change an existing page
        m.write_u64(0x5008, 99); // touch a new page
        m.write_u64(0x7000, 0); // new page, still all zeros: no delta
        let delta = m.delta_from(&base);
        assert_eq!(
            delta.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![0x1, 0x5],
            "only content-changed pages, sorted"
        );
    }

    #[test]
    fn dirty_tracking_covers_every_write_path() {
        let mut m = Memory::new();
        m.write_u8(0x1001, 7);
        m.write_le(0x2ffe, 4, 0xaabb_ccdd); // straddles pages 2 and 3
        m.write_bytes(0x5000, &[1, 2, 3]);
        m.write_u8(0x1002, 8); // same page as the first write: memoized
        assert_eq!(m.dirty_pages_sorted(), vec![0x1, 0x2, 0x3, 0x5]);
        assert_eq!(m.dirty_page_count(), 4);
        m.clear_dirty();
        assert!(m.dirty_pages_sorted().is_empty());
        m.write_u8(0x1003, 9); // re-dirties after the clear, despite the memo
        assert_eq!(m.dirty_pages_sorted(), vec![0x1]);
    }

    #[test]
    fn delta_round_trips_through_apply() {
        let mut base = Memory::new();
        base.write_bytes(0x2000, &[1, 2, 3, 4]);
        let mut m = base.clone();
        m.write_u64(0x2000, u64::MAX);
        m.write_u64(0xabc0, 0x5a5a);
        let mut restored = base.clone();
        for (pno, bytes) in m.delta_from(&base) {
            restored.apply_page(pno, &bytes);
        }
        assert_eq!(restored.read_u64(0x2000), u64::MAX);
        assert_eq!(restored.read_u64(0xabc0), 0x5a5a);
        assert!(restored.delta_from(&m).is_empty());
    }

    /// Pages `a` and `b` hold the same allocation.
    fn shares(a: &Memory, b: &Memory, pno: u64) -> bool {
        Arc::ptr_eq(&a.pages[&pno], &b.pages[&pno])
    }

    #[test]
    fn clone_writes_never_leak_either_way() {
        let mut orig = Memory::new();
        orig.write_u64(0x1000, 1);
        orig.write_u64(0x2000, 2);
        let mut copy = orig.clone();
        assert!(shares(&orig, &copy, 1) && shares(&orig, &copy, 2));

        copy.write_u64(0x1000, 10); // copy-side write to a shared page
        assert_eq!(orig.read_u64(0x1000), 1, "the clone's write stays out");
        assert_eq!(copy.read_u64(0x1000), 10);
        assert!(!shares(&orig, &copy, 1), "the written page was copied");
        assert!(
            shares(&orig, &copy, 2),
            "the untouched page is still shared"
        );

        orig.write_u64(0x2008, 20); // original-side write to a shared page
        assert_eq!(copy.read_u64(0x2008), 0, "the original's write stays out");
        assert_eq!(orig.read_u64(0x2008), 20);
        assert_eq!(copy.read_u64(0x2000), 2, "the rest of the page survives");

        copy.write_bytes(0x2ffe, &[7, 7, 7, 7]); // straddles pages 2 and 3
        assert_eq!(orig.read_bytes(0x2ffe, 4), vec![0, 0, 0, 0]);
        assert_eq!(orig.resident_pages(), 2, "no page appears in the original");
        assert_eq!(copy.resident_pages(), 3);
    }

    #[test]
    fn dirty_tracking_is_independent_per_clone() {
        let mut orig = Memory::new();
        orig.write_u64(0x1000, 1);
        orig.clear_dirty();
        let mut copy = orig.clone();
        copy.write_u8(0x1001, 5);
        assert_eq!(copy.dirty_pages_sorted(), vec![0x1]);
        assert!(orig.dirty_pages_sorted().is_empty(), "no dirt leaks back");

        orig.write_u8(0x4000, 9);
        assert_eq!(orig.dirty_pages_sorted(), vec![0x4]);
        assert_eq!(copy.dirty_pages_sorted(), vec![0x1], "nor forward");

        // A clone starts from its original's dirty set, then diverges.
        let mut copy2 = orig.clone();
        assert_eq!(copy2.dirty_pages_sorted(), vec![0x4]);
        copy2.clear_dirty();
        orig.write_u8(0x4001, 1);
        assert_eq!(orig.dirty_pages_sorted(), vec![0x4]);
        assert!(copy2.dirty_pages_sorted().is_empty());
        copy2.write_u8(0x4002, 2);
        assert_eq!(copy2.dirty_pages_sorted(), vec![0x4]);
    }

    #[test]
    fn delta_of_a_sharing_clone_is_empty() {
        let mut base = Memory::new();
        for pno in 0..8u64 {
            base.write_u64(pno << PAGE_SHIFT, pno + 1);
        }
        let mut copy = base.clone();
        assert!(copy.delta_from(&base).is_empty());
        assert!(base.delta_from(&copy).is_empty());
        copy.write_u64(0x3000, 4); // same value: copied, content unchanged
        assert!(!shares(&base, &copy, 3));
        assert!(copy.delta_from(&base).is_empty(), "content, not sharing");
        copy.write_u64(0x3008, 1);
        assert_eq!(
            copy.delta_from(&base)
                .iter()
                .map(|(p, _)| *p)
                .collect::<Vec<_>>(),
            vec![3]
        );
    }

    #[test]
    fn apply_page_on_a_shared_page_leaves_the_base_untouched() {
        let mut base = Memory::new();
        base.write_bytes(0x5000, &[1, 2, 3]);
        base.clear_dirty();
        let mut copy = base.clone();
        let page = vec![0xab; PAGE_BYTES];
        copy.apply_page(5, &page);
        assert_eq!(base.read_bytes(0x5000, 3), vec![1, 2, 3]);
        assert_eq!(copy.read_bytes(0x5000, 3), vec![0xab; 3]);
        assert_eq!(copy.dirty_pages_sorted(), vec![5], "apply_page dirties");
        assert!(base.dirty_pages_sorted().is_empty());
        assert_eq!(copy.delta_from(&base), vec![(5, page)]);
    }
}
