//! Typed addresses and page geometry.
//!
//! The paper uses the conventional x86-64 geometry: 4 KB *base pages* and
//! 2 MB *large pages*, so one large page frame holds exactly 512
//! contiguous, aligned base pages. All address manipulation in the
//! workspace goes through the newtypes in this module; raw `u64`s never
//! cross crate boundaries.

use std::fmt;

/// Size of a base page in bytes (4 KB).
pub const BASE_PAGE_SIZE: u64 = 4 * 1024;
/// Size of a large page in bytes (2 MB).
pub const LARGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;
/// Number of base pages per large page frame (512).
pub const BASE_PAGES_PER_LARGE_PAGE: u64 = LARGE_PAGE_SIZE / BASE_PAGE_SIZE;

const BASE_SHIFT: u32 = 12;
const LARGE_SHIFT: u32 = 21;

/// The page size used to translate an address — the fundamental trade-off
/// the paper is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4 KB base page.
    Base,
    /// 2 MB large page.
    Large,
}

impl PageSize {
    /// Size of this page class in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base => BASE_PAGE_SIZE,
            PageSize::Large => LARGE_PAGE_SIZE,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Base => write!(f, "4KB"),
            PageSize::Large => write!(f, "2MB"),
        }
    }
}

/// An address-space identifier — one per application (memory protection
/// domain). The paper extends shared TLB entries with ASIDs so multiple
/// applications can share the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u16);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

macro_rules! addr_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:#x})", stringify!($name), self.0)
            }
        }
    };
}

addr_newtype! {
    /// A byte address in an application's virtual address space.
    VirtAddr
}
addr_newtype! {
    /// A byte address in GPU physical memory.
    PhysAddr
}
addr_newtype! {
    /// A virtual base-page number (virtual address >> 12).
    VirtPageNum
}
addr_newtype! {
    /// A physical base-frame number (physical address >> 12).
    PhysFrameNum
}
addr_newtype! {
    /// A virtual large-page number (virtual address >> 21).
    LargePageNum
}
addr_newtype! {
    /// A physical large-frame number (physical address >> 21): a
    /// contiguous, page-aligned 2 MB region of physical memory.
    LargeFrameNum
}

impl VirtAddr {
    /// The base page containing this address.
    #[inline]
    pub const fn base_page(self) -> VirtPageNum {
        VirtPageNum(self.0 >> BASE_SHIFT)
    }

    /// The large page containing this address.
    #[inline]
    pub const fn large_page(self) -> LargePageNum {
        LargePageNum(self.0 >> LARGE_SHIFT)
    }

    /// Byte offset within the containing base page.
    #[inline]
    pub const fn base_offset(self) -> u64 {
        self.0 & (BASE_PAGE_SIZE - 1)
    }

    /// Byte offset within the containing large page.
    #[inline]
    pub const fn large_offset(self) -> u64 {
        self.0 & (LARGE_PAGE_SIZE - 1)
    }
}

impl VirtPageNum {
    /// First byte address of this page.
    #[inline]
    pub const fn addr(self) -> VirtAddr {
        VirtAddr(self.0 << BASE_SHIFT)
    }

    /// The large page containing this base page.
    #[inline]
    pub const fn large_page(self) -> LargePageNum {
        LargePageNum(self.0 / BASE_PAGES_PER_LARGE_PAGE)
    }

    /// Index of this base page within its large page (`0..512`).
    #[inline]
    pub const fn index_in_large(self) -> u64 {
        self.0 % BASE_PAGES_PER_LARGE_PAGE
    }
}

impl LargePageNum {
    /// First byte address of this large page.
    #[inline]
    pub const fn addr(self) -> VirtAddr {
        VirtAddr(self.0 << LARGE_SHIFT)
    }

    /// The `i`-th base page within this large page.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i >= 512`.
    #[inline]
    pub fn base_page(self, i: u64) -> VirtPageNum {
        debug_assert!(i < BASE_PAGES_PER_LARGE_PAGE);
        VirtPageNum(self.0 * BASE_PAGES_PER_LARGE_PAGE + i)
    }

    /// Iterates over all 512 base pages of this large page.
    pub fn base_pages(self) -> impl DoubleEndedIterator<Item = VirtPageNum> {
        let first = self.0 * BASE_PAGES_PER_LARGE_PAGE;
        (first..first + BASE_PAGES_PER_LARGE_PAGE).map(VirtPageNum)
    }
}

impl PhysAddr {
    /// The physical base frame containing this address.
    #[inline]
    pub const fn base_frame(self) -> PhysFrameNum {
        PhysFrameNum(self.0 >> BASE_SHIFT)
    }

    /// The physical large frame containing this address.
    #[inline]
    pub const fn large_frame(self) -> LargeFrameNum {
        LargeFrameNum(self.0 >> LARGE_SHIFT)
    }
}

impl PhysFrameNum {
    /// First byte address of this frame.
    #[inline]
    pub const fn addr(self) -> PhysAddr {
        PhysAddr(self.0 << BASE_SHIFT)
    }

    /// The large frame containing this base frame.
    #[inline]
    pub const fn large_frame(self) -> LargeFrameNum {
        LargeFrameNum(self.0 / BASE_PAGES_PER_LARGE_PAGE)
    }

    /// Index of this base frame within its large frame (`0..512`).
    #[inline]
    pub const fn index_in_large(self) -> u64 {
        self.0 % BASE_PAGES_PER_LARGE_PAGE
    }
}

impl LargeFrameNum {
    /// First byte address of this large frame.
    #[inline]
    pub const fn addr(self) -> PhysAddr {
        PhysAddr(self.0 << LARGE_SHIFT)
    }

    /// The `i`-th base frame within this large frame.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i >= 512`.
    #[inline]
    pub fn base_frame(self, i: u64) -> PhysFrameNum {
        debug_assert!(i < BASE_PAGES_PER_LARGE_PAGE);
        PhysFrameNum(self.0 * BASE_PAGES_PER_LARGE_PAGE + i)
    }

    /// Iterates over all 512 base frames of this large frame.
    pub fn base_frames(self) -> impl DoubleEndedIterator<Item = PhysFrameNum> {
        let first = self.0 * BASE_PAGES_PER_LARGE_PAGE;
        (first..first + BASE_PAGES_PER_LARGE_PAGE).map(PhysFrameNum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_agree() {
        assert_eq!(BASE_PAGE_SIZE, 1 << BASE_SHIFT);
        assert_eq!(LARGE_PAGE_SIZE, 1 << LARGE_SHIFT);
        assert_eq!(BASE_PAGES_PER_LARGE_PAGE, 512);
    }

    #[test]
    fn virt_addr_decomposition() {
        let a = VirtAddr(0x40_1234);
        assert_eq!(a.base_page(), VirtPageNum(0x401));
        assert_eq!(a.base_offset(), 0x234);
        assert_eq!(a.large_page(), LargePageNum(0x2));
        assert_eq!(a.large_offset(), 0x40_1234 & (LARGE_PAGE_SIZE - 1));
    }

    #[test]
    fn page_round_trip() {
        let p = VirtPageNum(12345);
        assert_eq!(p.addr().base_page(), p);
        let f = PhysFrameNum(999);
        assert_eq!(f.addr().base_frame(), f);
    }

    #[test]
    fn base_to_large_containment() {
        let lp = LargePageNum(7);
        for i in [0u64, 1, 511] {
            let bp = lp.base_page(i);
            assert_eq!(bp.large_page(), lp);
            assert_eq!(bp.index_in_large(), i);
        }
    }

    #[test]
    fn large_page_iterates_512_children() {
        let lp = LargePageNum(3);
        let pages: Vec<_> = lp.base_pages().collect();
        assert_eq!(pages.len(), 512);
        assert_eq!(pages[0], lp.base_page(0));
        assert_eq!(pages[511], lp.base_page(511));
        assert!(pages.iter().all(|p| p.large_page() == lp));
    }

    #[test]
    fn phys_frame_containment_mirrors_virtual() {
        let lf = LargeFrameNum(2);
        let frames: Vec<_> = lf.base_frames().collect();
        assert_eq!(frames.len(), 512);
        assert!(frames.iter().all(|f| f.large_frame() == lf));
        assert_eq!(lf.addr().large_frame(), lf);
    }

    #[test]
    fn page_size_bytes() {
        assert_eq!(PageSize::Base.bytes(), 4096);
        assert_eq!(PageSize::Large.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Base.to_string(), "4KB");
        assert_eq!(PageSize::Large.to_string(), "2MB");
    }
}
