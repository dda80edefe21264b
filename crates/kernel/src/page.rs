//! Process ids, page keys and page state.

use serde::{Deserialize, Serialize};

/// Size of an OS page in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 4096;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid#{}", self.0)
    }
}

/// A page of a process's address space, identified by `(pid, page index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageKey {
    /// Owning process.
    pub pid: Pid,
    /// Page index: virtual address divided by [`PAGE_SIZE`].
    pub index: u64,
}

impl PageKey {
    /// The page covering `addr` in process `pid`.
    pub fn of_addr(pid: Pid, addr: u64) -> Self {
        PageKey { pid, index: addr / PAGE_SIZE }
    }
}

/// Where a mapped page currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageState {
    /// In a DRAM frame.
    Resident,
    /// Not in DRAM: anonymous pages sit in the swap partition, file-backed
    /// pages were simply dropped (their backing file is the copy).
    Swapped,
}

/// What backs a page. The distinction drives both eviction cost (file pages
/// are dropped for free, anonymous pages need a swap slot) and fault cost
/// (file reads stream at full flash bandwidth with readahead; swap-ins crawl
/// at the paper's measured 20.3 MB/s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageKind {
    /// Anonymous memory (Java heap, malloc, graphics buffers).
    Anon,
    /// File-backed memory (code, resources, mmapped assets).
    File,
}

/// Iterates the page indices spanned by `[base, base + len)`.
///
/// Returns an empty iterator when `len == 0`.
pub fn pages_in_range(base: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = base / PAGE_SIZE;
    let last = if len == 0 { first } else { (base + len - 1) / PAGE_SIZE + 1 };
    let end = if len == 0 { first } else { last };
    first..end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_key_of_addr() {
        let k = PageKey::of_addr(Pid(3), 8192 + 17);
        assert_eq!(k.index, 2);
        assert_eq!(k.pid, Pid(3));
    }

    #[test]
    fn range_iteration() {
        assert_eq!(pages_in_range(0, 4096).collect::<Vec<_>>(), vec![0]);
        assert_eq!(pages_in_range(0, 4097).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(pages_in_range(4095, 2).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(pages_in_range(100, 0).count(), 0);
        assert_eq!(pages_in_range(8192, 8192).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn display() {
        assert_eq!(Pid(7).to_string(), "pid#7");
    }
}
