//! Device-memory capacity accounting.
//!
//! The defining constraint of the paper's problem statement is that *device
//! memory is small*: engines that must hold the whole graph on the GPU
//! (CuSha, MapGraph) fail with out-of-memory on large graphs, TOTEM caps
//! its GPU partition, and GTS sizes WABuf/RABuf/SPBuf/LPBuf plus an
//! optional page cache against what is left. [`DeviceMemory`] enforces that
//! constraint: allocations are RAII-tracked and over-subscription fails
//! with [`GpuOom`] exactly as `cudaMalloc` would.

use std::fmt;
use std::sync::{Arc, Mutex};

/// Out-of-device-memory error (the experiments' `O.O.M.` cells).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuOom {
    /// Bytes the failed allocation asked for.
    pub requested: u64,
    /// Bytes that were still free.
    pub available: u64,
    /// Total device capacity.
    pub capacity: u64,
    /// What the allocation was for (diagnostics, e.g. `"WABuf"`).
    pub label: &'static str,
}

impl fmt::Display for GpuOom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GPU out of memory allocating {} ({} B requested, {} B free of {} B)",
            self.label, self.requested, self.available, self.capacity
        )
    }
}

impl std::error::Error for GpuOom {}

#[derive(Debug)]
struct Inner {
    capacity: u64,
    used: Mutex<u64>,
}

/// One GPU's device-memory pool.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    inner: Arc<Inner>,
}

impl DeviceMemory {
    /// A pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            inner: Arc::new(Inner {
                capacity,
                used: Mutex::new(0),
            }),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        *self.inner.used.lock().unwrap()
    }

    /// Bytes currently free.
    pub fn free(&self) -> u64 {
        self.inner.capacity - self.used()
    }

    /// Allocate `bytes`, failing with [`GpuOom`] if they do not fit. The
    /// returned guard releases the bytes on drop.
    pub fn alloc(&self, bytes: u64, label: &'static str) -> Result<DeviceAlloc, GpuOom> {
        let mut used = self.inner.used.lock().unwrap();
        let available = self.inner.capacity - *used;
        if bytes > available {
            return Err(GpuOom {
                requested: bytes,
                available,
                capacity: self.inner.capacity,
                label,
            });
        }
        *used += bytes;
        Ok(DeviceAlloc {
            mem: self.inner.clone(),
            bytes,
            label,
        })
    }
}

/// RAII guard for a device-memory allocation.
#[derive(Debug)]
pub struct DeviceAlloc {
    mem: Arc<Inner>,
    bytes: u64,
    label: &'static str,
}

impl DeviceAlloc {
    /// Size of this allocation in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Diagnostic label.
    pub fn label(&self) -> &'static str {
        self.label
    }
}

impl Drop for DeviceAlloc {
    fn drop(&mut self) {
        *self.mem.used.lock().unwrap() -= self.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_release() {
        let mem = DeviceMemory::new(1000);
        let a = mem.alloc(400, "WABuf").unwrap();
        assert_eq!(mem.used(), 400);
        assert_eq!(mem.free(), 600);
        let b = mem.alloc(600, "SPBuf").unwrap();
        assert_eq!(mem.free(), 0);
        drop(a);
        assert_eq!(mem.free(), 400);
        drop(b);
        assert_eq!(mem.used(), 0);
    }

    #[test]
    fn oversubscription_fails_with_diagnostics() {
        let mem = DeviceMemory::new(1000);
        let _a = mem.alloc(900, "WABuf").unwrap();
        let err = mem.alloc(200, "cache").unwrap_err();
        assert_eq!(err.requested, 200);
        assert_eq!(err.available, 100);
        assert_eq!(err.capacity, 1000);
        assert_eq!(err.label, "cache");
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn failed_alloc_leaves_accounting_unchanged() {
        let mem = DeviceMemory::new(100);
        assert!(mem.alloc(101, "x").is_err());
        assert_eq!(mem.used(), 0);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mem = DeviceMemory::new(64);
        let a = mem.alloc(64, "all").unwrap();
        assert_eq!(mem.free(), 0);
        drop(a);
        assert_eq!(mem.free(), 64);
    }
}
