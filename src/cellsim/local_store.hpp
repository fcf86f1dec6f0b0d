// local_store.hpp — the SPE's 256 KB local store and its allocator.
//
// Each simulated SPE owns one LocalStore: a genuine 256 KB byte arena.  All
// SPE-visible data lives inside it, addressed by 32-bit local-store offsets
// (LsAddr), exactly as on hardware.  Bounds are checked on every access.
//
// LsAllocator provides the "linker + runtime" view of the store: code, stack
// and data segments are charged against the 256 KB, so the footprint
// experiment (paper §V: cellpilot.o = 10 336 B vs libdacs.a = 36 600 B) is a
// property of real accounting, not a constant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cellsim/errors.hpp"

namespace cellsim {

/// A local-store address: byte offset within one SPE's 256 KB store.
using LsAddr = std::uint32_t;

/// Size of every SPE local store, fixed by the architecture.
inline constexpr std::size_t kLocalStoreSize = 256 * 1024;

/// One SPE's local store: a bounds-checked 256 KB byte arena.
class LocalStore {
 public:
  LocalStore();

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

  /// Capacity in bytes (always kLocalStoreSize).
  std::size_t size() const { return kLocalStoreSize; }

  /// Host pointer to the beginning of the store.  This is the simulated
  /// analogue of libspe2's spe_ls_area_get(): the PPE sees local store
  /// memory-mapped into the effective-address space.
  std::byte* base() { return data_.get(); }
  const std::byte* base() const { return data_.get(); }

  /// Host pointer to `addr`, validated for an access of `len` bytes.
  /// Throws LocalStoreFault when [addr, addr+len) leaves the store.
  std::byte* at(LsAddr addr, std::size_t len);
  const std::byte* at(LsAddr addr, std::size_t len) const;

  /// Copies host memory into the store (PPE-side mapped write or DMA get).
  void write(LsAddr addr, const void* src, std::size_t len);

  /// Copies store contents out to host memory (mapped read or DMA put).
  void read(LsAddr addr, void* dst, std::size_t len) const;

  /// Fills the whole store with a byte pattern (test helper; real local
  /// store powers up with undefined contents).
  void fill(std::byte value);

 private:
  void check(LsAddr addr, std::size_t len) const;

  /// Returns the store's pages to the host.
  struct Unmap {
    void operator()(std::byte* base) const;
  };
  /// Anonymous pages that the host zero-fills on first touch: a program
  /// touches a few KB of its store, so building a blade's sixteen stores
  /// costs no up-front 4 MB memset.
  std::unique_ptr<std::byte, Unmap> data_;
};

/// First-fit allocator over a LocalStore, modelling the SPE linker/runtime
/// memory map.  Static segments (code, runtime, stack) are reserved once;
/// buffers are allocated and freed dynamically.  Exhaustion throws
/// LocalStoreFault — the fault every Cell programmer knows.
class LsAllocator {
 public:
  /// Manages [0, store_size) of a local store.
  explicit LsAllocator(std::size_t store_size = kLocalStoreSize);

  /// Permanently reserves `len` bytes for a named static segment
  /// (e.g. "text:spe_program", "stack").  Returns the segment base.
  LsAddr reserve_segment(const std::string& name, std::size_t len,
                         std::size_t align = 16);

  /// Allocates `len` bytes aligned to `align` (power of two, default
  /// quad-word as DMA prefers).  Throws LocalStoreFault when full.
  LsAddr allocate(std::size_t len, std::size_t align = 16);

  /// Frees a block returned by allocate().  Throws LocalStoreFault on a
  /// pointer that was never allocated (double free / wild free).
  void deallocate(LsAddr addr);

  /// Bytes currently in use (segments + live allocations, incl. padding).
  std::size_t used() const;

  /// Bytes still allocatable in the largest free block.
  std::size_t largest_free_block() const;

  /// Total bytes reserved by named segments.
  std::size_t segment_bytes() const { return segment_bytes_; }

  /// Forgets every allocation and segment, returning the store to its
  /// power-on state.  Used when a new program image is loaded onto an SPE
  /// (the load overwrites whatever was resident).
  void reset();

  /// Names and sizes of reserved segments, in reservation order.
  struct Segment {
    std::string name;
    LsAddr base;
    std::size_t size;
  };
  const std::vector<Segment>& segments() const { return segments_; }

 private:
  struct Block {
    LsAddr base;
    std::size_t size;
    bool free;
  };

  void coalesce();

  std::size_t store_size_;
  std::vector<Block> blocks_;        // sorted by base, covers whole store
  std::vector<Segment> segments_;
  std::size_t segment_bytes_ = 0;
};

}  // namespace cellsim
