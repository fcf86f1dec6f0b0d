#include "cellsim/local_store.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace cellsim {

namespace {

std::byte* map_zeroed_store() {
  void* base = mmap(nullptr, kLocalStoreSize, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(base);
}

}  // namespace

LocalStore::LocalStore() : data_(map_zeroed_store()) {}

void LocalStore::Unmap::operator()(std::byte* base) const {
  munmap(base, kLocalStoreSize);
}

void LocalStore::check(LsAddr addr, std::size_t len) const {
  if (addr > kLocalStoreSize || len > kLocalStoreSize - addr) {
    throw LocalStoreFault("local store access out of range: addr=" +
                          std::to_string(addr) + " len=" + std::to_string(len) +
                          " (store is " + std::to_string(kLocalStoreSize) +
                          " B)");
  }
}

std::byte* LocalStore::at(LsAddr addr, std::size_t len) {
  check(addr, len);
  return data_.get() + addr;
}

const std::byte* LocalStore::at(LsAddr addr, std::size_t len) const {
  check(addr, len);
  return data_.get() + addr;
}

void LocalStore::write(LsAddr addr, const void* src, std::size_t len) {
  std::memcpy(at(addr, len), src, len);
}

void LocalStore::read(LsAddr addr, void* dst, std::size_t len) const {
  std::memcpy(dst, at(addr, len), len);
}

void LocalStore::fill(std::byte value) {
  std::fill(data_.get(), data_.get() + kLocalStoreSize, value);
}

namespace {

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::size_t align_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

LsAllocator::LsAllocator(std::size_t store_size) : store_size_(store_size) {
  blocks_.push_back(Block{0, store_size_, /*free=*/true});
}

LsAddr LsAllocator::reserve_segment(const std::string& name, std::size_t len,
                                    std::size_t align) {
  const LsAddr base = allocate(len, align);
  segments_.push_back(Segment{name, base, len});
  segment_bytes_ += len;
  return base;
}

LsAddr LsAllocator::allocate(std::size_t len, std::size_t align) {
  if (len == 0) {
    throw LocalStoreFault("LsAllocator: zero-length allocation");
  }
  if (!is_pow2(align)) {
    throw LocalStoreFault("LsAllocator: alignment must be a power of two");
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    Block& b = blocks_[i];
    if (!b.free) continue;
    const std::size_t aligned = align_up(b.base, align);
    const std::size_t pad = aligned - b.base;
    if (b.size < pad + len) continue;

    // Split off leading pad (kept free) and trailing remainder.
    std::vector<Block> pieces;
    if (pad > 0) pieces.push_back(Block{b.base, pad, true});
    pieces.push_back(Block{static_cast<LsAddr>(aligned), len, false});
    if (b.size > pad + len) {
      pieces.push_back(Block{static_cast<LsAddr>(aligned + len),
                             b.size - pad - len, true});
    }
    blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
    blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(i),
                   pieces.begin(), pieces.end());
    return static_cast<LsAddr>(aligned);
  }
  throw LocalStoreFault(
      "SPE local store exhausted: requested " + std::to_string(len) +
      " B (align " + std::to_string(align) + "), largest free block is " +
      std::to_string(largest_free_block()) + " B of " +
      std::to_string(store_size_) + " B total");
}

void LsAllocator::deallocate(LsAddr addr) {
  for (Block& b : blocks_) {
    if (b.base == addr && !b.free) {
      b.free = true;
      coalesce();
      return;
    }
  }
  throw LocalStoreFault("LsAllocator: deallocate of address " +
                        std::to_string(addr) + " that is not allocated");
}

void LsAllocator::coalesce() {
  for (std::size_t i = 0; i + 1 < blocks_.size();) {
    if (blocks_[i].free && blocks_[i + 1].free) {
      blocks_[i].size += blocks_[i + 1].size;
      blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    } else {
      ++i;
    }
  }
}

void LsAllocator::reset() {
  blocks_.clear();
  blocks_.push_back(Block{0, store_size_, /*free=*/true});
  segments_.clear();
  segment_bytes_ = 0;
}

std::size_t LsAllocator::used() const {
  std::size_t n = 0;
  for (const Block& b : blocks_) {
    if (!b.free) n += b.size;
  }
  return n;
}

std::size_t LsAllocator::largest_free_block() const {
  std::size_t n = 0;
  for (const Block& b : blocks_) {
    if (b.free) n = std::max(n, b.size);
  }
  return n;
}

}  // namespace cellsim
