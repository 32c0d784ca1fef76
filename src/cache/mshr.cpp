#include "cache/mshr.hpp"

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::cache {

MshrFile::MshrFile(std::uint32_t entries) {
  MEMSCHED_ASSERT(entries > 0, "MSHR file needs at least one entry");
  entries_.resize(entries);
}

MshrEntry* MshrFile::find(Addr line_addr) {
  for (MshrEntry& e : entries_) {
    if (e.valid && e.line_addr == line_addr) return &e;
  }
  return nullptr;
}

MshrEntry* MshrFile::allocate(Addr line_addr, CoreId requester) {
  if (full() || find(line_addr) != nullptr) return nullptr;
  for (MshrEntry& e : entries_) {
    if (!e.valid) {
      e.valid = true;
      e.dispatched = false;
      e.prefetch = false;
      e.line_addr = line_addr;
      e.requester = requester;
      e.waiters.clear();
      ++used_;
      ++undispatched_;
      ++allocations_;
      return &e;
    }
  }
  return nullptr;  // unreachable: full() was false
}

bool MshrFile::release(Addr line_addr, std::vector<std::uint64_t>& waiters_out) {
  for (MshrEntry& e : entries_) {
    if (e.valid && e.line_addr == line_addr) {
      waiters_out.insert(waiters_out.end(), e.waiters.begin(), e.waiters.end());
      e.valid = false;
      e.waiters.clear();
      MEMSCHED_ASSERT(used_ > 0, "MSHR accounting underflow");
      --used_;
      if (!e.dispatched) --undispatched_;
      return true;
    }
  }
  return false;
}

void MshrFile::reset() {
  for (MshrEntry& e : entries_) {
    e.valid = false;
    e.waiters.clear();
  }
  used_ = 0;
  undispatched_ = 0;
  allocations_ = 0;
  merges_ = 0;
}

void MshrFile::save_state(ckpt::Writer& w) const {
  w.put_u64(entries_.size());
  for (const MshrEntry& e : entries_) {
    w.put_u64(e.line_addr);
    w.put_bool(e.valid);
    w.put_bool(e.dispatched);
    w.put_bool(e.prefetch);
    w.put_u32(e.requester);
    w.put_u64_vec(e.waiters);
  }
  w.put_u32(used_);
  w.put_u64(allocations_);
  w.put_u64(merges_);
}

void MshrFile::load_state(ckpt::Reader& r) {
  const std::uint64_t n = r.get_u64();
  if (n != entries_.size()) {
    throw ckpt::SnapshotError("snapshot: MSHR capacity mismatch");
  }
  undispatched_ = 0;
  for (MshrEntry& e : entries_) {
    e.line_addr = r.get_u64();
    e.valid = r.get_bool();
    e.dispatched = r.get_bool();
    e.prefetch = r.get_bool();
    e.requester = r.get_u32();
    e.waiters = r.get_u64_vec();
    if (e.valid && !e.dispatched) ++undispatched_;
  }
  used_ = r.get_u32();
  allocations_ = r.get_u64();
  merges_ = r.get_u64();
}

}  // namespace memsched::cache
