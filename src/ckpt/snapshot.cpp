#include "ckpt/snapshot.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <fstream>

#include "util/atomic_file.hpp"

namespace memsched::ckpt {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

constexpr auto kCrcTable = make_crc_table();

void append_bytes(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
void append_scalar(std::vector<std::uint8_t>& out, T v) {
  append_bytes(out, &v, sizeof(v));
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xffffffffU;
  for (std::size_t i = 0; i < size; ++i) {
    c = kCrcTable[(c ^ p[i]) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

// ---------------------------------------------------------------------------
// Writer

void Writer::begin_section(const std::string& name) {
  for (const auto& s : sections_) {
    if (s.name == name) {
      throw SnapshotError("snapshot: duplicate section '" + name + "'");
    }
  }
  sections_.push_back({name, {}});
}

void Writer::put_u8(std::uint8_t v) { append_scalar(sections_.back().bytes, v); }
void Writer::put_u32(std::uint32_t v) { append_scalar(sections_.back().bytes, v); }
void Writer::put_u64(std::uint64_t v) { append_scalar(sections_.back().bytes, v); }

void Writer::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::put_str(const std::string& s) {
  put_u64(s.size());
  append_bytes(sections_.back().bytes, s.data(), s.size());
}

void Writer::put_u64_vec(const std::vector<std::uint64_t>& v) {
  put_u64(v.size());
  for (const std::uint64_t x : v) put_u64(x);
}

void Writer::put_rng(const util::Xoshiro256& rng) {
  const auto st = rng.state();
  for (const std::uint64_t w : st.s) put_u64(w);
}

void Writer::put_stat(const util::RunningStat& st) {
  put_u64(st.count());
  put_f64(st.raw_mean());
  put_f64(st.raw_m2());
  put_f64(st.raw_min());
  put_f64(st.raw_max());
  put_f64(st.sum());
}

void Writer::put_hist(const util::Histogram& h) {
  put_u64(h.bucket_count());
  for (std::size_t i = 0; i < h.bucket_count(); ++i) put_u64(h.bucket(i));
  put_u64(h.overflow());
  put_u64(h.count());
}

void Writer::save(const std::string& path, const std::string& fingerprint) const {
  std::vector<std::uint8_t> out;
  append_scalar(out, kMagic);
  append_scalar(out, kVersion);
  append_scalar(out, static_cast<std::uint32_t>(fingerprint.size()));
  append_bytes(out, fingerprint.data(), fingerprint.size());
  append_scalar(out, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& s : sections_) {
    append_scalar(out, static_cast<std::uint32_t>(s.name.size()));
    append_bytes(out, s.name.data(), s.name.size());
    append_scalar(out, static_cast<std::uint64_t>(s.bytes.size()));
    append_scalar(out, crc32(s.bytes.data(), s.bytes.size()));
    append_bytes(out, s.bytes.data(), s.bytes.size());
  }
  util::atomic_write_file(path, out.data(), out.size());
}

// ---------------------------------------------------------------------------
// Reader

namespace {

/// Bounds-checked sequential parser over the raw file image.
class Parser {
 public:
  Parser(const std::uint8_t* data, std::size_t size) : p_(data), left_(size) {}

  const std::uint8_t* take(std::size_t n) {
    if (n > left_) throw SnapshotError("snapshot: truncated file");
    const std::uint8_t* r = p_;
    p_ += n;
    left_ -= n;
    return r;
  }

  template <typename T>
  T scalar() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }

 private:
  const std::uint8_t* p_;
  std::size_t left_;
};

}  // namespace

Reader::Reader(const std::string& path, const std::string& expected_fingerprint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError("snapshot: cannot open " + path);
  const std::vector<std::uint8_t> raw((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
  if (in.bad()) throw SnapshotError("snapshot: read error on " + path);
  parse(raw, expected_fingerprint);
}

void Reader::parse(const std::vector<std::uint8_t>& raw,
                   const std::string& expected_fingerprint) {
  Parser ps(raw.data(), raw.size());
  if (ps.scalar<std::uint64_t>() != kMagic) {
    throw SnapshotError("snapshot: bad magic");
  }
  const auto version = ps.scalar<std::uint32_t>();
  if (version != kVersion) {
    throw SnapshotError("snapshot: schema version " + std::to_string(version) +
                        " != expected " + std::to_string(kVersion));
  }
  const auto fp_len = ps.scalar<std::uint32_t>();
  const std::string fp(reinterpret_cast<const char*>(ps.take(fp_len)), fp_len);
  if (fp != expected_fingerprint) {
    throw SnapshotError("snapshot: fingerprint mismatch (snapshot is for a "
                        "different configuration)");
  }
  const auto nsections = ps.scalar<std::uint32_t>();
  for (std::uint32_t i = 0; i < nsections; ++i) {
    const auto name_len = ps.scalar<std::uint32_t>();
    const std::string name(reinterpret_cast<const char*>(ps.take(name_len)),
                           name_len);
    const auto payload_len = ps.scalar<std::uint64_t>();
    const auto stored_crc = ps.scalar<std::uint32_t>();
    if (payload_len > raw.size()) {
      throw SnapshotError("snapshot: implausible section length in '" + name + "'");
    }
    const std::uint8_t* payload = ps.take(static_cast<std::size_t>(payload_len));
    if (crc32(payload, static_cast<std::size_t>(payload_len)) != stored_crc) {
      throw SnapshotError("snapshot: CRC mismatch in section '" + name + "'");
    }
    if (!sections_.emplace(name, std::vector<std::uint8_t>(payload, payload + payload_len))
             .second) {
      throw SnapshotError("snapshot: duplicate section '" + name + "'");
    }
  }
}

bool Reader::has_section(const std::string& name) const {
  return sections_.count(name) != 0;
}

void Reader::open_section(const std::string& name) {
  const auto it = sections_.find(name);
  if (it == sections_.end()) {
    throw SnapshotError("snapshot: missing section '" + name + "'");
  }
  cur_ = &it->second;
  cur_name_ = name;
  pos_ = 0;
}

const std::uint8_t* Reader::need(std::size_t n) {
  if (cur_ == nullptr) throw SnapshotError("snapshot: no section open");
  if (pos_ + n > cur_->size()) {
    throw SnapshotError("snapshot: read past end of section '" + cur_name_ + "'");
  }
  const std::uint8_t* r = cur_->data() + pos_;
  pos_ += n;
  return r;
}

std::uint8_t Reader::get_u8() { return *need(1); }

std::uint32_t Reader::get_u32() {
  std::uint32_t v;
  std::memcpy(&v, need(sizeof(v)), sizeof(v));
  return v;
}

std::uint64_t Reader::get_u64() {
  std::uint64_t v;
  std::memcpy(&v, need(sizeof(v)), sizeof(v));
  return v;
}

double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string Reader::get_str() {
  const std::uint64_t len = get_u64();
  if (cur_ != nullptr && len > cur_->size()) {
    throw SnapshotError("snapshot: implausible string length in '" + cur_name_ + "'");
  }
  const auto n = static_cast<std::size_t>(len);
  return {reinterpret_cast<const char*>(need(n)), n};
}

std::vector<std::uint64_t> Reader::get_u64_vec() {
  const std::uint64_t len = get_u64();
  if (cur_ != nullptr && len * sizeof(std::uint64_t) > cur_->size()) {
    throw SnapshotError("snapshot: implausible vector length in '" + cur_name_ + "'");
  }
  std::vector<std::uint64_t> v(static_cast<std::size_t>(len));
  for (auto& x : v) x = get_u64();
  return v;
}

void Reader::get_rng(util::Xoshiro256& rng) {
  util::Xoshiro256::State st{};
  for (auto& w : st.s) w = get_u64();
  rng.set_state(st);
}

void Reader::get_stat(util::RunningStat& st) {
  const std::uint64_t n = get_u64();
  const double mean = get_f64();
  const double m2 = get_f64();
  const double mn = get_f64();
  const double mx = get_f64();
  const double sum = get_f64();
  st.restore(n, mean, m2, mn, mx, sum);
}

void Reader::get_hist(util::Histogram& h) {
  const std::uint64_t nbuckets = get_u64();
  if (nbuckets != h.bucket_count()) {
    throw SnapshotError("snapshot: histogram geometry mismatch in '" + cur_name_ + "'");
  }
  std::vector<std::uint64_t> buckets(static_cast<std::size_t>(nbuckets));
  for (auto& b : buckets) b = get_u64();
  const std::uint64_t overflow = get_u64();
  const std::uint64_t total = get_u64();
  h.restore(buckets, overflow, total);
}

void Reader::close_section() {
  if (cur_ == nullptr) throw SnapshotError("snapshot: no section open");
  if (pos_ != cur_->size()) {
    throw SnapshotError("snapshot: section '" + cur_name_ +
                        "' not fully consumed (schema drift)");
  }
  cur_ = nullptr;
  pos_ = 0;
}

}  // namespace memsched::ckpt
