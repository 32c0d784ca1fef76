// lint-as: src/fixture/ckpt_symmetry_bad.cpp
// Fixture: ckpt-symmetry catches the three asymmetry shapes — reordered
// field sequence, mismatched field count, and a member the load side drops —
// also inside a class defined through a qualified head (`struct A::B {`).

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

namespace fixture {

// Shape 1: save and load touch the same fields in different order.
class Reordered {
 public:
  void save_state(ckpt::Writer& w) const {
    put_u64(w, ticks_);
    put_bool(w, drain_);
  }
  void load_state(ckpt::Reader& r) {
    get_bool(r, drain_);  // expect-lint: ckpt-symmetry
    get_u64(r, ticks_);
  }

 private:
  template <class W, class T>
  static void put_u64(W&, const T&) {}
  template <class W, class T>
  static void put_bool(W&, const T&) {}
  template <class R, class T>
  static void get_u64(R&, T&) {}
  template <class R, class T>
  static void get_bool(R&, T&) {}

  unsigned long long ticks_ = 0;
  bool drain_ = false;
};

// Shape 2: save serializes two fields, load reads only one.
class Truncated {
 public:
  void save_state(ckpt::Writer& w) const {
    put_u32(w, row_);
    put_u32(w, col_);
  }
  void load_state(ckpt::Reader& r) {  // expect-lint: ckpt-symmetry
    get_u32(r, row_);
  }

 private:
  template <class W, class T>
  static void put_u32(W&, const T&) {}
  template <class R, class T>
  static void get_u32(R&, T&) {}

  unsigned row_ = 0;
  unsigned col_ = 0;
};

}  // namespace fixture

// Shape 3 (out-of-class definitions): the event sequence matches but the
// member written by save_state is never mentioned on the load side — the
// restored object silently keeps its default.
namespace fixture2 {

class Dropped {
 public:
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  unsigned long long epoch_ = 0;
};

inline void put_u64(ckpt::Writer&, unsigned long long) {}
inline unsigned long long get_u64(ckpt::Reader&) { return 0; }

void Dropped::save_state(ckpt::Writer& w) const { put_u64(w, epoch_); }

void Dropped::load_state(ckpt::Reader& r) {  // expect-lint: ckpt-symmetry
  (void)get_u64(r);  // value read to keep the stream aligned, then dropped
}

}  // namespace fixture2

// Shape 4 (qualified class head): a nested class defined outside its
// enclosing class still owns its inline save/load bodies, so the truncated
// load side is caught as in Shape 2.
namespace fixture3 {

struct Outer {
  struct Inner;
};

struct Outer::Inner {
  void save_state(ckpt::Writer& w) const {
    put_u64(w, cursor);
    put_u64(w, limit);
  }
  void load_state(ckpt::Reader& r) {  // expect-lint: ckpt-symmetry
    get_u64(r, cursor);
  }

  template <class W, class T>
  static void put_u64(W&, const T&) {}
  template <class R, class T>
  static void get_u64(R&, T&) {}

  unsigned long long cursor = 0;
  unsigned long long limit = 0;
};

}  // namespace fixture3
