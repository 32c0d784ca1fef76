#include "cpu/core_model.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::cpu {

using cache::AccessOutcome;

CoreModel::CoreModel(CoreId id, const CoreConfig& cfg, double dispatch_ipc,
                     trace::InstStream& stream, cache::CacheHierarchy& hierarchy)
    : id_(id),
      cfg_(cfg),
      dispatch_ipc_(dispatch_ipc),
      stream_(stream),
      hierarchy_(hierarchy),
      code_base_(stream.code_base()),
      code_bytes_(stream.code_bytes()),
      ifetch_(cfg.model_ifetch && code_bytes_ != 0),
      insts_to_next_line_(cfg.insts_per_fetch_line) {
  MEMSCHED_ASSERT(dispatch_ipc > 0.0, "dispatch IPC must be positive");
  MEMSCHED_ASSERT(cfg.issue_width > 0 && cfg.rob_entries > 0, "invalid core config");
}

bool CoreModel::last_load_complete() const {
  // An L1 hit (or no load yet), or already retired: the list pops only from
  // the front, so once the newest entry retires the list is empty.
  if (!last_load_tracked_ || outstanding_.empty()) return true;
  const OutstandingLoad& last = outstanding_.back();
  MEMSCHED_ASSERT(last.token == last_load_token_, "tracked load is not the newest entry");
  return last.done <= cycle_;  // kPending never is
}

void CoreModel::advance_fetch(std::uint32_t n) {
  if (!ifetch_) return;
  insts_to_next_line_ -= n;
  if (insts_to_next_line_ > 0) return;
  insts_to_next_line_ = cfg_.insts_per_fetch_line;
  const Addr addr = code_base_ + code_pos_;
  code_pos_ = (code_pos_ + kLineBytes) % code_bytes_;
  const std::uint64_t token = make_token(id_, next_token_seq_++, /*ifetch=*/true);
  const cache::AccessReply reply = hierarchy_.ifetch(id_, addr, cycle_, token);
  switch (reply.outcome) {
    case AccessOutcome::kHitL1:
      break;  // pipelined fetch, no stall
    case AccessOutcome::kHitL2:
      frontend_ready_ = reply.done_cpu;
      break;
    case AccessOutcome::kMiss:
      frontend_ready_ = kPending;
      frontend_token_ = token;
      break;
    case AccessOutcome::kRetry:
      // Treat as a short fixed stall and refetch the same line next time.
      frontend_ready_ = cycle_ + 4;
      insts_to_next_line_ = 1;
      code_pos_ = (code_pos_ + code_bytes_ - kLineBytes) % code_bytes_;
      break;
  }
}

bool CoreModel::try_issue_one() {
  // ROB occupancy limit.
  if (issue_num_ - commit_num_ >= cfg_.rob_entries) {
    ++stats_.stall_rob;
    last_stall_ = StallKind::kRob;
    return false;
  }
  const trace::InstRecord& rec = pending_rec_;

  switch (rec.cls) {
    case trace::InstClass::kCompute:
      break;  // always issuable

    case trace::InstClass::kLoad: {
      if (rec.dep_on_prev && !last_load_complete()) {
        ++stats_.stall_dep;
        last_stall_ = StallKind::kDep;
        return false;
      }
      const auto limit = std::min(cfg_.lq_entries, cfg_.l1d_mshr);
      if (outstanding_.size() >= limit) {
        ++stats_.stall_mshr;
        last_stall_ = StallKind::kMshr;
        return false;
      }
      // The token sequence number is consumed only when the access goes
      // through: a back-pressured attempt is repeated a different number of
      // times under different stepping windows, and must stay a pure no-op.
      const std::uint64_t token = make_token(id_, next_token_seq_, /*ifetch=*/false);
      const cache::AccessReply reply = hierarchy_.load(id_, rec.addr, cycle_, token);
      switch (reply.outcome) {
        case AccessOutcome::kRetry:
          ++stats_.stall_backpressure;
          last_stall_ = StallKind::kBackpressure;
          return false;
        case AccessOutcome::kHitL1:
          // Completes within the pipeline; never blocks commit in practice.
          ++stats_.l1d_hits;
          last_load_tracked_ = false;
          break;
        case AccessOutcome::kHitL2:
          ++stats_.l2_hits;
          outstanding_.push_back({issue_num_, reply.done_cpu, token});
          last_load_token_ = token;
          last_load_tracked_ = true;
          break;
        case AccessOutcome::kMiss:
          ++stats_.dram_loads;
          outstanding_.push_back({issue_num_, kPending, token});
          last_load_token_ = token;
          last_load_tracked_ = true;
          break;
      }
      ++next_token_seq_;
      ++stats_.loads;
      break;
    }

    case trace::InstClass::kStore: {
      if (store_q_used_ >= cfg_.sq_entries) {
        ++stats_.stall_sq;
        last_stall_ = StallKind::kSq;
        return false;
      }
      // An L1 hit retires instantly and ignores the token; an L1 miss
      // consumes its sequence number, and one whose fill is in flight (kMiss)
      // occupies a store-queue entry until the bit-62 token is called back.
      const std::uint64_t token = make_token(id_, next_token_seq_, false, /*store=*/true);
      const AccessOutcome outcome = hierarchy_.store(id_, rec.addr, token);
      if (outcome == AccessOutcome::kRetry) {
        ++stats_.stall_backpressure;
        last_stall_ = StallKind::kBackpressure;
        return false;
      }
      if (outcome != AccessOutcome::kHitL1) ++next_token_seq_;
      if (outcome == AccessOutcome::kMiss) ++store_q_used_;
      ++stats_.stores;
      break;
    }
  }

  have_pending_rec_ = false;
  ++issue_num_;
  advance_fetch(1);
  return true;
}

bool CoreModel::dispatch_gap() {
  // Every drawn instruction issues this cycle or is the held reference, as
  // with one draw per instruction: compute never blocks, the ROB and budget
  // bound the batch, and the only fetch-line boundary is at its end.
  std::uint64_t k = std::min<std::uint64_t>(static_cast<std::uint64_t>(budget_),
                                            cfg_.rob_entries - (issue_num_ - commit_num_));
  if (ifetch_) k = std::min<std::uint64_t>(k, insts_to_next_line_);
  const std::uint64_t drawn = stream_.next_ref(k, pending_rec_);
  have_pending_rec_ = pending_rec_.cls != trace::InstClass::kCompute;
  const std::uint64_t computes = drawn - (have_pending_rec_ ? 1 : 0);
  issue_num_ += computes;
  // Exactly what one `budget_ -= 1.0` per instruction gives: computes <=
  // floor(budget_) and budget_ < 2^53, so 1.0 is a multiple of budget_'s ulp
  // and every partial difference, like the whole one, is representable.
  budget_ -= static_cast<double>(computes);
  advance_fetch(static_cast<std::uint32_t>(computes));
  return !have_pending_rec_;
}

void CoreModel::account_stall_span(CpuCycle span) {
  if (span == 0 || last_stall_ == StallKind::kNone) return;
  switch (last_stall_) {
    case StallKind::kRob: stats_.stall_rob += span; break;
    case StallKind::kDep: stats_.stall_dep += span; break;
    case StallKind::kMshr: stats_.stall_mshr += span; break;
    case StallKind::kSq: stats_.stall_sq += span; break;
    case StallKind::kBackpressure: stats_.stall_backpressure += span; break;
    case StallKind::kFrontend: stats_.stall_frontend += span; break;
    case StallKind::kNone: break;
  }
  if (last_stall_ == StallKind::kFrontend) return;
  // Replicate the per-cycle accrual `budget_ = min(budget_ + ipc, width)`
  // for each skipped cycle — the cap is a fixed point, so stop there. The
  // add-per-cycle loop (not one fused multiply) keeps the floating-point
  // value bit-identical to unit stepping.
  const auto width = static_cast<double>(cfg_.issue_width);
  for (CpuCycle i = 0; i < span; ++i) {
    const double next = budget_ + dispatch_ipc_;
    if (next >= width) {
      budget_ = width;
      break;
    }
    budget_ = next;
  }
}

CpuCycle CoreModel::blocked_wake() const {
  // kPending equals kIdle, so a pending `done` or frontend_ready_ is
  // already "no known event" under std::min.
  static_assert(kPending == kIdle);
  CpuCycle next_event = kIdle;
  switch (last_stall_) {
    case StallKind::kRob:
    case StallKind::kMshr:
      // Both clear only when the head load retires: commit is capped at its
      // inst_num, and outstanding_ pops only from the front.
    case StallKind::kSq:
    case StallKind::kBackpressure:
      // Store-queue entries and L2 MSHRs free only on fills. A fill arrives
      // at a tick boundary, on a visited tick where every core is stepped,
      // and within one core's step_to window no other core touches the
      // hierarchy: until the window ends only the head's retirement can
      // change anything. Loads completed behind the head cannot.
      next_event = outstanding_.front().done;
      break;
    case StallKind::kDep:
      // The dependence clears when the tracked last load (the newest entry)
      // completes; the head's retirement moves commit before that.
      next_event = std::min(outstanding_.front().done, outstanding_.back().done);
      break;
    default:
      // Any known completion. A stale one (done <= cycle_) can unblock a
      // dependence next cycle, so it pins next_event and forbids the jump.
      for (const OutstandingLoad& o : outstanding_) next_event = std::min(next_event, o.done);
      break;
  }
  if (frontend_stalled()) next_event = std::min(next_event, frontend_ready_);
  return next_event;
}

void CoreModel::step_to(CpuCycle target_cpu) {
  self_wake_ = target_cpu;  // active unless the window ends provably blocked
  if (paused_) {
    // Drain mode: retire and commit what is in flight, fetch and dispatch
    // nothing, accrue no stall statistics (the next interval's warmup+reset
    // would wipe them anyway, but keeping them clean avoids surprises).
    while (cycle_ < target_cpu) {
      ++cycles_stepped_;
      while (!outstanding_.empty() && outstanding_.front().done != kPending &&
             outstanding_.front().done <= cycle_) {
        outstanding_.pop_front();
      }
      const std::uint64_t commit_limit =
          outstanding_.empty() ? issue_num_ : outstanding_.front().inst_num;
      commit_num_ = std::min(commit_num_ + cfg_.issue_width, commit_limit);
      ++cycle_;
      if (outstanding_.empty() && commit_num_ == issue_num_) {
        cycle_ = target_cpu;  // fully drained — nothing left to advance
        self_wake_ = kIdle;
      }
    }
    return;
  }
  while (cycle_ < target_cpu) {
    ++cycles_stepped_;
    // Retire loads whose data has arrived (front of the program-order list).
    while (!outstanding_.empty() && outstanding_.front().done != kPending &&
           outstanding_.front().done <= cycle_) {
      outstanding_.pop_front();
    }

    // In-order commit up to the oldest incomplete load, at most issue_width
    // per cycle.
    const std::uint64_t commit_limit =
        outstanding_.empty() ? issue_num_ : outstanding_.front().inst_num;
    commit_num_ = std::min(commit_num_ + cfg_.issue_width, commit_limit);

    // Dispatch.
    bool issue_blocked = false;
    if (frontend_stalled()) {
      ++stats_.stall_frontend;
      last_stall_ = StallKind::kFrontend;
      issue_blocked = true;
    } else {
      budget_ = std::min(budget_ + dispatch_ipc_, static_cast<double>(cfg_.issue_width));
      while (budget_ >= 1.0) {
        // Issue the compute run up to the next reference in one batch; a
        // reference it draws issues below, in the same iteration.
        if (!have_pending_rec_ && issue_num_ - commit_num_ < cfg_.rob_entries &&
            dispatch_gap()) {
          if (frontend_stalled()) break;
          continue;
        }
        if (!try_issue_one()) {
          issue_blocked = true;
          break;
        }
        budget_ -= 1.0;
        if (frontend_stalled()) break;
      }
    }

    ++cycle_;

    // Fast-forward: if commit is blocked on an incomplete load AND issue is
    // blocked, nothing changes until the event that can unblock it (or the
    // end of this stepping window — fills arrive only at tick boundaries).
    // The skipped cycles still owe their per-cycle stall/budget accounting.
    const bool commit_blocked =
        !outstanding_.empty() && commit_num_ == outstanding_.front().inst_num;
    if (issue_blocked && commit_blocked) {
      const CpuCycle next_event = blocked_wake();
      if (next_event > cycle_) {
        const CpuCycle to = std::min(next_event, target_cpu);
        account_stall_span(to - cycle_);
        cycle_ = to;
      }
      // Blocked through the window end: the stepping kernel may sleep until
      // the next known event (or an external fill) instead of re-stepping.
      if (next_event > target_cpu) self_wake_ = next_event;
    }
  }
}

void CoreModel::functional_advance(std::uint64_t n) {
  MEMSCHED_ASSERT(quiescent(), "functional_advance requires a drained core");
  // Consecutive references to one line collapse into a single warm touch:
  // with no intervening access to the same cache, repeats change neither
  // residency nor relative LRU order — only the dirty bit can still be
  // strengthened by a later store. Span-scoped, so detailed intervals in
  // between can never invalidate the memo.
  Addr last_line = ~Addr{0};
  bool last_dirty = false;
  std::uint64_t remaining = n;
  while (remaining > 0) {
    trace::InstRecord rec;
    std::uint64_t consumed;
    if (have_pending_rec_) {
      rec = pending_rec_;
      have_pending_rec_ = false;
      consumed = 1;
    } else {
      // Batched: the stream skips the whole compute run in one call.
      consumed = stream_.next_ref(remaining, rec);
    }
    remaining -= consumed;
    if (rec.cls != trace::InstClass::kCompute) {
      const bool is_write = rec.cls == trace::InstClass::kStore;
      const Addr line = rec.addr & ~static_cast<Addr>(kLineBytes - 1);
      if (line != last_line) {
        hierarchy_.functional_touch(id_, rec.addr, is_write, /*is_ifetch=*/false);
        last_line = line;
        last_dirty = is_write;
      } else if (is_write && !last_dirty) {
        hierarchy_.functional_touch(id_, rec.addr, /*is_write=*/true, /*is_ifetch=*/false);
        last_dirty = true;
      }
    }
    // Keep the I-fetch line position in step with the instruction count so
    // detailed execution resumes fetching from the right code address: one
    // code-line touch per countdown expiry across the consumed span (the
    // touches land after the span's data touch, which only perturbs L2
    // recency interleaving between the independent L1I/L1D streams).
    if (ifetch_) {
      std::uint64_t span = consumed;
      while (span >= insts_to_next_line_) {
        span -= insts_to_next_line_;
        insts_to_next_line_ = cfg_.insts_per_fetch_line;
        const Addr addr = code_base_ + code_pos_;
        code_pos_ = (code_pos_ + kLineBytes) % code_bytes_;
        hierarchy_.functional_touch(id_, addr, /*is_write=*/false, /*is_ifetch=*/true);
      }
      insts_to_next_line_ -= static_cast<std::uint32_t>(span);
    }
  }
  issue_num_ += n;
  commit_num_ += n;
  last_load_tracked_ = false;  // nothing in flight to depend on
}

void CoreModel::on_fill(std::uint64_t token, CpuCycle done_cpu) {
  if (token >> 63) {
    // Frontend fill.
    if (frontend_ready_ == kPending && token == frontend_token_) {
      frontend_ready_ = std::max(done_cpu, cycle_);
      self_wake_ = std::min(self_wake_, frontend_ready_);
    }
    return;
  }
  if ((token >> 62) & 1) {
    // Store-queue entry retires with its fill; a stalled store could issue
    // right away.
    MEMSCHED_ASSERT(store_q_used_ > 0, "store queue accounting underflow");
    --store_q_used_;
    self_wake_ = std::min(self_wake_, cycle_);
    return;
  }
  for (OutstandingLoad& o : outstanding_) {
    if (o.token == token) {
      MEMSCHED_ASSERT(o.done == kPending, "double fill for one load");
      o.done = std::max(done_cpu, cycle_);
      self_wake_ = std::min(self_wake_, o.done);
      return;
    }
  }
  // Token not found: the load was an MSHR merge whose entry the core never
  // tracked? Cannot happen — every kMiss reply records a token. Abort.
  MEMSCHED_ASSERT(false, "fill for unknown load token");
}

void CoreModel::save_state(ckpt::Writer& w) const {
  w.put_u64(cycle_);
  w.put_u64(issue_num_);
  w.put_u64(commit_num_);
  w.put_f64(budget_);
  w.put_u8(static_cast<std::uint8_t>(last_stall_));
  w.put_u64(self_wake_);
  w.put_u64(outstanding_.size());
  for (const OutstandingLoad& l : outstanding_) {
    w.put_u64(l.inst_num);
    w.put_u64(l.done);
    w.put_u64(l.token);
  }
  w.put_u64(next_token_seq_);
  w.put_bool(have_pending_rec_);
  w.put_u8(static_cast<std::uint8_t>(pending_rec_.cls));
  w.put_u64(pending_rec_.addr);
  w.put_bool(pending_rec_.dep_on_prev);
  w.put_u64(last_load_token_);
  w.put_bool(last_load_tracked_);
  w.put_u32(store_q_used_);
  w.put_u32(insts_to_next_line_);
  w.put_u64(code_pos_);
  w.put_u64(frontend_ready_);
  w.put_u64(frontend_token_);
  w.put_u64(stats_.loads);
  w.put_u64(stats_.stores);
  w.put_u64(stats_.l1d_hits);
  w.put_u64(stats_.l2_hits);
  w.put_u64(stats_.dram_loads);
  w.put_u64(stats_.stall_rob);
  w.put_u64(stats_.stall_dep);
  w.put_u64(stats_.stall_mshr);
  w.put_u64(stats_.stall_sq);
  w.put_u64(stats_.stall_backpressure);
  w.put_u64(stats_.stall_frontend);
}

void CoreModel::load_state(ckpt::Reader& r) {
  cycle_ = r.get_u64();
  issue_num_ = r.get_u64();
  commit_num_ = r.get_u64();
  budget_ = r.get_f64();
  last_stall_ = static_cast<StallKind>(r.get_u8());
  self_wake_ = r.get_u64();
  outstanding_.clear();
  const std::uint64_t nout = r.get_u64();
  for (std::uint64_t i = 0; i < nout; ++i) {
    OutstandingLoad l{};
    l.inst_num = r.get_u64();
    l.done = r.get_u64();
    l.token = r.get_u64();
    outstanding_.push_back(l);
  }
  next_token_seq_ = r.get_u64();
  have_pending_rec_ = r.get_bool();
  pending_rec_.cls = static_cast<trace::InstClass>(r.get_u8());
  pending_rec_.addr = r.get_u64();
  pending_rec_.dep_on_prev = r.get_bool();
  last_load_token_ = r.get_u64();
  last_load_tracked_ = r.get_bool();
  store_q_used_ = r.get_u32();
  insts_to_next_line_ = r.get_u32();
  code_pos_ = r.get_u64();
  frontend_ready_ = r.get_u64();
  frontend_token_ = r.get_u64();
  stats_.loads = r.get_u64();
  stats_.stores = r.get_u64();
  stats_.l1d_hits = r.get_u64();
  stats_.l2_hits = r.get_u64();
  stats_.dram_loads = r.get_u64();
  stats_.stall_rob = r.get_u64();
  stats_.stall_dep = r.get_u64();
  stats_.stall_mshr = r.get_u64();
  stats_.stall_sq = r.get_u64();
  stats_.stall_backpressure = r.get_u64();
  stats_.stall_frontend = r.get_u64();
}

}  // namespace memsched::cpu
