// Out-of-order core performance model.
//
// Trace-driven occupancy model of the paper's Table-1 core (4-issue,
// 196-entry ROB, 32-entry LQ/SQ, 16-stage pipeline at 3.2 GHz). The model
// captures what the memory system sees and feels:
//
//   * dispatch proceeds at the application's inherent ILP rate (dispatch_ipc)
//     up to issue_width, while the ROB has room;
//   * loads issue into the cache hierarchy; L1 hits complete immediately,
//     deeper hits/misses occupy the load queue / L1D MSHRs and block in-order
//     commit when they reach the ROB head — multiple independent misses
//     inside the ROB window overlap (memory-level parallelism), while
//     dependent (pointer-chasing) loads serialize;
//   * stores retire into the hierarchy without stalling commit (store queue
//     semantics), back-pressured only by L2-MSHR availability;
//   * optional I-fetch modeling: one line fetch per 16 instructions; an
//     L1I miss stalls the frontend until the line returns.
//
// The model is stepped in CPU-cycle windows by the simulation kernel
// (cpu_ratio cycles per memory-bus tick). It dispatches each run of compute
// instructions up to the next memory reference as one batch, and
// fast-forwards through cycles where both commit and issue are provably
// blocked, straight to the event that can unblock the stall.
#pragma once

#include <cstdint>
#include <deque>

#include "cache/hierarchy.hpp"
#include "trace/inst_stream.hpp"
#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::cpu {

struct CoreConfig {
  std::uint32_t issue_width = 4;
  std::uint32_t rob_entries = 196;
  std::uint32_t lq_entries = 32;
  std::uint32_t sq_entries = 32;
  std::uint32_t l1d_mshr = 32;  ///< max outstanding L1D misses (Table 1)
  std::uint32_t l1i_mshr = 8;
  bool model_ifetch = true;
  std::uint32_t insts_per_fetch_line = 16;  ///< 64 B line / 4 B instructions
};

struct CoreRunStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1d_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t dram_loads = 0;
  std::uint64_t stall_rob = 0;       ///< cycles issue blocked: ROB full
  std::uint64_t stall_dep = 0;       ///< dependent load waiting
  std::uint64_t stall_mshr = 0;      ///< LQ / L1D MSHR full
  std::uint64_t stall_sq = 0;        ///< store queue full
  std::uint64_t stall_backpressure = 0;  ///< L2 MSHR / controller retry
  std::uint64_t stall_frontend = 0;  ///< I-fetch miss
};

class CoreModel {
 public:
  CoreModel(CoreId id, const CoreConfig& cfg, double dispatch_ipc,
            trace::InstStream& stream, cache::CacheHierarchy& hierarchy);

  /// Advance the core to absolute CPU cycle `target_cpu` (exclusive).
  void step_to(CpuCycle target_cpu);

  /// Fill delivery for a waiter token this core registered.
  void on_fill(std::uint64_t token, CpuCycle done_cpu);

  /// Sentinel for next_activity_cycle(): progress needs an external fill.
  static constexpr CpuCycle kIdle = ~CpuCycle{0};

  /// Earliest CPU cycle at which this core can make progress on its own:
  /// the last stepping-window end while the core was actively issuing or
  /// committing, the known cycle of the event that can unblock it while
  /// blocked (see blocked_wake), or kIdle when only an external fill can.
  /// May be conservatively early, never late; refreshed by step_to and
  /// on_fill.
  [[nodiscard]] CpuCycle next_activity_cycle() const { return self_wake_; }

  [[nodiscard]] CoreId id() const { return id_; }
  [[nodiscard]] std::uint64_t committed() const { return commit_num_; }
  [[nodiscard]] CpuCycle cycle() const { return cycle_; }
  [[nodiscard]] std::uint32_t outstanding_misses() const {
    return static_cast<std::uint32_t>(outstanding_.size());
  }
  [[nodiscard]] std::uint32_t outstanding_stores() const { return store_q_used_; }
  [[nodiscard]] const CoreRunStats& stats() const { return stats_; }

  /// Host work, not a model statistic: CPU cycles step_to simulated one at
  /// a time rather than jumping over. Not checkpointed and not reported in
  /// run results; benches gate on it per tick.
  [[nodiscard]] std::uint64_t cycles_stepped() const { return cycles_stepped_; }

  /// Zero the stall/access counters (pipeline state untouched).
  void reset_stats() { stats_ = CoreRunStats{}; }

  // --- sampled-engine support -------------------------------------------
  /// A paused core retires and commits what is already in flight but
  /// fetches/dispatches nothing — used to drain the system to a quiescent
  /// point before a functional fast-forward. Not checkpointed: pause is a
  /// transient run_sampled-internal state.
  void set_paused(bool paused) { paused_ = paused; }
  [[nodiscard]] bool paused() const { return paused_; }

  /// True when nothing is in flight in this core: every issued instruction
  /// committed, no outstanding loads or store-queue fills, frontend not
  /// waiting on a miss.
  [[nodiscard]] bool quiescent() const {
    return outstanding_.empty() && commit_num_ == issue_num_ &&
           store_q_used_ == 0 && frontend_ready_ != kPending;
  }

  /// Functionally execute the next `n` trace instructions: the stream and
  /// the issue/commit counters advance and the cache hierarchy stays warm
  /// via timing-free touches, but no cycles pass and no statistics accrue.
  /// Requires quiescent() (fills in flight would race the skipped stream).
  void functional_advance(std::uint64_t n);

  /// Pack/unpack waiter tokens: the simulation kernel routes fills by core.
  /// Bit 63 marks I-fetch tokens, bit 62 store-queue tokens.
  static std::uint64_t make_token(CoreId core, std::uint64_t seq, bool ifetch,
                                  bool store = false) {
    return (static_cast<std::uint64_t>(ifetch) << 63) |
           (static_cast<std::uint64_t>(store) << 62) |
           (static_cast<std::uint64_t>(core) << 48) | (seq & 0xffffffffffffULL);
  }
  static CoreId token_core(std::uint64_t token) {
    return static_cast<CoreId>((token >> 48) & 0x3fff);
  }

  /// Checkpoint/restore: pipeline occupancy, outstanding loads, frontend
  /// state, dispatch budget and stall counters. The instruction stream is
  /// saved separately by the caller (the system snapshot).
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  static constexpr CpuCycle kPending = ~CpuCycle{0};

  struct OutstandingLoad {
    std::uint64_t inst_num;  ///< position in program order
    CpuCycle done;           ///< kPending until the fill arrives
    std::uint64_t token;
  };

  /// Why the last failed issue attempt was blocked — which stall counter a
  /// fast-forwarded span belongs to.
  enum class StallKind : std::uint8_t {
    kNone, kRob, kDep, kMshr, kSq, kBackpressure, kFrontend
  };

  /// Try to issue one instruction; returns false when blocked this cycle
  /// (side-effect free on failure, and records the reason in last_stall_).
  /// Past the ROB check it issues pending_rec_, which dispatch_gap drew.
  bool try_issue_one();
  /// With no record pending and ROB room: draw up to min(floor(budget_),
  /// ROB room, instructions to the next fetch line) instructions in one
  /// stream call and issue the compute ones. Returns true when all were
  /// compute; false when the batch ended on a reference, now pending_rec_.
  bool dispatch_gap();
  /// Count `n` issued instructions against the current fetch line (n never
  /// exceeds insts_to_next_line_); fetch the next line at the boundary.
  void advance_fetch(std::uint32_t n);
  [[nodiscard]] bool last_load_complete() const;
  /// Issue waits for an I-fetch (kPending is above every cycle).
  [[nodiscard]] bool frontend_stalled() const { return frontend_ready_ > cycle_; }
  /// Cycle of the event that can end the current issue+commit stall, by
  /// stall kind; kIdle when only an external fill can.
  [[nodiscard]] CpuCycle blocked_wake() const;

  /// Per-cycle accounting for `span` fast-forwarded blocked cycles: each
  /// would have bumped the last_stall_ counter once and (for issue-path
  /// stalls) accrued dispatch budget, exactly as unit stepping does — so
  /// stall counters and budget are invariant under window partitioning.
  void account_stall_span(CpuCycle span);

  CoreId id_;
  CoreConfig cfg_;
  double dispatch_ipc_;
  trace::InstStream& stream_;
  cache::CacheHierarchy& hierarchy_;
  Addr code_base_;                ///< stream_.code_base(), fixed per stream
  std::uint64_t code_bytes_;      ///< stream_.code_bytes(), fixed per stream
  bool ifetch_;  ///< I-fetch modelled: cfg.model_ifetch and a code region

  CpuCycle cycle_ = 0;
  bool paused_ = false;           ///< see set_paused()
  std::uint64_t issue_num_ = 0;   ///< instructions dispatched
  std::uint64_t commit_num_ = 0;  ///< instructions committed (in order)
  double budget_ = 0.0;
  StallKind last_stall_ = StallKind::kNone;
  CpuCycle self_wake_ = 0;  ///< see next_activity_cycle()
  std::uint64_t cycles_stepped_ = 0;  ///< see cycles_stepped()

  std::deque<OutstandingLoad> outstanding_;  ///< issue-order, L1-missing loads
  std::uint64_t next_token_seq_ = 0;

  bool have_pending_rec_ = false;
  trace::InstRecord pending_rec_{};

  std::uint64_t last_load_token_ = 0;
  bool last_load_tracked_ = false;  ///< last load is (or was) in outstanding_

  std::uint32_t store_q_used_ = 0;  ///< store-miss entries awaiting their fill

  // Frontend state.
  std::uint32_t insts_to_next_line_;
  Addr code_pos_ = 0;
  CpuCycle frontend_ready_ = 0;  ///< issue allowed from this cycle; kPending while miss in flight
  std::uint64_t frontend_token_ = 0;

  CoreRunStats stats_;
};

}  // namespace memsched::cpu
