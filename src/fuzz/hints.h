// Scheduling-hint calculation (§4.3, Algorithms 1 and 2).
//
// Given the profiled traces of two syscalls, computes the set of hypothetical
// memory barrier tests to run: each hint names a scheduling point (where the
// custom scheduler interleaves) and the set of dynamic accesses OEMU must
// reorder (delay for the store-barrier test, read-old for the load-barrier
// test). Hints are sorted by reorder-set size, largest first — the paper's
// search heuristic.
//
// Reorder-set shapes per group (accesses between two barriers of the tested
// type):
//   * store test (Fig. 5a): scheduling point = last access of the group,
//     switch AFTER it; reorder sets are the prefixes of the group's stores
//     (the paper's moving hypothetical barrier) plus — as a documented
//     extension — the contiguous suffixes ending before the last store,
//     emulating a non-FIFO store buffer that already drained the older
//     stores. Several real bugs (e.g. Figure 8 / RDS) need the suffix shape.
//   * load test (Fig. 5b): scheduling point = first access of the group,
//     switch BEFORE it; reorder sets are the suffixes of the group's loads.
#ifndef OZZ_SRC_FUZZ_HINTS_H_
#define OZZ_SRC_FUZZ_HINTS_H_

#include <string>
#include <vector>

#include "src/analysis/ordering.h"
#include "src/oemu/event.h"
#include "src/rt/sched_plan.h"

namespace ozz::fuzz {

struct DynAccess {
  InstrId instr = kInvalidInstr;
  u32 occurrence = 1;
  oemu::AccessType type = oemu::AccessType::kLoad;

  bool operator==(const DynAccess&) const = default;
};

struct SchedHint {
  bool store_test = true;  // hypothetical store barrier vs load barrier test
  DynAccess sched;         // scheduling point (on the reordering syscall)
  rt::SwitchWhen sched_phase = rt::SwitchWhen::kAfterAccess;
  std::vector<DynAccess> reorder;  // delay-store / read-old set
  bool suffix_shape = false;       // produced by the suffix extension
  // The axiomatic engine found a concrete execution in which some reorder
  // member's inversion is observable; such hints are scheduled first.
  bool witnessed = false;
  // Interrupt-injection test (the STI interrupt pass): instead of switching
  // to an observer thread at the scheduling point, the scheduler delivers a
  // virtual interrupt on the reordering thread itself
  // (rt::SchedPoint::fire_irq; deferred while local irqs are masked). The
  // reorder set is empty — the test perturbs the interleaving against this
  // CPU's own hardirq handler, not the memory order.
  bool irq_test = false;

  std::string ToString() const;
};

struct HintOptions {
  bool store_tests = true;
  bool load_tests = true;
  // Memory-model backend the hints assume (barrier grouping, which test
  // passes apply at all, prune-tier rules). Must match the model the
  // executing runtime uses; nullptr resolves to lkmm. Under a model without
  // versioned loads (tso, pso) the load-test pass is skipped entirely, and
  // under one without delayed stores the store-test pass is.
  const oemu::MemoryModel* model = nullptr;
  // Enables the suffix-shaped store reorder sets (extension; see above).
  bool suffix_store_hints = true;
  // Static ordering pre-filter (src/analysis): drops hints whose every
  // reorder member is provably a no-op under the emulated memory model
  // (undelayable/unversionable accesses, coherence, qualified locksets) —
  // the dynamic test cannot observe anything an in-order run would not.
  bool static_prune = true;
  // Second tier (src/analysis/axiomatic.h): bounded model checking of the
  // pairs the static tier could not discharge. A hint is dropped only when
  // every member is either statically proven or refuted exactly; witnessed
  // members rank their hint first, bounded-out members keep it alive.
  bool axiomatic_prune = true;
  std::size_t max_hints = 256;
};

// Accounting for both prune tiers, accumulated across calls.
struct HintStats {
  u64 hints_generated = 0;        // before pruning and the max_hints cap
  u64 hints_pruned_static = 0;    // dropped by the static ordering proofs
  u64 hints_pruned_axiomatic = 0;  // dropped by exact axiomatic refutation
  // Axiomatic verdicts over the distinct (member, sched) pairs checked.
  u64 pairs_witnessed = 0;
  u64 pairs_refuted = 0;
  u64 pairs_bounded = 0;
  analysis::PairStats pairs;  // candidate-pair universe over the raw traces

  u64 hints_pruned() const { return hints_pruned_static + hints_pruned_axiomatic; }

  void Add(const HintStats& o) {
    hints_generated += o.hints_generated;
    hints_pruned_static += o.hints_pruned_static;
    hints_pruned_axiomatic += o.hints_pruned_axiomatic;
    pairs_witnessed += o.pairs_witnessed;
    pairs_refuted += o.pairs_refuted;
    pairs_bounded += o.pairs_bounded;
    pairs.Add(o.pairs);
  }
};

// Algorithm 2: returns a copy of `trace` with accesses that touch no memory
// shared with `other` (where at least one side writes) filtered out.
// Barriers are preserved.
oemu::Trace FilterShared(const oemu::Trace& trace, const oemu::Trace& other);

// Algorithm 1: hints for the case where the syscall traced by `reorder_trace`
// performs the reordering and the one traced by `other_trace` observes.
// When `stats` is non-null it accumulates pre-filter accounting (pair stats
// are gathered even with static_prune off, so ablations can report the
// would-be numbers).
std::vector<SchedHint> ComputeHints(const oemu::Trace& reorder_trace,
                                    const oemu::Trace& other_trace,
                                    const HintOptions& options = {},
                                    HintStats* stats = nullptr);

// Interrupt-injection hints for one profiled call (the STI interrupt pass):
// one irq_test hint per dynamic access of `trace`, firing a virtual
// interrupt right after that access executes — the brute-force enumeration
// of interrupt points a same-CPU irq race needs. Order follows the trace.
std::vector<SchedHint> ComputeIrqHints(const oemu::Trace& trace, std::size_t max_hints);

}  // namespace ozz::fuzz

#endif  // OZZ_SRC_FUZZ_HINTS_H_
