// Model-aware static race & deadlock analyzer (the third static tier, on
// top of PR 1's trace-level prune and PR 4's source-level barrier audit).
//
// A *conflicting pair* is two instrumented accesses in the same file to the
// same target expression, at least one a store — the cross-thread surface
// OZZ's out-of-order bugs live on. Each conflicting pair is classified as:
//
//   locked           both endpoints provably hold a common lock (the
//                    interprocedural must-hold locksets of locks.h): the
//                    critical sections serialize, no reordering observable.
//   barrier-ordered  no common lock, but under the model in question
//                    neither endpoint participates in any unordered
//                    same-thread pair (the pending-pair dataflow of
//                    srcmodel.h, run with that model's relaxation matrix
//                    and barrier-effect tables): every publication /
//                    observation protocol touching the location is fenced.
//   dep-ordered      no common lock and not fully fenced, but the would-be
//                    protocol break is a load-load pair ordered by a
//                    token-backed dependency chain the model honors
//                    (deps.h): the rcu_dereference pattern. Reported
//                    separately from barrier-ordered because the repair
//                    economics differ — the ordering is free, it just has
//                    to not be broken (READ_ONCE on the source, no
//                    laundering through plain locals).
//   racy-under(M)    no common lock and some endpoint's protocol is broken
//                    under model M — a store left store-store-reorderable,
//                    or a load left load-load-reorderable, feeding this
//                    location. The *same* pair can be racy under
//                    lkmm/armv8x yet safe under tso, which is the
//                    per-model differential this analyzer exists to emit.
//
// Like the audit, the analyzer runs under both fix-flag assumptions:
// fix-gated races (racy under some model in the buggy form, racy under none
// in the fixed form) are the documented planted bugs; pairs racy even when
// fixed are residual and feed the CI baseline (ci/races_baseline.txt).
//
// The per-model verdicts are one-directional by construction: a scenario
// that dynamically triggers under M (BENCH_models.json) must be statically
// racy under M — the reverse is not claimed (the syntactic model
// over-approximates). ABBA lock-order cycles from the lock graph are
// reported as static deadlock candidates alongside.
//
// Everything here is advisory: it is a report, and the fuzzer never
// consumes it.
#ifndef OZZ_SRC_ANALYSIS_SRCMODEL_RACES_H_
#define OZZ_SRC_ANALYSIS_SRCMODEL_RACES_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/srcmodel/audit.h"
#include "src/analysis/srcmodel/irq.h"
#include "src/analysis/srcmodel/locks.h"

namespace ozz::oemu {
class MemoryModel;
}  // namespace ozz::oemu

namespace ozz::analysis::srcmodel {

// One conflicting pair that is racy under at least one model in at least
// one fix mode (locked and fully barrier-ordered pairs are summarized in
// the per-file stats, not listed).
struct RacePair {
  AccessSite first;   // the store side when exactly one endpoint stores
  AccessSite second;
  bool write_write = false;
  // Models under which some concrete occurrence pair is racy.
  std::vector<std::string> racy_models;        // buggy form (fix flags off)
  std::vector<std::string> racy_fixed_models;  // fixed form
  bool fix_gated = false;  // racy under >= 1 model buggy, under none fixed
  // A token-backed dependency chain neutralized a would-be protocol break
  // touching this pair. For a fix-gated pair this tags the cases where the
  // *fixed* form stays clean through a dependency, not a barrier — the
  // rcu_dereference reader pattern (the publish fix covers the store side;
  // the load side was never broken because the address dep orders it).
  bool dep_ordered = false;
  // A common must-hold lockset of some locked occurrence pair, when the
  // pair is *also* reachable locked (diagnostic only).
  LockSet sample_locks;
  // Same-CPU interrupt pair: one endpoint runs only in hardirq context (a
  // RequestIrq handler), the other in process context on the same CPU. Such
  // pairs never go through the cross-thread matched-break test — a common
  // spinlock serializes nothing against this CPU's own handler, and the
  // cross-CPU reordering question does not arise. Instead the verdict is
  //   irq-masked  the process endpoint is must-irqs-off (bare irqs-off
  //               region or an irq-safe lock), so the handler cannot
  //               preempt the critical region;
  //   irq-racy    interrupts are enabled at the process endpoint — the
  //               handler can fire mid-region and observe a torn state.
  // The verdict is interleaving-based, hence model-independent: an
  // irq-racy pair is racy under every memory-model backend.
  bool irq = false;
  bool irq_racy_buggy = false;  // verdict in the buggy form
  bool irq_racy_fixed = false;  // verdict in the fixed form

  // Line-free identity: "file:fn:expr[S] <-> file:fn:expr[L] W-R".
  std::string Identity() const;
};

struct FileDeadlock {
  std::string file;
  DeadlockCycle cycle;
};

// A lockdep-style hardirq self-deadlock candidate (irq.h), per file.
struct FileIrqDeadlock {
  std::string file;
  IrqDeadlockCandidate candidate;
};

struct FileRaceStats {
  std::string file;
  int sites = 0;
  int conflicting = 0;  // distinct conflicting-pair identities
  int locked = 0;       // every live occurrence locked, racy nowhere
  int ordered = 0;      // barrier-ordered under every model, racy nowhere
  int dep_ordered = 0;  // clean via an honored dependency chain, racy nowhere
  int irq_masked = 0;   // same-CPU irq pairs masked in both fix modes
  std::map<std::string, int> gated_by_model;     // model -> fix-gated races
  std::map<std::string, int> residual_by_model;  // model -> racy-even-fixed
  int deadlocks = 0;
  int irq_deadlocks = 0;  // lockdep-style self-deadlock candidates
};

struct RaceReport {
  std::vector<std::string> models;  // analyzed model names, registry order
  std::vector<RacePair> races;      // fix-gated first, then residual
  std::vector<FileDeadlock> deadlocks;
  std::vector<FileIrqDeadlock> irq_deadlocks;
  std::vector<FileRaceStats> files;
  int files_scanned = 0;
  int sites = 0;
  int conflicting = 0;
  int locked = 0;
  int ordered = 0;
  int dep_ordered = 0;
  int irq_masked = 0;
  int gated = 0;
  int residual = 0;
};

// Runs the analyzer over every file under all registered memory models
// (or the given subset). Each file is parsed once; the barrier dataflow
// runs per (model, fix mode) and the lockset analysis per fix mode.
RaceReport RunRaceAnalysis(const std::vector<SourceFile>& files);
RaceReport RunRaceAnalysis(const std::vector<SourceFile>& files,
                           const std::vector<const oemu::MemoryModel*>& models);

// Identities of pairs racy under `model` in the given fix mode — an
// independent recomputation path for bench_races' false-positive check
// (no claimed fix-gated race may still be racy with the fixes applied).
std::set<std::string> RacyIdentities(const std::vector<SourceFile>& files,
                                     const oemu::MemoryModel* model, bool assume_fixed);

// Human-readable report. `focus_model` (a model name, may be empty for the
// full matrix view) selects which model's racy pairs are listed in detail.
std::string FormatRaceText(const RaceReport& report, const std::string& focus_model);

std::string RaceReportJson(const RaceReport& report);

// Machine-readable per-cell matrix for ci/races_baseline.txt:
//   "model|file|gated|residual" per line, registry order then path order.
std::string RaceBaselineMatrix(const RaceReport& report);

}  // namespace ozz::analysis::srcmodel

#endif  // OZZ_SRC_ANALYSIS_SRCMODEL_RACES_H_
