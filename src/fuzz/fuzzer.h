// The OZZ fuzzer (§4): the campaign driver tying the whole workflow of
// Figure 6 together — generate/mutate STIs, profile them, compute scheduling
// hints, translate to MTIs, execute under the custom scheduler + OEMU, and
// collect deduplicated bug reports annotated with the hypothetical barrier.
#ifndef OZZ_SRC_FUZZ_FUZZER_H_
#define OZZ_SRC_FUZZ_FUZZER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/fuzz/corpus.h"
#include "src/fuzz/executor.h"
#include "src/fuzz/hints.h"
#include "src/fuzz/profile.h"
#include "src/fuzz/report.h"
#include "src/fuzz/syslang.h"
#include "src/obs/metrics.h"
#include "src/osk/kernel.h"

namespace ozz::fuzz {

struct FuzzerOptions {
  u64 seed = 1;
  // Test budget: MTI executions. Programs whose pairs yield no hints consume
  // none of it, so a campaign also stops after this many single-threaded
  // (profiling) runs.
  std::size_t max_mti_runs = 5000;
  HintOptions hints;
  osk::KernelConfig kernel_config;
  // Memory-model backend for the whole campaign: profiling, hint
  // calculation, and MTI execution all use it (the constructor copies it
  // into hints.model — one source of truth). nullptr resolves to lkmm.
  const oemu::MemoryModel* model = nullptr;
  // false: run the same MTIs without OEMU reordering — the conventional
  // interleaving-only concurrency fuzzer (the x86-64 / TCG comparison).
  bool reordering = true;
  bool use_seed_programs = true;
  std::size_t stop_after_bugs = static_cast<std::size_t>(-1);
  // Hint ordering, for the §4.3 search-heuristic ablation.
  enum class HintOrder { kHeuristic, kReverse, kRandom };
  HintOrder hint_order = HintOrder::kHeuristic;
  // Non-empty: every MTI execution writes a reorder trace into this directory
  // as mti_NNNNNN.ozztrace (triage the set with ozz_trace).
  std::string trace_dir;
  // Cooperative cancellation (`ozz_fuzz` SIGINT): when the pointee becomes
  // true the campaign stops at the next budget check and finalizes normally,
  // so every output (metrics, traces, stats) is still flushed.
  const std::atomic<bool>* stop_flag = nullptr;
};

struct FoundBug {
  BugReport report;
  MtiSpec spec;  // the exact (program, pair, hint) that triggered it — replayable
  u64 found_at_test = 0;    // MTI executions when first triggered
  std::size_t hint_rank = 0;  // rank of the triggering hint within its pair
  bool by_largest_hint = false;  // rank 0 == the maximal-reorder hint
};

struct CampaignResult {
  std::vector<FoundBug> bugs;  // deduplicated by crash title
  std::string model;           // memory-model backend the campaign ran under
  u64 mti_runs = 0;
  u64 sti_runs = 0;
  std::size_t corpus_size = 0;
  std::size_t coverage = 0;
  // Static pre-filter accounting across every hint calculation of the
  // campaign (pair stats are collected even when pruning is disabled).
  HintStats hint_stats;
  // This campaign's contribution to the obs metrics registry (counter and
  // histogram deltas as JSON); embedded under "metrics" by CampaignToJson.
  std::string metrics_json;
  // True when the campaign stopped because FuzzerOptions::stop_flag fired
  // rather than by exhausting a budget.
  bool interrupted = false;

  const FoundBug* FindByTitle(const std::string& needle) const;
};

// Machine-readable campaign summary (JSON) for dashboards/CI.
std::string CampaignToJson(const CampaignResult& result);

class Fuzzer {
 public:
  explicit Fuzzer(FuzzerOptions options);
  ~Fuzzer();

  // Full fuzzing campaign: generate + mutate programs until the budget is
  // exhausted or `stop_after_bugs` unique bugs were found.
  CampaignResult Run();

  // §6.2 mode: test one given single-threaded input (a known reproducer)
  // until it crashes or the budget runs out.
  CampaignResult RunProg(const Prog& prog);

  // The syscall table used for generation (backed by a template kernel that
  // is never executed).
  const osk::SyscallTable& table() const;

 private:
  bool Exhausted(const CampaignResult& result) const;
  // Profiles `prog` and runs the hypothetical-barrier tests for every
  // ordered call pair; returns true if the budget is exhausted.
  bool TestProg(const Prog& prog, CampaignResult* result);

  // Runs the interrupt-injection pass over `profile`'s armed calls.
  // Returns true when the budget is exhausted.
  bool TestIrqPoints(const Prog& prog, const ProgProfile& profile, CampaignResult* result);

  // The one experiment path: runs `spec` as an MTI under the campaign's
  // options, counts it, and records its crash unless a bug with the same
  // title was already found. `hint_rank` is the hint's heuristic rank.
  void RunExperiment(const MtiSpec& spec, std::size_t hint_rank, CampaignResult* result);

  // Fills the end-of-campaign fields: corpus/coverage accounting and the
  // metrics delta since `begin` (this campaign's contribution).
  void Finalize(const obs::MetricsSnapshot& begin, CampaignResult* result) const;

  FuzzerOptions options_;
  base::Rng rng_;
  std::unique_ptr<osk::Kernel> template_kernel_;
  std::unique_ptr<ProgGenerator> generator_;
  Corpus corpus_;
};

}  // namespace ozz::fuzz

#endif  // OZZ_SRC_FUZZ_FUZZER_H_
