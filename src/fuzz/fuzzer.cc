#include "src/fuzz/fuzzer.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "src/base/log.h"
#include "src/fuzz/profile.h"
#include "src/obs/metrics.h"

namespace ozz::fuzz {
namespace {

// Campaign shape (§4): calls per generated program, call pairs hint-tested
// per program, and interrupt points tested per call with a hardirq handler
// armed (one MTI each, enumerated over the call's own trace).
constexpr std::size_t kMaxCalls = 5;
constexpr std::size_t kMaxPairsPerProg = 8;
constexpr std::size_t kMaxIrqPointsPerCall = 64;

}  // namespace

std::string CampaignToJson(const CampaignResult& result) {
  std::ostringstream os;
  const HintStats& hs = result.hint_stats;
  os << "{\"model\":\"" << result.model << "\""
     << ",\"mti_runs\":" << result.mti_runs << ",\"sti_runs\":" << result.sti_runs
     << ",\"corpus_size\":" << result.corpus_size << ",\"coverage\":" << result.coverage
     << ",\"hints_generated\":" << hs.hints_generated << ",\"hints_pruned\":" << hs.hints_pruned()
     << ",\"hints_pruned_static\":" << hs.hints_pruned_static
     << ",\"hints_pruned_axiomatic\":" << hs.hints_pruned_axiomatic
     << ",\"pairs_witnessed\":" << hs.pairs_witnessed
     << ",\"pairs_refuted\":" << hs.pairs_refuted
     << ",\"pairs_bounded\":" << hs.pairs_bounded
     << ",\"pair_candidates\":" << hs.pairs.candidates()
     << ",\"pair_proven\":" << hs.pairs.proven()
     << ",\"interrupted\":" << (result.interrupted ? "true" : "false")
     << ",\"metrics\":" << (result.metrics_json.empty() ? "{}" : result.metrics_json)
     << ",\"bugs\":[";
  for (std::size_t i = 0; i < result.bugs.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    const FoundBug& bug = result.bugs[i];
    std::string report = BugReportToJson(bug.report);
    // Fold per-discovery metadata into the report object.
    report.back() = ',';
    os << report << "\"found_at_test\":" << bug.found_at_test
       << ",\"hint_rank\":" << bug.hint_rank << "}";
  }
  os << "]}";
  return os.str();
}

const FoundBug* CampaignResult::FindByTitle(const std::string& needle) const {
  for (const FoundBug& b : bugs) {
    if (b.report.title.find(needle) != std::string::npos) {
      return &b;
    }
  }
  return nullptr;
}

Fuzzer::Fuzzer(FuzzerOptions options) : options_(std::move(options)), rng_(options_.seed) {
  // One source of truth for the campaign's memory model: resolve it once and
  // force the hint options onto it (a mismatched hints.model would compute
  // hints the executing runtime cannot honor).
  options_.model = &oemu::MemoryModel::Resolve(options_.model);
  options_.hints.model = options_.model;
  // The template kernel exists only to expose the syscall table to the
  // generator; it is never executed.
  template_kernel_ = std::make_unique<osk::Kernel>(options_.kernel_config);
  osk::InstallDefaultSubsystems(*template_kernel_);
  generator_ = std::make_unique<ProgGenerator>(template_kernel_->table(), &rng_);
}

Fuzzer::~Fuzzer() = default;

const osk::SyscallTable& Fuzzer::table() const { return template_kernel_->table(); }

bool Fuzzer::Exhausted(const CampaignResult& result) const {
  if (options_.stop_flag != nullptr &&
      options_.stop_flag->load(std::memory_order_relaxed)) {
    return true;
  }
  return result.mti_runs >= options_.max_mti_runs || result.sti_runs >= options_.max_mti_runs ||
         result.bugs.size() >= options_.stop_after_bugs;
}

void Fuzzer::RunExperiment(const MtiSpec& spec, std::size_t hint_rank, CampaignResult* result) {
  MtiOptions mti_opts;
  mti_opts.kernel_config = options_.kernel_config;
  mti_opts.reordering = options_.reordering;
  mti_opts.model = options_.model;
  if (!options_.trace_dir.empty()) {
    std::ostringstream path;
    path << options_.trace_dir << "/mti_" << std::setw(6) << std::setfill('0')
         << result->mti_runs << ".ozztrace";
    mti_opts.trace_path = path.str();
    mti_opts.trace_label = spec.prog.calls[spec.call_a].desc->name + std::string(" || ") +
                           (spec.hint.irq_test ? "irq" : spec.prog.calls[spec.call_b].desc->name);
  }
  const MtiResult mti = RunMti(spec, mti_opts);
  ++result->mti_runs;
  if (!mti.crashed) {
    return;
  }
  for (const FoundBug& existing : result->bugs) {
    if (existing.report.title == mti.crash.title) {
      return;  // duplicate crash title
    }
  }
  FoundBug bug;
  bug.report = MakeBugReport(spec, mti);
  bug.spec = spec;
  bug.found_at_test = result->mti_runs;
  bug.hint_rank = hint_rank;
  bug.by_largest_hint = hint_rank == 0;
  OZZ_LOG(Info) << "new bug after " << result->mti_runs << " tests: " << bug.report.title;
  result->bugs.push_back(std::move(bug));
}

bool Fuzzer::TestProg(const Prog& prog, CampaignResult* result) {
  if (prog.calls.empty()) {
    return false;
  }
  ProgProfile profile = ProfileProg(prog, options_.kernel_config, options_.model);
  ++result->sti_runs;
  if (profile.crashed) {
    // A sequential (non-concurrency) crash — out of scope for OZZ but worth
    // surfacing, as syzkaller would.
    OZZ_LOG(Warn) << "STI crashed sequentially: " << profile.crash.title;
    return false;
  }
  corpus_.Add(prog, profile.coverage);

  // Hypothetical-barrier tests for every ordered pair of calls, up to
  // kMaxPairsPerProg pairs that yield hints.
  const std::size_t n = profile.calls.size();
  std::size_t pairs_tested = 0;
  for (std::size_t a = 0; a < n && pairs_tested < kMaxPairsPerProg; ++a) {
    for (std::size_t b = 0; b < n && pairs_tested < kMaxPairsPerProg; ++b) {
      if (a == b) {
        continue;
      }
      std::vector<SchedHint> hints = ComputeHints(profile.calls[a].trace, profile.calls[b].trace,
                                                  options_.hints, &result->hint_stats);
      if (hints.empty()) {
        continue;
      }
      ++pairs_tested;

      // Remember heuristic ranks before applying the (ablation) order.
      std::vector<std::pair<SchedHint, std::size_t>> ordered;
      ordered.reserve(hints.size());
      for (std::size_t i = 0; i < hints.size(); ++i) {
        ordered.emplace_back(std::move(hints[i]), i);
      }
      switch (options_.hint_order) {
        case FuzzerOptions::HintOrder::kHeuristic:
          break;
        case FuzzerOptions::HintOrder::kReverse:
          std::reverse(ordered.begin(), ordered.end());
          break;
        case FuzzerOptions::HintOrder::kRandom:
          rng_.Shuffle(ordered);
          break;
      }

      for (auto& [hint, rank] : ordered) {
        if (Exhausted(*result)) {
          return true;
        }
        RunExperiment(MtiSpec{prog, a, b, std::move(hint)}, rank, result);
      }
    }
  }
  if (TestIrqPoints(prog, profile, result)) {
    return true;
  }
  return Exhausted(*result);
}

bool Fuzzer::TestIrqPoints(const Prog& prog, const ProgProfile& profile,
                           CampaignResult* result) {
  // The interrupt-injection pass (STI interrupt tier): for every call that
  // runs with a hardirq handler armed, enumerate interrupt points over the
  // call's own trace, one MTI each. Same gate as the reorder machinery —
  // the interleaving-only baseline (--no-reorder) is the conventional
  // fuzzer and injects nothing.
  if (!options_.reordering) {
    return false;
  }
  for (std::size_t c = 0; c < profile.calls.size(); ++c) {
    if (!profile.calls[c].irq_armed) {
      continue;
    }
    std::vector<SchedHint> hints = ComputeIrqHints(profile.calls[c].trace, kMaxIrqPointsPerCall);
    for (std::size_t rank = 0; rank < hints.size(); ++rank) {
      if (Exhausted(*result)) {
        return true;
      }
      RunExperiment(MtiSpec{prog, c, c, std::move(hints[rank])}, rank, result);
    }
  }
  return Exhausted(*result);
}

void Fuzzer::Finalize(const obs::MetricsSnapshot& begin, CampaignResult* result) const {
  result->model = oemu::MemoryModel::Resolve(options_.model).name();
  obs::Metrics::Global().GetCounter("fuzz.campaigns." + result->model).Add();
  result->corpus_size = corpus_.size();
  result->coverage = corpus_.coverage_size();
  result->metrics_json =
      obs::Metrics::ToJson(obs::Metrics::Delta(begin, obs::Metrics::Global().Snapshot()));
  result->interrupted = options_.stop_flag != nullptr &&
                        options_.stop_flag->load(std::memory_order_relaxed);
}

CampaignResult Fuzzer::Run() {
  CampaignResult result;
  const obs::MetricsSnapshot metrics_begin = obs::Metrics::Global().Snapshot();
  if (options_.use_seed_programs) {
    for (const Prog& seed : SeedPrograms(template_kernel_->table())) {
      if (TestProg(seed, &result)) {
        Finalize(metrics_begin, &result);
        return result;
      }
    }
  }
  while (!Exhausted(result)) {
    Prog prog = corpus_.empty() || rng_.OneIn(3)
                    ? generator_->Generate(kMaxCalls)
                    : generator_->Mutate(corpus_.Pick(rng_), kMaxCalls);
    if (TestProg(prog, &result)) {
      break;
    }
  }
  Finalize(metrics_begin, &result);
  return result;
}

CampaignResult Fuzzer::RunProg(const Prog& prog) {
  CampaignResult result;
  const obs::MetricsSnapshot metrics_begin = obs::Metrics::Global().Snapshot();
  Prog current = prog;
  while (!Exhausted(result) && result.bugs.empty()) {
    if (TestProg(current, &result)) {
      break;
    }
    // Mutate the latest variant (resetting to the reproducer occasionally)
    // so the search explores around the seed instead of oscillating on it.
    current = generator_->Mutate(rng_.OneIn(4) ? prog : current, kMaxCalls);
  }
  Finalize(metrics_begin, &result);
  return result;
}

}  // namespace ozz::fuzz
