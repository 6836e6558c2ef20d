// perfbench: the repository benchmark driver.
//
//   perfbench --workload hunt|replay|analyze --seed N --seconds S --trace 0|1
//             --campaign-seeds A,B,... --replay-seed R [--spans-out FILE]
//
// Run from the repository root: it reads perfbench/ref/, ci/ and src/osk.
// perfbench/run.py builds this binary and supplies the seed lists.
//
// Workloads (closed loop, one operation at a time, one process each):
//   hunt     one operation = one full lkmm campaign (Fuzzer::Run, stop after
//            the 22 bugs) for one seed of --campaign-seeds.
//   replay   one operation = one fuzz::RunMti of the 22 triggering specs of
//            campaign --replay-seed, each run on the stock kernel (must crash
//            with its recorded title) and with its subsystem fixed (must not
//            crash).
//   analyze  one operation = the ozz_analyze path for one (subsystem, model)
//            pair, or the pass's one RunAudit + RunRaceAnalysis over src/osk,
//            checked against the ci/ baselines.
//
// The operation set of a workload is fixed, so counts such as mtis_to_bugs
// repeat exactly; --seed shuffles the order the operations are issued in,
// anew for every pass. A run repeats whole passes until --seconds is spent
// and the workload's minimum number of passes is reached.
//
// --trace 0 prints the end-to-end metrics. --trace 1 spends half the time
// untraced and half with spans around every call the driver makes into the
// modules, then runs one probe of every layer, and prints the per-layer
// metrics. Spans stay in memory and are written to --spans-out at the end.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit code 1 when any output failed its reference check, 2 on a
// usage or set-up error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/analysis/axiomatic.h"
#include "src/analysis/baseline_diff.h"
#include "src/analysis/fence_synth.h"
#include "src/analysis/report.h"
#include "src/analysis/srcmodel/audit.h"
#include "src/analysis/srcmodel/races.h"
#include "src/fuzz/executor.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/profile.h"
#include "src/fuzz/syslang.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
#include "src/oemu/cell.h"
#include "src/oemu/runtime.h"
#include "src/osk/kernel.h"
#include "src/rt/machine.h"

namespace {

using namespace ozz;
namespace srcmodel = analysis::srcmodel;
using Clock = std::chrono::steady_clock;
using perfbench::Scope;

constexpr std::size_t kBugs = 22;      // every hunt campaign must find all of them
// setup_s is the median of at least this many set-ups spread over at least
// kSetupSeconds, so that a millisecond set-up is not one burst of host noise.
constexpr int kSetupRepeats = 7;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMaxPairs = 8;   // ozz_analyze's default ranked pairs per call pair
constexpr u64 kAnalyzeBudget = u64{1} << 18;  // ozz_analyze's default axiomatic budget
constexpr const char* kTitlesPath = "perfbench/ref/hunt_titles.txt";

perfbench::Tracer g_tracer;
u64 g_op = 0;
u64 g_traced_candidates = 0;  // AxResult::candidates summed over traced CheckSlice calls

void NextOp() { g_tracer.SetOp(++g_op); }

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const oemu::MemoryModel* Lkmm() { return oemu::MemoryModel::ByName("lkmm"); }

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// What the timed passes did, and how many operations failed their check.
struct RunLog {
  std::vector<double> op_ms;
  std::vector<double> pass_s;
  u64 attempted = 0;
  u64 failed = 0;
  u64 mtis = 0;

  void Fail(const std::string& what) {
    if (++failed <= 20) {
      std::printf("FAIL %s\n", what.c_str());
    }
  }
};

// ---------------------------------------------------------------- campaigns

struct Campaign {
  std::unique_ptr<fuzz::Fuzzer> fuzzer;  // owns the syscall table the specs point into
  fuzz::CampaignResult result;
  double ms = 0.0;
};

// Per-seed accounting of a campaign run under the profiler.
struct CampaignRecord {
  u64 mtis = 0;
  fuzz::HintStats hints;
  double wall_ms = 0.0;
  std::map<std::string, double> stage_self_ms;
  double execute_total_ms = 0.0;
  u64 execute_count = 0;
  u64 triggered = 0;
  u64 mti_counter = 0;
};

std::map<std::string, const obs::ProfSnapshot::PhaseStat*> PhasesByName(
    const obs::ProfSnapshot& snap) {
  std::map<std::string, const obs::ProfSnapshot::PhaseStat*> out;
  for (const obs::ProfSnapshot::PhaseStat& p : snap.phases) {
    out[p.name] = &p;
  }
  return out;
}

u64 CounterDelta(const obs::MetricsSnapshot& delta, const std::string& name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

// Runs campaigns, checks each found exactly the reference titles with the
// same MTI count every time its seed runs, and keeps a per-seed record of
// the first campaign of each seed that ran under the profiler.
class CampaignBook {
 public:
  explicit CampaignBook(std::set<std::string> titles) : titles_(std::move(titles)) {}

  Campaign Run(u64 seed, obs::Profiler* prof, RunLog* log) {
    obs::ProfSnapshot prof_before;
    obs::MetricsSnapshot metrics_before;
    if (prof != nullptr) {
      prof_before = prof->Snapshot();
      metrics_before = obs::Metrics::Global().Snapshot();
    }
    fuzz::FuzzerOptions options;
    options.seed = seed;
    options.max_mti_runs = 20000;  // ozz_fuzz's default budget
    options.stop_after_bugs = kBugs;
    options.model = Lkmm();
    Campaign c;
    const auto t0 = Clock::now();
    {
      Scope span(g_tracer, "fuzz.campaign");
      c.fuzzer = std::make_unique<fuzz::Fuzzer>(options);
      c.result = c.fuzzer->Run();
    }
    c.ms = Since(t0) * 1e3;
    Check(seed, c.result, log);
    if (prof != nullptr && records_.count(seed) == 0) {
      Record(seed, c, prof_before, prof->Snapshot(),
             obs::Metrics::Delta(metrics_before, obs::Metrics::Global().Snapshot()));
    }
    return c;
  }

  const std::map<u64, CampaignRecord>& records() const { return records_; }

  u64 MtisToBugs(const std::vector<u64>& seeds) const {
    u64 total = 0;
    for (u64 s : seeds) {
      auto it = mtis_.find(s);
      total += it == mtis_.end() ? 0 : it->second;
    }
    return total;
  }

 private:
  void Check(u64 seed, const fuzz::CampaignResult& r, RunLog* log) {
    ++log->attempted;
    std::set<std::string> found;
    for (const fuzz::FoundBug& b : r.bugs) {
      found.insert(b.report.title);
    }
    if (found != titles_) {
      std::string missing;
      for (const std::string& t : titles_) {
        if (found.count(t) == 0) {
          missing += " [" + t + "]";
        }
      }
      log->Fail("campaign seed " + std::to_string(seed) + ": found " +
                std::to_string(found.size()) + " reference titles of " +
                std::to_string(titles_.size()) + "; missing" + missing);
      return;
    }
    auto [it, inserted] = mtis_.emplace(seed, r.mti_runs);
    if (!inserted && it->second != r.mti_runs) {
      log->Fail("campaign seed " + std::to_string(seed) + ": " + std::to_string(r.mti_runs) +
                " MTIs to the bugs, earlier " + std::to_string(it->second));
    }
  }

  void Record(u64 seed, const Campaign& c, const obs::ProfSnapshot& before,
              const obs::ProfSnapshot& after, const obs::MetricsSnapshot& delta) {
    CampaignRecord rec;
    rec.mtis = c.result.mti_runs;
    rec.hints = c.result.hint_stats;
    rec.wall_ms = c.ms;
    const double tick_ms =
        after.ticks_per_sec > 0 ? 1e3 / static_cast<double>(after.ticks_per_sec) : 0.0;
    auto prior = PhasesByName(before);
    for (const obs::ProfSnapshot::PhaseStat& p : after.phases) {
      auto it = prior.find(p.name);
      const obs::ProfSnapshot::PhaseStat* b = it == prior.end() ? nullptr : it->second;
      const u64 self = p.self_ticks - (b != nullptr ? b->self_ticks : 0);
      rec.stage_self_ms[p.name] = static_cast<double>(self) * tick_ms;
      if (p.name == "execute") {
        rec.execute_total_ms =
            static_cast<double>(p.total_ticks - (b != nullptr ? b->total_ticks : 0)) * tick_ms;
        rec.execute_count = p.count - (b != nullptr ? b->count : 0);
      }
    }
    rec.triggered = CounterDelta(delta, "fuzz.hints_triggered");
    rec.mti_counter = CounterDelta(delta, "fuzz.mti_runs");
    records_[seed] = std::move(rec);
  }

  std::set<std::string> titles_;
  std::map<u64, u64> mtis_;  // MTI count of the first campaign of each seed
  std::map<u64, CampaignRecord> records_;
};

bool LoadTitles(std::set<std::string>* titles) {
  std::string text;
  if (!ReadFile(kTitlesPath, &text)) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", kTitlesPath);
    return false;
  }
  std::vector<std::string> lines = analysis::BaselineLines(text);
  titles->clear();
  titles->insert(lines.begin(), lines.end());
  if (titles->size() != kBugs) {
    std::fprintf(stderr, "perfbench: %s holds %zu titles, expected %zu\n", kTitlesPath,
                 titles->size(), kBugs);
    return false;
  }
  return true;
}

// ------------------------------------------------------------------- replay

// The replay stream of one campaign: each triggering spec once on the stock
// kernel and once with its subsystem in KernelConfig::fixed.
class ReplayStream {
 public:
  explicit ReplayStream(Campaign campaign) : campaign_(std::move(campaign)) {}

  std::size_t size() const { return 2 * campaign_.result.bugs.size(); }

  // Runs item `i` of the stream (even: stock kernel, odd: fixed).
  void RunItem(std::size_t i, RunLog* log) {
    const fuzz::FoundBug& bug = campaign_.result.bugs[i / 2];
    const bool fixed = i % 2 == 1;
    fuzz::MtiOptions options;
    options.model = Lkmm();
    if (fixed) {
      options.kernel_config.fixed.insert(bug.report.subsystem);
    }
    NextOp();
    const auto t0 = Clock::now();
    fuzz::MtiResult r;
    {
      Scope span(g_tracer, fixed ? "fuzz.executor.mti.fixed" : "fuzz.executor.mti.crash");
      r = fuzz::RunMti(bug.spec, options);
    }
    log->op_ms.push_back(Since(t0) * 1e3);
    ++log->attempted;
    ++log->mtis;
    if (fixed && r.crashed) {
      log->Fail("replay [" + bug.report.title + "] with " + bug.report.subsystem +
                " fixed crashed: " + r.crash.title);
    } else if (!fixed && (!r.crashed || r.crash.title != bug.report.title)) {
      log->Fail("replay [" + bug.report.title + "] on the stock kernel: " +
                (r.crashed ? "crashed as [" + r.crash.title + "]" : "no crash"));
    }
  }

 private:
  Campaign campaign_;
};

// ------------------------------------------------------------------ analyze

struct AxCounts {
  u64 witnessed = 0;
  u64 refuted = 0;
  u64 bounded = 0;
  u64 candidates = 0;
  u64 fences = 0;

  bool operator==(const AxCounts&) const = default;
};

// Everything the analyze operations read: the source tree, the seed
// programs, and the ci/ baselines the outputs are checked against.
struct AnalyzeInputs {
  std::vector<srcmodel::SourceFile> files;
  std::unique_ptr<osk::Kernel> kernel;  // owns the table the seed programs point into
  std::vector<std::string> subsystems;
  std::vector<fuzz::Prog> progs;
  std::map<std::string, u64> witnessed_floor;     // lkmm floors
  std::map<std::string, osk::KernelConfig> config;  // per-subsystem flags of the floor file
  std::vector<std::string> audit_ref;
  std::vector<std::string> races_ref;
};

bool LoadAnalyzeInputs(AnalyzeInputs* in) {
  in->files = srcmodel::LoadSourceDir("src/osk");
  if (in->files.empty()) {
    std::fprintf(stderr, "perfbench: no sources under src/osk\n");
    return false;
  }
  in->kernel = std::make_unique<osk::Kernel>();
  osk::InstallDefaultSubsystems(*in->kernel);
  in->subsystems.clear();
  in->progs.clear();
  for (const osk::SyscallDesc& d : in->kernel->table().all()) {
    if (in->subsystems.empty() || in->subsystems.back() != d.subsystem) {
      in->subsystems.push_back(d.subsystem);
      in->progs.push_back(fuzz::SeedProgramFor(in->kernel->table(), d.subsystem));
    }
  }
  std::string witnessed;
  std::string audit;
  std::string races;
  if (!ReadFile("ci/witnessed_baseline.txt", &witnessed) ||
      !ReadFile("ci/audit_baseline.txt", &audit) || !ReadFile("ci/races_baseline.txt", &races)) {
    std::fprintf(stderr, "perfbench: cannot read the ci/ baselines\n");
    return false;
  }
  for (const std::string& line : analysis::BaselineLines(witnessed)) {
    std::istringstream ss(line);
    std::string subsys;
    u64 floor = 0;
    std::string flag;
    ss >> subsys >> floor;
    in->witnessed_floor[subsys] = floor;
    while (ss >> flag) {
      if (flag == "--hack-migration") {
        in->config[subsys].percpu_migration_hack = true;
      }
    }
  }
  in->audit_ref = analysis::BaselineLines(audit);
  in->races_ref = analysis::BaselineLines(races);
  return true;
}

// Runs the analyze operations and checks their outputs.
class Analyzer {
 public:
  explicit Analyzer(const AnalyzeInputs* in) : in_(in) {}

  // The ozz_analyze path for one (subsystem, model) pair.
  void Pair(std::size_t i, const oemu::MemoryModel* model, RunLog* log) {
    const std::string& subsys = in_->subsystems[i];
    auto cfg = in_->config.find(subsys);
    const osk::KernelConfig config = cfg == in_->config.end() ? osk::KernelConfig{} : cfg->second;
    analysis::AxOptions ax;
    ax.max_executions = kAnalyzeBudget;
    AxCounts counts;
    ++log->attempted;
    const std::string what = "analyze " + subsys + "/" + model->name();
    fuzz::ProgProfile profile;
    {
      Scope span(g_tracer, "fuzz.profile");
      profile = fuzz::ProfileProg(in_->progs[i], config, model);
    }
    if (profile.crashed) {
      log->Fail(what + ": seed program crashed sequentially: " + profile.crash.title);
      return;
    }
    for (std::size_t a = 0; a < profile.calls.size(); ++a) {
      for (std::size_t b = 0; b < profile.calls.size(); ++b) {
        if (a != b) {
          JudgeCallPair(profile.calls[a].trace, profile.calls[b].trace, model, ax, &counts);
        }
      }
    }
    auto floor = in_->witnessed_floor.find(subsys);
    if (model == Lkmm() && floor != in_->witnessed_floor.end() &&
        counts.witnessed < floor->second) {
      log->Fail(what + ": witnessed " + std::to_string(counts.witnessed) +
                " < ci/witnessed_baseline.txt floor " + std::to_string(floor->second));
    }
    auto [it, inserted] = first_.emplace(what, counts);
    if (!inserted && !(it->second == counts)) {
      log->Fail(what + ": verdicts differ from the first pass");
    }
  }

  // RunAudit + RunRaceAnalysis over src/osk under every model. (A
  // single-model RunRaceAnalysis disagrees with ci/races_baseline.txt for
  // pso, so the matrix is computed the way ozz_races computes it.)
  void Sources(RunLog* log) {
    ++log->attempted;
    srcmodel::AuditReport audit;
    {
      Scope span(g_tracer, "analysis.srcmodel.audit");
      audit = srcmodel::RunAudit(in_->files);
    }
    srcmodel::RaceReport races;
    {
      Scope span(g_tracer, "analysis.srcmodel.races");
      races = srcmodel::RunRaceAnalysis(in_->files);
    }
    std::vector<std::string> residual;
    for (const srcmodel::AuditPair& p : audit.pairs) {
      if (!p.fix_gated) {
        residual.push_back(p.Identity());
      }
    }
    if (const std::string diff = analysis::UnifiedDiff(in_->audit_ref, residual);
        !diff.empty()) {
      log->Fail("sources: audit residual pairs differ from ci/audit_baseline.txt\n" + diff);
    } else if (const std::string rdiff = analysis::UnifiedDiff(
                   in_->races_ref, analysis::BaselineLines(srcmodel::RaceBaselineMatrix(races)));
               !rdiff.empty()) {
      log->Fail("sources: race matrix differs from ci/races_baseline.txt\n" + rdiff);
    }
  }

  const AnalyzeInputs& inputs() const { return *in_; }

  // Verdict counts of the first run of every (subsystem, model) pair.
  void PrintVerdicts() const {
    std::printf("analyze verdicts (witnessed/refuted/bounded per model):\n");
    for (const std::string& subsys : in_->subsystems) {
      std::printf("  %-12s", subsys.c_str());
      for (const oemu::MemoryModel* model : oemu::MemoryModel::All()) {
        auto it = first_.find("analyze " + subsys + "/" + model->name());
        if (it != first_.end()) {
          std::printf(" %s %llu/%llu/%llu", model->name(),
                      static_cast<unsigned long long>(it->second.witnessed),
                      static_cast<unsigned long long>(it->second.refuted),
                      static_cast<unsigned long long>(it->second.bounded));
        }
      }
      std::printf("\n");
    }
  }

 private:
  static void JudgeCallPair(const oemu::Trace& reorder, const oemu::Trace& observer,
                            const oemu::MemoryModel* model, const analysis::AxOptions& ax,
                            AxCounts* counts) {
    Scope pair_span(g_tracer, "analysis.ordering");
    analysis::PairAnalysis pa(reorder, observer, model);
    if (pa.ComputeStats().candidates() == 0) {
      return;
    }
    for (const analysis::RankedPair& p : analysis::RankUnorderedPairs(pa, kMaxPairs)) {
      analysis::AxSlice slice;
      std::string reason;
      bool built = false;
      {
        Scope span(g_tracer, "analysis.axiomatic.slice");
        built = analysis::BuildSlice(pa, p.first_idx, p.second_idx, ax, &slice, &reason);
      }
      if (!built) {
        ++counts->bounded;
        continue;
      }
      analysis::AxResult r;
      {
        Scope span(g_tracer, "analysis.axiomatic.check");
        r = analysis::CheckSlice(slice, ax);
      }
      counts->candidates += r.candidates;
      if (g_tracer.on()) {
        g_traced_candidates += r.candidates;
      }
      switch (r.verdict) {
        case analysis::AxVerdict::kWitnessed: {
          ++counts->witnessed;
          Scope span(g_tracer, "analysis.fence_synth");
          counts->fences += analysis::SynthesizeFence(slice, ax).found ? 1 : 0;
          break;
        }
        case analysis::AxVerdict::kRefutedExact:
          ++counts->refuted;
          break;
        case analysis::AxVerdict::kBoundedOut:
          ++counts->bounded;
          break;
      }
    }
  }

  const AnalyzeInputs* in_;
  std::map<std::string, AxCounts> first_;
};

// ---------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::vector<u64> campaign_seeds;
  u64 replay_seed = 0;
  std::string spans_out;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the first timed operation. Runs repeatedly (see
  // kSetupRepeats); the last set-up's state is the one the passes use.
  virtual bool Setup(RunLog* log) = 0;
  // One pass over the fixed operation set, in an order drawn from `rng`.
  virtual void Pass(std::mt19937_64& rng, RunLog* log) = 0;
  // Passes a run makes at least, so that the percentile op_tail_ms picks
  // does not depend on how many passes fit into --seconds: 3 puts hunt's
  // 40 operations per pass at p90, 25 and 13 put replay and analyze at p99.
  virtual int MinPasses() const = 0;
  // Workload-specific lines after the metrics.
  virtual void PrintExtras() const {}
};

// hunt: one operation is one campaign of the seed list.
class Hunt : public Workload {
 public:
  explicit Hunt(const Args& args) : seeds_(args.campaign_seeds) {}

  bool Setup(RunLog* log) override {
    std::set<std::string> titles;
    if (!LoadTitles(&titles)) {
      return false;
    }
    book_ = std::make_unique<CampaignBook>(std::move(titles));
    // Warm-up: faults in code and lets lazy registries fill before timing.
    book_->Run(seeds_.front(), nullptr, log);
    return true;
  }

  void Pass(std::mt19937_64& rng, RunLog* log) override {
    std::vector<u64> order = seeds_;
    std::shuffle(order.begin(), order.end(), rng);
    for (u64 seed : order) {
      NextOp();
      Campaign c = book_->Run(seed, obs::Profiler::Active(), log);
      log->op_ms.push_back(c.ms);
      log->mtis += c.result.mti_runs;
    }
  }

  int MinPasses() const override { return 3; }

  void PrintExtras() const override {
    std::printf("metric mtis_to_bugs = %llu count (deterministic; %zu campaign seeds)\n",
                static_cast<unsigned long long>(book_->MtisToBugs(seeds_)), seeds_.size());
  }

  CampaignBook* book() { return book_.get(); }

 private:
  std::vector<u64> seeds_;
  std::unique_ptr<CampaignBook> book_;
};

// replay: one operation is one MTI of the replay stream.
class Replay : public Workload {
 public:
  explicit Replay(const Args& args) : seed_(args.replay_seed) {}

  bool Setup(RunLog* log) override {
    std::set<std::string> titles;
    if (!LoadTitles(&titles)) {
      return false;
    }
    CampaignBook book(std::move(titles));
    stream_ = std::make_unique<ReplayStream>(book.Run(seed_, nullptr, log));
    return stream_->size() == 2 * kBugs;
  }

  void Pass(std::mt19937_64& rng, RunLog* log) override {
    std::vector<std::size_t> order(stream_->size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i : order) {
      stream_->RunItem(i, log);
    }
  }

  int MinPasses() const override { return 25; }

 private:
  u64 seed_;
  std::unique_ptr<ReplayStream> stream_;
};

// analyze: one operation per (subsystem, model) pair plus one source pass.
class Analyze : public Workload {
 public:
  bool Setup(RunLog* /*log*/) override {
    inputs_ = std::make_unique<AnalyzeInputs>();
    if (!LoadAnalyzeInputs(inputs_.get())) {
      return false;
    }
    analyzer_ = std::make_unique<Analyzer>(inputs_.get());
    // Warm-up: registers every instrumented site of the seed programs.
    for (const fuzz::Prog& prog : inputs_->progs) {
      (void)fuzz::ProfileProg(prog, osk::KernelConfig{}, Lkmm());
    }
    return true;
  }

  void Pass(std::mt19937_64& rng, RunLog* log) override {
    const std::vector<const oemu::MemoryModel*>& models = oemu::MemoryModel::All();
    // (subsystem index, model index); (-1, 0) is the source pass.
    std::vector<std::pair<int, std::size_t>> order = {{-1, 0}};
    for (std::size_t m = 0; m < models.size(); ++m) {
      for (std::size_t i = 0; i < inputs_->subsystems.size(); ++i) {
        order.emplace_back(static_cast<int>(i), m);
      }
    }
    std::shuffle(order.begin(), order.end(), rng);
    for (const auto& [i, m] : order) {
      NextOp();
      const auto t0 = Clock::now();
      {
        Scope span(g_tracer, "bench.analyze.op");
        if (i < 0) {
          analyzer_->Sources(log);
        } else {
          analyzer_->Pair(static_cast<std::size_t>(i), models[m], log);
        }
      }
      log->op_ms.push_back(Since(t0) * 1e3);
    }
  }

  int MinPasses() const override { return 13; }

  Analyzer* analyzer() { return analyzer_.get(); }

  void PrintExtras() const override { analyzer_->PrintVerdicts(); }

 private:
  std::unique_ptr<AnalyzeInputs> inputs_;
  std::unique_ptr<Analyzer> analyzer_;
};

// ------------------------------------------------------------------- probes

// Fixed-cost and per-layer probes, timed from outside through public
// constructors and functions. Run once at the end of every traced run so
// each traced run reports every layer.
struct ProbeResult {
  u64 hints_generated = 0;
  double switch_us = 0.0;
  double access_ns = 0.0;
};

constexpr int kSetupProbes = 200;
constexpr int kBatches = 10;
constexpr int kSwitchesPerBatch = 2000;
constexpr int kAccessesPerBatch = 20000;

ProbeResult Probe(u64 campaign_seed, CampaignBook* book, Analyzer* analyzer, RunLog* log) {
  ProbeResult out;
  NextOp();
  for (int i = 0; i < kSetupProbes; ++i) {
    Scope span(g_tracer, "osk.kernel.setup");
    osk::Kernel kernel;
    osk::InstallDefaultSubsystems(kernel);
  }
  for (int i = 0; i < kSetupProbes; ++i) {
    Scope span(g_tracer, "rt.machine.setup");
    rt::Machine machine(2);
    machine.AddThread("a", 0, [] {});
    machine.AddThread("b", 1, [] {});
    machine.Run();
  }
  std::vector<double> switch_batches;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    {
      Scope span(g_tracer, "rt.machine.switch");
      rt::Machine machine(2);
      for (CpuId cpu = 0; cpu < 2; ++cpu) {
        machine.AddThread(cpu == 0 ? "a" : "b", cpu, [] {
          for (int i = 0; i < kSwitchesPerBatch / 2; ++i) {
            rt::Machine::Current()->Yield();
          }
        });
      }
      machine.Run();
    }
    switch_batches.push_back(Since(t0) * 1e6);
  }
  const double machine_us = perfbench::Median(g_tracer.DurationsUs("rt.machine.setup"));
  out.switch_us = (perfbench::Median(switch_batches) - machine_us) / kSwitchesPerBatch;
  {
    oemu::Runtime runtime;
    runtime.Activate(nullptr);
    oemu::Cell<u64> x{0};
    u64 sink = 0;
    std::vector<double> batches;
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = Clock::now();
      {
        Scope span(g_tracer, "oemu.runtime.access");
        for (int i = 0; i < kAccessesPerBatch; ++i) {
          OSK_STORE(x, sink + 1);
          sink = OSK_LOAD(x);
        }
      }
      batches.push_back(Since(t0) * 1e9 / kAccessesPerBatch);
    }
    runtime.Deactivate();
    out.access_ns = perfbench::Median(batches);
    if (sink != kAccessesPerBatch * kBatches) {
      log->Fail("access probe: cell reads back " + std::to_string(sink));
    }
  }

  // Profiles and hints of the seed programs, with the fuzzer's hint options.
  const AnalyzeInputs& in = analyzer->inputs();
  fuzz::HintOptions hint_options;
  hint_options.model = Lkmm();
  fuzz::HintStats hint_stats;
  for (const fuzz::Prog& prog : in.progs) {
    NextOp();
    fuzz::ProgProfile profile;
    {
      Scope span(g_tracer, "fuzz.profile");
      profile = fuzz::ProfileProg(prog, osk::KernelConfig{}, Lkmm());
    }
    for (std::size_t a = 0; a < profile.calls.size(); ++a) {
      for (std::size_t b = 0; b < profile.calls.size(); ++b) {
        if (a != b) {
          Scope span(g_tracer, "fuzz.hints");
          (void)fuzz::ComputeHints(profile.calls[a].trace, profile.calls[b].trace, hint_options,
                                   &hint_stats);
        }
      }
    }
  }
  out.hints_generated = hint_stats.hints_generated;

  // The analyze path under lkmm, and the source pass.
  for (std::size_t i = 0; i < in.subsystems.size(); ++i) {
    NextOp();
    analyzer->Pair(i, Lkmm(), log);
  }
  NextOp();
  analyzer->Sources(log);

  // One campaign under the profiler, then its replay stream.
  NextOp();
  obs::Profiler profiler;
  profiler.Activate();
  Campaign campaign = book->Run(campaign_seed, &profiler, log);
  profiler.Deactivate();
  ReplayStream stream(std::move(campaign));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream.RunItem(i, log);
  }
  return out;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count, percentile, prediction
};

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintMetric(const char* kind, const Metric& m) {
  std::printf("%s %s = %s %s (%s)\n", kind, m.name.c_str(), Fmt(m.value).c_str(), m.unit.c_str(),
              m.note.c_str());
}

std::string N(std::size_t n) { return "n=" + std::to_string(n); }

// VmHWM of this process image. ru_maxrss would also count the parent's pages
// a fork carried up to exec (run.py's interpreter).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> EndToEnd(const std::vector<double>& setup_s, const RunLog& log) {
  const auto [fastest, slowest] = std::minmax_element(log.pass_s.begin(), log.pass_s.end());
  const perfbench::Tail tail = perfbench::HighestTail(log.op_ms);
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%g of n=%zu, %zu beyond", tail.pct,
                log.op_ms.size(), tail.beyond);
  return {
      {"setup_s", perfbench::Median(setup_s), "s", "median of " + N(setup_s.size())},
      {"wall_s", perfbench::Median(log.pass_s), "s",
       "median pass, " + N(log.pass_s.size()) + ", min " + Fmt(*fastest) + " max " + Fmt(*slowest)},
      {"op_p50_ms", perfbench::Median(log.op_ms), "ms", N(log.op_ms.size())},
      {"op_tail_ms", tail.value, "ms", tail_note},
      {"peak_rss_mb", PeakRssMb(), "MB", "peak resident set of the run"},
  };
}

// Per-layer metrics of a traced run, each with the end-to-end metric it is
// predicted to move.
std::vector<Metric> PerLayer(const CampaignBook& book, const ProbeResult& probe,
                             double overhead) {
  using perfbench::Median;
  using perfbench::Percentile;
  auto dur = [](const char* name) { return g_tracer.DurationsUs(name); };
  auto moves = [](std::size_t n, const std::string& target) {
    return N(n) + "; moves " + target;
  };
  std::vector<Metric> out;
  auto pct = [&](const char* span, const std::string& name, const std::string& target) {
    const std::vector<double> d = dur(span);
    out.push_back({name + ".p50", Percentile(d, 50), "us", moves(d.size(), target)});
    out.push_back({name + ".p99", Percentile(d, 99), "us", moves(d.size(), target)});
  };

  pct("fuzz.profile", "fuzz.profile.call_us", "hunt.wall_s, analyze.op_p50_ms");
  pct("fuzz.hints", "fuzz.hints.call_us", "hunt.wall_s");
  out.push_back({"fuzz.hints.generated", static_cast<double>(probe.hints_generated), "count",
                 "seed-program call pairs; moves hunt.wall_s"});

  // Campaign accounting, one record per distinct campaign seed.
  fuzz::HintStats hs;
  std::map<std::string, double> stage_ms;
  double wall_ms = 0.0;
  double execute_ms = 0.0;
  u64 execute_count = 0;
  u64 triggered = 0;
  u64 mti_counter = 0;
  for (const auto& [seed, rec] : book.records()) {
    hs.Add(rec.hints);
    for (const auto& [stage, ms] : rec.stage_self_ms) {
      stage_ms[stage] += ms;
    }
    wall_ms += rec.wall_ms;
    execute_ms += rec.execute_total_ms;
    execute_count += rec.execute_count;
    triggered += rec.triggered;
    mti_counter += rec.mti_counter;
  }
  const std::size_t campaigns = book.records().size();
  const double per_campaign = campaigns > 0 ? 1.0 / static_cast<double>(campaigns) : 0.0;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::string cnote = std::to_string(campaigns) + " campaigns";
  const double generated = static_cast<double>(hs.hints_generated);
  out.push_back({"analysis.ordering.prune_ratio",
                 ratio(static_cast<double>(hs.hints_pruned_static), generated), "ratio",
                 cnote + "; moves hunt.mtis_to_bugs"});
  out.push_back({"analysis.axiomatic.prune_ratio",
                 ratio(static_cast<double>(hs.hints_pruned_axiomatic), generated), "ratio",
                 cnote + "; moves hunt.mtis_to_bugs"});
  out.push_back({"analysis.axiomatic.witnessed", static_cast<double>(hs.pairs_witnessed), "count",
                 cnote + "; moves hunt.mtis_to_bugs"});
  out.push_back({"analysis.axiomatic.refuted", static_cast<double>(hs.pairs_refuted), "count",
                 cnote + "; moves hunt.mtis_to_bugs"});
  out.push_back({"analysis.axiomatic.bounded", static_cast<double>(hs.pairs_bounded), "count",
                 cnote + "; moves hunt.mtis_to_bugs"});

  pct("analysis.axiomatic.check", "analysis.axiomatic.check_us",
      "analyze.op_p50_ms, analyze.op_tail_ms");
  {
    const std::size_t checks = dur("analysis.axiomatic.check").size();
    out.push_back({"analysis.axiomatic.candidates",
                   ratio(static_cast<double>(g_traced_candidates), static_cast<double>(checks)),
                   "count", "mean per CheckSlice, " + moves(checks, "analyze.op_p50_ms, analyze.op_tail_ms")});
  }
  {
    const std::vector<double> d = dur("analysis.fence_synth");
    out.push_back({"analysis.fence_synth.call_us", Median(d), "us",
                   "p50, " + moves(d.size(), "analyze.op_tail_ms")});
  }
  for (const char* what : {"load", "audit", "races"}) {
    const std::string span = std::string("analysis.srcmodel.") + what;
    const std::vector<double> d = g_tracer.DurationsUs(span);
    out.push_back({span + "_ms", Median(d) / 1e3, "ms", "p50, " + moves(d.size(), "analyze.wall_s")});
  }

  pct("fuzz.executor.mti.crash", "fuzz.executor.mti_us.crash", "replay.op_p50_ms, hunt.wall_s");
  pct("fuzz.executor.mti.fixed", "fuzz.executor.mti_us.fixed", "replay.op_p50_ms, hunt.wall_s");
  std::vector<double> mti = dur("fuzz.executor.mti.crash");
  const std::vector<double> fixed = dur("fuzz.executor.mti.fixed");
  mti.insert(mti.end(), fixed.begin(), fixed.end());
  const double mti_p50 = Median(mti);
  out.push_back({"fuzz.executor.mti_us.p50", mti_p50, "us", moves(mti.size(), "replay.op_p50_ms")});
  out.push_back({"fuzz.executor.trigger_ratio",
                 ratio(static_cast<double>(triggered), static_cast<double>(mti_counter)), "ratio",
                 "triggering MTIs / MTIs over " + cnote + "; moves hunt.mtis_to_bugs"});

  const std::vector<double> kernel = dur("osk.kernel.setup");
  const std::vector<double> machine = dur("rt.machine.setup");
  const double kernel_us = Median(kernel);
  const double machine_us = Median(machine);
  const double probe_sum = kernel_us + machine_us + probe.switch_us + probe.access_ns / 1e3;
  out.push_back({"fuzz.executor.probe_sum_us", probe_sum, "us",
                 "kernel + machine + one switch + one access, beside fuzz.executor.mti_us.p50 " +
                     Fmt(mti_p50)});
  out.push_back({"fuzz.executor.unaccounted_ratio", mti_p50 > 0 ? 1.0 - probe_sum / mti_p50 : 0.0,
                 "ratio", "share of the MTI p50 the probes do not cover"});
  out.push_back({"osk.kernel.setup_us", kernel_us, "us", "p50, " + moves(kernel.size(), "replay.op_p50_ms")});
  out.push_back({"rt.machine.setup_us", machine_us, "us", "p50, " + moves(machine.size(), "replay.op_p50_ms")});
  out.push_back({"rt.machine.switch_us", probe.switch_us, "us",
                 std::to_string(kBatches) + " batches of " + std::to_string(kSwitchesPerBatch) +
                     "; moves replay.op_tail_ms"});
  out.push_back({"oemu.runtime.access_ns", probe.access_ns, "ns",
                 "store+load, " + std::to_string(kBatches) + " batches of " +
                     std::to_string(kAccessesPerBatch) + "; control layer, moves nothing"});

  double self_sum = 0.0;
  for (const char* stage :
       {"profile", "hint-compute", "static-prune", "axiomatic", "execute", "oracle", "report"}) {
    const double ms = stage_ms[stage] * per_campaign;
    self_sum += ms;
    out.push_back({std::string("fuzz.stage.") + stage + ".self_ms", ms, "ms",
                   "per campaign, " + cnote + "; moves hunt.wall_s"});
  }
  out.push_back({"fuzz.stage.unattributed_ms", wall_ms * per_campaign - self_sum, "ms",
                 "campaign wall minus stage self, per campaign; moves hunt.wall_s"});
  const double execute_us = ratio(execute_ms * 1e3, static_cast<double>(execute_count));
  out.push_back({"analysis.ordering.us_per_pruned_hint",
                 ratio(stage_ms["static-prune"] * 1e3, static_cast<double>(hs.hints_pruned_static)),
                 "us", "against fuzz.executor.mti_us.mean; moves hunt.wall_s"});
  out.push_back({"analysis.axiomatic.us_per_pruned_hint",
                 ratio(stage_ms["axiomatic"] * 1e3, static_cast<double>(hs.hints_pruned_axiomatic)),
                 "us", "against fuzz.executor.mti_us.mean; moves hunt.wall_s"});
  out.push_back({"fuzz.executor.mti_us.mean", execute_us, "us",
                 "profiler execute phase per MTI, " + cnote + "; moves hunt.wall_s"});
  out.push_back({"bench.trace_overhead_ratio", overhead, "ratio",
                 "traced / untraced wall_s of this workload"});
  return out;
}

double StageMs(const CampaignRecord& rec, const std::string& stage) {
  auto it = rec.stage_self_ms.find(stage);
  return it == rec.stage_self_ms.end() ? 0.0 : it->second;
}

// Prune-tier cost against benefit per campaign seed: stage self time per
// pruned hint beside the mean cost of the MTI a pruned hint saves.
void PrintCostBenefit(const CampaignBook& book) {
  std::printf("prune-tier cost/benefit per campaign seed (us per pruned hint vs mean MTI us):\n");
  std::printf("  %6s %6s %9s %7s %7s %11s %11s %9s\n", "seed", "mtis", "generated", "p_stat",
              "p_axio", "stat_us/hnt", "axio_us/hnt", "mti_us");
  for (const auto& [seed, rec] : book.records()) {
    auto per = [](double ms, u64 n) { return n > 0 ? ms * 1e3 / static_cast<double>(n) : 0.0; };
    std::printf("  %6llu %6llu %9llu %7llu %7llu %11.1f %11.1f %9.1f\n",
                static_cast<unsigned long long>(seed), static_cast<unsigned long long>(rec.mtis),
                static_cast<unsigned long long>(rec.hints.hints_generated),
                static_cast<unsigned long long>(rec.hints.hints_pruned_static),
                static_cast<unsigned long long>(rec.hints.hints_pruned_axiomatic),
                per(StageMs(rec, "static-prune"), rec.hints.hints_pruned_static),
                per(StageMs(rec, "axiomatic"), rec.hints.hints_pruned_axiomatic),
                per(rec.execute_total_ms, rec.execute_count));
  }
}

bool ParseSeeds(const std::string& text, std::vector<u64>* out) {
  std::istringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
    if (item.empty() || *end != '\0') {
      return false;
    }
    out->push_back(v);
  }
  return !out->empty();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_replay = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else if (arg == "--campaign-seeds") {
      if (!ParseSeeds(value, &args->campaign_seeds)) {
        return false;
      }
    } else if (arg == "--replay-seed") {
      args->replay_seed = std::strtoull(value.c_str(), &end, 10);
      have_replay = *end == '\0' && !value.empty();
    } else if (arg == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_seed && have_replay && !args->campaign_seeds.empty() && args->seconds > 0 &&
         (args->workload == "hunt" || args->workload == "replay" || args->workload == "analyze");
}

void PrintResult(bool correct, const RunLog& log, const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<u64>(log.attempted, 1)) +
                     ", \"failed\": " + std::to_string(log.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + Fmt(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
}

// Whole passes until `seconds` have elapsed and the workload's minimum
// number of passes is reached.
void Loop(Workload* w, std::mt19937_64& rng, double seconds, RunLog* log) {
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    w->Pass(rng, log);
    log->pass_s.push_back(Since(t0));
  } while (Since(start) < seconds || static_cast<int>(log->pass_s.size()) < w->MinPasses());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hunt|replay|analyze --seed N --seconds S "
                 "--trace 0|1 --campaign-seeds A,B,... --replay-seed R [--spans-out FILE]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload;
  Hunt* hunt = nullptr;
  Analyze* analyze = nullptr;
  if (args.workload == "hunt") {
    auto h = std::make_unique<Hunt>(args);
    hunt = h.get();
    workload = std::move(h);
  } else if (args.workload == "replay") {
    workload = std::make_unique<Replay>(args);
  } else {
    auto a = std::make_unique<Analyze>();
    analyze = a.get();
    workload = std::move(a);
  }

  RunLog log;
  std::vector<double> setup_s;
  const auto setup_start = Clock::now();
  do {
    const auto t0 = Clock::now();
    const bool ok = workload->Setup(&log);
    setup_s.push_back(Since(t0));
    if (!ok) {
      std::fprintf(stderr, "perfbench: %s set-up failed\n", args.workload.c_str());
      return 2;
    }
  } while (static_cast<int>(setup_s.size()) < kSetupRepeats || Since(setup_start) < kSetupSeconds);

  std::mt19937_64 rng(args.seed);
  if (!args.trace) {
    Loop(workload.get(), rng, args.seconds, &log);
    const std::vector<Metric> e2e = EndToEnd(setup_s, log);
    for (const Metric& m : e2e) {
      PrintMetric("metric", m);
    }
    if (log.mtis > 0) {
      PrintMetric("metric", {"mti_per_s", static_cast<double>(log.mtis) /
                                             std::accumulate(log.pass_s.begin(), log.pass_s.end(), 0.0), "1/s",
                             std::to_string(log.mtis) + " MTIs"});
    }
    workload->PrintExtras();
    std::printf("metric failed_ops = %s ratio (%llu of %llu operations)\n",
                Fmt(static_cast<double>(log.failed) / static_cast<double>(std::max<u64>(log.attempted, 1))).c_str(),
                static_cast<unsigned long long>(log.failed),
                static_cast<unsigned long long>(log.attempted));
    PrintResult(log.failed == 0, log, e2e);
    return log.failed == 0 ? 0 : 1;
  }

  // Traced mode: untraced half, traced half, then the layer probes.
  RunLog plain;
  Loop(workload.get(), rng, args.seconds / 2, &plain);
  RunLog traced;
  g_tracer.Enable(true);
  {
    obs::Profiler profiler;
    if (hunt != nullptr) {  // hunt's stage metrics come from its own campaigns
      profiler.Activate();
    }
    Loop(workload.get(), rng, args.seconds / 2, &traced);
    profiler.Deactivate();
  }
  std::unique_ptr<CampaignBook> own_book;
  CampaignBook* book = hunt != nullptr ? hunt->book() : nullptr;
  if (book == nullptr) {
    std::set<std::string> titles;
    if (!LoadTitles(&titles)) {
      return 2;
    }
    own_book = std::make_unique<CampaignBook>(std::move(titles));
    book = own_book.get();
  }
  std::unique_ptr<AnalyzeInputs> own_inputs;
  std::unique_ptr<Analyzer> own_analyzer;
  Analyzer* analyzer = analyze != nullptr ? analyze->analyzer() : nullptr;
  if (analyzer == nullptr) {
    own_inputs = std::make_unique<AnalyzeInputs>();
    if (!LoadAnalyzeInputs(own_inputs.get())) {
      return 2;
    }
    own_analyzer = std::make_unique<Analyzer>(own_inputs.get());
    analyzer = own_analyzer.get();
  }
  for (int i = 0; i < 3; ++i) {
    Scope span(g_tracer, "analysis.srcmodel.load");
    (void)srcmodel::LoadSourceDir("src/osk");
  }
  RunLog probe_log;
  const ProbeResult probe = Probe(args.replay_seed, book, analyzer, &probe_log);
  g_tracer.Enable(false);

  const double plain_wall = perfbench::Median(plain.pass_s);
  const double traced_wall = perfbench::Median(traced.pass_s);
  std::printf("end-to-end metrics of the untraced half:\n");
  for (const Metric& m : EndToEnd(setup_s, plain)) {
    PrintMetric("metric", m);
  }
  std::printf("traced wall_s = %s s (median pass, n=%zu)\n", Fmt(traced_wall).c_str(),
              traced.pass_s.size());
  if (hunt != nullptr) {
    PrintCostBenefit(*book);
  }
  std::printf("span self time by layer (ms):");
  for (const auto& [layer, ms] : g_tracer.SelfMsByLayer()) {
    std::printf(" %s=%.1f", layer.c_str(), ms);
  }
  std::printf("\n");
  const std::vector<Metric> layers =
      PerLayer(*book, probe, plain_wall > 0 ? traced_wall / plain_wall : 0.0);
  for (const Metric& m : layers) {
    PrintMetric("layer", m);
  }
  if (!args.spans_out.empty()) {
    if (g_tracer.WriteJsonl(args.spans_out)) {
      std::printf("wrote %zu spans to %s\n", g_tracer.size(), args.spans_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    }
  }
  RunLog total;
  for (const RunLog* l : {&log, &plain, &traced, &probe_log}) {
    total.attempted += l->attempted;
    total.failed += l->failed;
  }
  PrintResult(total.failed == 0, total, layers);
  return total.failed == 0 ? 0 : 1;
}
