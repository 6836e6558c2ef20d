// ozz_analyze: static + axiomatic "candidate missing barrier" report for one
// subsystem.
//
// Usage:
//   ozz_analyze [--fixed SUBSYS]... [--hack-migration] [--pairs N] [--json]
//               [--no-axiomatic] [--budget N] SUBSYSTEM
//
// Profiles the subsystem's canonical seed program single-threaded (§4.2),
// runs the static ordering analysis (src/analysis) over every directed call
// pair, and prints the shared-access pairs the analysis could NOT prove
// ordered, ranked by inversion evidence from the observer trace. Each
// residual pair is then handed to the axiomatic witness engine
// (src/analysis/axiomatic.h): witnessed pairs come with the minimal witness
// execution and a synthesized fence (the cheapest barrier insertion that
// refutes the witness — the suggested repair); refuted-exact pairs are
// false positives of the ranking. With --json the full report is emitted as
// one machine-readable JSON object (the CI gate greps `witnessed_pairs`).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/axiomatic.h"
#include "src/analysis/fence_synth.h"
#include "src/analysis/report.h"
#include "src/analysis/srcmodel/audit.h"
#include "src/analysis/srcmodel/races.h"
#include "src/base/json.h"
#include "src/base/number.h"
#include "src/fuzz/coverage_gap.h"
#include "src/fuzz/profile.h"
#include "src/fuzz/syslang.h"
#include "src/oemu/instr.h"
#include "src/osk/kernel.h"

using namespace ozz;
using base::JsonEscape;

namespace {

void Usage() {
  std::printf(
      "ozz_analyze — ordering analysis of one subsystem's seed program\n\n"
      "  ozz_analyze [options] SUBSYSTEM\n\n"
      "  --fixed SUBSYS      apply the barrier patch for SUBSYS (repeatable)\n"
      "  --hack-migration    emulate per-CPU thread migration (Table 4 #6)\n"
      "  --pairs N           print at most N ranked pairs per call pair (default 8)\n"
      "  --json              emit one machine-readable JSON report on stdout\n"
      "  --model NAME        memory-model backend: %s\n"
      "                      (default: $OZZ_DEFAULT_MODEL or lkmm)\n"
      "  --no-axiomatic      skip the axiomatic witness engine / fence synthesis\n"
      "  --budget N          axiomatic executions budget per pair (default 1<<18)\n"
      "  --audit             run the source-level barrier audit instead (ozz_audit)\n"
      "  --races             run the static race & deadlock analyzer instead (ozz_races)\n"
      "  --src DIR           source tree for --audit/--races (default: src/osk)\n"
      "  --list              print known subsystems and exit\n",
      oemu::MemoryModel::NamesForHelp().c_str());
}

// One ranked pair's axiomatic outcome.
struct PairVerdict {
  analysis::AxResult result;
  analysis::FenceSuggestion fence;  // meaningful only when witnessed
  std::string bound_reason;
};

PairVerdict Judge(const analysis::PairAnalysis& pa, const analysis::RankedPair& p,
                  const analysis::AxOptions& ax) {
  PairVerdict v;
  analysis::AxSlice slice;
  if (!analysis::BuildSlice(pa, p.first_idx, p.second_idx, ax, &slice, &v.bound_reason)) {
    v.result.verdict = analysis::AxVerdict::kBoundedOut;
    v.result.bound_reason = v.bound_reason;
    return v;
  }
  v.result = analysis::CheckSlice(slice, ax);
  if (v.result.verdict == analysis::AxVerdict::kWitnessed) {
    v.fence = analysis::SynthesizeFence(slice, ax);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  osk::KernelConfig config;
  std::string subsystem;
  std::string audit_src = "src/osk";
  std::size_t max_pairs = 8;
  bool audit = false;
  bool races = false;
  bool list = false;
  bool json = false;
  bool axiomatic = true;
  analysis::AxOptions ax;
  ax.max_executions = u64{1} << 18;  // offline tool: be generous
  const oemu::MemoryModel* model = &oemu::MemoryModel::Default();  // $OZZ_DEFAULT_MODEL

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--fixed") {
      config.fixed.insert(next());
    } else if (arg == "--model") {
      const char* name = next();
      model = oemu::MemoryModel::ByName(name);
      if (model == nullptr) {
        std::fprintf(stderr, "ozz_analyze: unknown memory model '%s' (known: %s)\n", name,
                     oemu::MemoryModel::NamesForHelp().c_str());
        return 2;
      }
    } else if (arg == "--hack-migration") {
      config.percpu_migration_hack = true;
    } else if (arg == "--pairs") {
      max_pairs = base::FlagNumber<std::size_t>("ozz_analyze", arg, next());
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--no-axiomatic") {
      axiomatic = false;
    } else if (arg == "--budget") {
      ax.max_executions = base::FlagNumber<u64>("ozz_analyze", arg, next());
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--races") {
      races = true;
    } else if (arg == "--src") {
      audit_src = next();
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      Usage();
      return 2;
    } else {
      subsystem = arg;
    }
  }

  if (races) {
    // Same report as the standalone ozz_races tool, focused on the chosen
    // --model (the per-model matrix always covers every registered backend).
    namespace srcmodel = analysis::srcmodel;
    std::vector<srcmodel::SourceFile> files = srcmodel::LoadSourceDir(audit_src);
    if (files.empty()) {
      std::fprintf(stderr, "ozz_analyze: no .cc/.h files under '%s'\n", audit_src.c_str());
      return 2;
    }
    srcmodel::RaceReport report = srcmodel::RunRaceAnalysis(files);
    if (json) {
      std::printf("%s", srcmodel::RaceReportJson(report).c_str());
    } else {
      std::printf("%s", srcmodel::FormatRaceText(report, model->name()).c_str());
    }
    return 0;
  }

  if (audit) {
    // Same report as the standalone ozz_audit tool: source-level barrier
    // audit plus the dynamic coverage cross-check against the seed corpus.
    namespace srcmodel = analysis::srcmodel;
    std::vector<srcmodel::SourceFile> files = srcmodel::LoadSourceDir(audit_src);
    if (files.empty()) {
      std::fprintf(stderr, "ozz_analyze: no .cc/.h files under '%s'\n", audit_src.c_str());
      return 2;
    }
    srcmodel::AuditReport report = srcmodel::RunAudit(files);
    fuzz::CoverageGap gap = fuzz::CrossCheckCoverage(report, config);
    if (json) {
      std::printf("%s", srcmodel::AuditReportJson(report, fuzz::CoverageGapJsonMember(gap)).c_str());
    } else {
      std::printf("%s\n%s", srcmodel::FormatAuditText(report).c_str(),
                  fuzz::FormatCoverageGap(gap).c_str());
    }
    return 0;
  }

  // A template kernel exposes the syscall table; it is never executed
  // (ProfileProg builds its own fresh instance per run).
  osk::Kernel kernel(config);
  osk::InstallDefaultSubsystems(kernel);

  if (list) {
    std::string last;
    for (const osk::SyscallDesc& d : kernel.table().all()) {
      if (d.subsystem != last) {
        std::printf("%s\n", d.subsystem.c_str());
        last = d.subsystem;
      }
    }
    return 0;
  }
  if (subsystem.empty()) {
    Usage();
    return 2;
  }

  fuzz::Prog seed = fuzz::SeedProgramFor(kernel.table(), subsystem);
  if (seed.calls.empty()) {
    std::fprintf(stderr, "ozz_analyze: unknown subsystem '%s' (try --list)\n", subsystem.c_str());
    return 2;
  }

  fuzz::ProgProfile profile = fuzz::ProfileProg(seed, config, model);
  if (profile.crashed) {
    std::fprintf(stderr, "ozz_analyze: seed program crashed sequentially: %s\n",
                 profile.crash.title.c_str());
    return 1;
  }

  analysis::PairStats total;
  u64 witnessed_total = 0;
  u64 refuted_total = 0;
  u64 bounded_total = 0;
  std::string json_pairs;  // accumulated call-pair objects
  bool first_obj = true;

  for (std::size_t a = 0; a < profile.calls.size(); ++a) {
    for (std::size_t b = 0; b < profile.calls.size(); ++b) {
      if (a == b) {
        continue;
      }
      analysis::PairAnalysis pa(profile.calls[a].trace, profile.calls[b].trace, model);
      analysis::PairStats stats = pa.ComputeStats();
      total.Add(stats);
      if (stats.candidates() == 0) {
        continue;  // nothing shared between this directed pair
      }
      std::vector<analysis::RankedPair> ranked = analysis::RankUnorderedPairs(pa, max_pairs);
      std::vector<PairVerdict> verdicts;
      if (axiomatic) {
        verdicts.reserve(ranked.size());
        for (const analysis::RankedPair& p : ranked) {
          PairVerdict v = Judge(pa, p, ax);
          switch (v.result.verdict) {
            case analysis::AxVerdict::kWitnessed:
              ++witnessed_total;
              break;
            case analysis::AxVerdict::kRefutedExact:
              ++refuted_total;
              break;
            case analysis::AxVerdict::kBoundedOut:
              ++bounded_total;
              break;
          }
          verdicts.push_back(std::move(v));
        }
      }

      if (json) {
        std::string obj = first_obj ? "" : ",\n";
        first_obj = false;
        obj += "    {\"reorder\": \"" + JsonEscape(seed.calls[a].desc->name) +
               "\", \"observer\": \"" + JsonEscape(seed.calls[b].desc->name) +
               "\", \"pair_candidates\": " + std::to_string(stats.candidates()) +
               ", \"pair_proven\": " + std::to_string(stats.proven()) + ", \"pairs\": [";
        for (std::size_t k = 0; k < ranked.size(); ++k) {
          const analysis::RankedPair& p = ranked[k];
          obj += k > 0 ? ",\n      " : "\n      ";
          obj += "{\"first\": \"" + JsonEscape(oemu::InstrRegistry::Describe(p.first)) +
                 "\", \"second\": \"" + JsonEscape(oemu::InstrRegistry::Describe(p.second)) +
                 "\", \"type\": \"" +
                 (p.type == oemu::AccessType::kStore ? "store-store" : "load-load") +
                 "\", \"inversions\": " + std::to_string(p.inversions) +
                 ", \"conflicts\": " + std::to_string(p.conflicts);
          if (axiomatic) {
            const PairVerdict& v = verdicts[k];
            obj += std::string(", \"verdict\": \"") + analysis::AxVerdictName(v.result.verdict) +
                   "\", \"executions\": " + std::to_string(v.result.executions);
            if (v.result.verdict == analysis::AxVerdict::kWitnessed) {
              obj += ", \"witness\": \"" + JsonEscape(v.result.witness.ToString()) + "\"";
              if (v.fence.found) {
                obj += std::string(", \"fence\": {\"kind\": \"") + analysis::FenceName(v.fence.kind) +
                       "\", \"suggestion\": \"" + JsonEscape(v.fence.ToString()) + "\"}";
              }
            } else if (v.result.verdict == analysis::AxVerdict::kBoundedOut &&
                       !v.result.bound_reason.empty()) {
              obj += ", \"bound_reason\": \"" + JsonEscape(v.result.bound_reason) + "\"";
            }
          }
          obj += "}";
        }
        obj += ranked.empty() ? "]}" : "\n    ]}";
        json_pairs += obj;
        continue;
      }

      std::printf("=== %s reorders, %s observes ===\n", seed.calls[a].desc->name.c_str(),
                  seed.calls[b].desc->name.c_str());
      std::printf("%s", analysis::FormatReport(pa, ranked).c_str());
      if (axiomatic) {
        for (std::size_t k = 0; k < ranked.size(); ++k) {
          const analysis::RankedPair& p = ranked[k];
          const PairVerdict& v = verdicts[k];
          std::printf("  pair #%zu [%s]: %s\n", k + 1, analysis::AxVerdictName(v.result.verdict),
                      oemu::InstrRegistry::Describe(p.first).c_str());
          if (v.result.verdict == analysis::AxVerdict::kWitnessed) {
            std::printf("    %s\n", v.result.witness.ToString().c_str());
            if (v.fence.found) {
              std::printf("    suggested repair: %s\n", v.fence.ToString().c_str());
            } else {
              std::printf("    no single fence refutes the witness\n");
            }
          } else if (v.result.verdict == analysis::AxVerdict::kBoundedOut &&
                     !v.result.bound_reason.empty()) {
            std::printf("    bound: %s\n", v.result.bound_reason.c_str());
          }
        }
      }
      std::printf("\n");
    }
  }

  if (json) {
    std::printf(
        "{\n  \"subsystem\": \"%s\",\n  \"model\": \"%s\",\n  \"call_pairs\": [\n%s\n  ],\n"
        "  \"totals\": {\"pair_candidates\": %llu, \"pair_proven\": %llu, "
        "\"witnessed_pairs\": %llu, \"refuted_pairs\": %llu, \"bounded_pairs\": %llu}\n}\n",
        JsonEscape(subsystem).c_str(), model->name(), json_pairs.c_str(),
        static_cast<unsigned long long>(total.candidates()),
        static_cast<unsigned long long>(total.proven()),
        static_cast<unsigned long long>(witnessed_total),
        static_cast<unsigned long long>(refuted_total),
        static_cast<unsigned long long>(bounded_total));
    return 0;
  }

  std::printf("=== %s: totals across all directed call pairs (model %s) ===\n%s",
              subsystem.c_str(), model->name(), analysis::FormatStats(total).c_str());
  if (axiomatic) {
    std::printf(
        "axiomatic verdicts over ranked pairs: %llu witnessed, %llu refuted-exact, %llu "
        "bounded-out\n",
        static_cast<unsigned long long>(witnessed_total),
        static_cast<unsigned long long>(refuted_total),
        static_cast<unsigned long long>(bounded_total));
  }
  return 0;
}
