// ozz_races: model-aware static race & deadlock analysis of the
// instrumented OSK kernel.
//
// Usage:
//   ozz_races [--src DIR] [--json] [--model NAME] [--assume-fixed]
//             [--baseline FILE] [--print-baseline] [--sarif FILE]
//
// Parses every .cc/.h under DIR (default src/osk), computes interprocedural
// must-hold locksets, and classifies every conflicting access pair (same
// file, same target expression, >= 1 store) as locked, barrier-ordered, or
// racy-under(M) for each registered memory model — so one pair can be racy
// under lkmm/armv8x yet safe under tso. Fix-gated races are the documented
// planted bugs; the per-(model, subsystem) gated/residual matrix feeds the
// CI baseline (ci/races_baseline.txt). ABBA lock-order cycles are reported
// as static deadlock candidates. Like the audit, everything is advisory:
// the fuzzer never consumes it.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "src/analysis/baseline_diff.h"
#include "src/analysis/sarif.h"
#include "src/analysis/srcmodel/races.h"
#include "src/oemu/memory_model.h"

using namespace ozz;
namespace srcmodel = ozz::analysis::srcmodel;

namespace {

void Usage() {
  std::printf(
      "ozz_races — model-aware static race & deadlock analyzer\n\n"
      "  ozz_races [options]\n\n"
      "  --src DIR          source tree to analyze (default: src/osk)\n"
      "  --json             emit one machine-readable JSON report on stdout\n"
      "  --model NAME       focus model for the detailed listing (default: lkmm);\n"
      "                     'all' lists pairs racy under any model\n"
      "  --assume-fixed     print the racy-pair identities of the fixed form only\n"
      "                     (under the focus model; empty when all bugs are fix-gated)\n"
      "  --baseline FILE    fail (exit 1) if the model|file|gated|residual matrix\n"
      "                     differs from FILE (prints a unified diff)\n"
      "  --print-baseline   print the matrix in the baseline format\n"
      "  --sarif FILE       also write the racy pairs as a SARIF 2.1.0 log\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string src_dir = "src/osk";
  std::string baseline_path;
  std::string sarif_path;
  std::string focus = "lkmm";
  bool json = false;
  bool assume_fixed = false;
  bool print_baseline = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--src") {
      src_dir = next();
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--model") {
      focus = next();
    } else if (arg == "--assume-fixed") {
      assume_fixed = true;
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--print-baseline") {
      print_baseline = true;
    } else if (arg == "--sarif") {
      sarif_path = next();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      Usage();
      return 2;
    }
  }

  if (focus != "all" && oemu::MemoryModel::ByName(focus) == nullptr) {
    std::fprintf(stderr, "ozz_races: unknown model '%s' (try: ", focus.c_str());
    for (const oemu::MemoryModel* m : oemu::MemoryModel::All()) {
      std::fprintf(stderr, "%s ", m->name());
    }
    std::fprintf(stderr, "all)\n");
    return 2;
  }

  std::vector<srcmodel::SourceFile> files = srcmodel::LoadSourceDir(src_dir);
  if (files.empty()) {
    std::fprintf(stderr, "ozz_races: no .cc/.h files under '%s'\n", src_dir.c_str());
    return 2;
  }

  if (assume_fixed) {
    const oemu::MemoryModel* m =
        focus == "all" ? &oemu::MemoryModel::Default() : oemu::MemoryModel::ByName(focus);
    for (const std::string& id :
         srcmodel::RacyIdentities(files, m, /*assume_fixed=*/true)) {
      std::printf("%s\n", id.c_str());
    }
    return 0;
  }

  srcmodel::RaceReport report = srcmodel::RunRaceAnalysis(files);

  if (print_baseline) {
    std::printf("# per-(model, subsystem) fix-gated/residual race counts for %s.\n",
                src_dir.c_str());
    std::printf("# regenerate with: ozz_races --src %s --print-baseline\n", src_dir.c_str());
    std::printf("%s", srcmodel::RaceBaselineMatrix(report).c_str());
    return 0;
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "ozz_races: cannot read baseline '%s'\n", baseline_path.c_str());
      return 2;
    }
    std::ostringstream expected_text;
    expected_text << in.rdbuf();
    const std::string diff =
        analysis::UnifiedDiff(analysis::BaselineLines(expected_text.str()),
                              analysis::BaselineLines(srcmodel::RaceBaselineMatrix(report)));
    if (!diff.empty()) {
      std::fprintf(stderr, "%s",
                   analysis::FormatBaselineMismatch(
                       "ozz_races", baseline_path, diff,
                       "ozz_races --src " + src_dir + " --print-baseline")
                       .c_str());
      return 1;
    }
  }

  if (!sarif_path.empty()) {
    std::vector<analysis::SarifResult> results;
    for (const srcmodel::RacePair& p : report.races) {
      analysis::SarifResult r;
      if (p.irq) {
        r.rule_id = p.fix_gated ? "fix-gated-irq-race" : "residual-irq-race";
        r.level = p.fix_gated ? "warning" : "note";
        r.message = p.Identity() + " irq-racy (hardirq handler vs process context" +
                    " with interrupts enabled)" +
                    (p.fix_gated ? " in the buggy form only (fix-gated)" : " even when fixed");
      } else {
        r.rule_id = p.fix_gated ? "fix-gated-race" : "residual-race";
        r.level = p.fix_gated ? "warning" : "note";
        std::string models;
        for (const std::string& m : p.racy_models) {
          models += (models.empty() ? "" : ",") + m;
        }
        r.message = p.Identity() + " racy under {" + models + "}" +
                    (p.fix_gated ? " in the buggy form only (fix-gated)" : " even when fixed");
      }
      r.file = p.first.file;
      r.line = p.first.line;
      results.push_back(std::move(r));
    }
    for (const srcmodel::FileIrqDeadlock& d : report.irq_deadlocks) {
      analysis::SarifResult r;
      r.rule_id = "irq-self-deadlock";
      r.level = "warning";
      r.message = d.candidate.lock_id + " taken in hardirq (" + d.candidate.hardirq_function +
                  ") and process-side with irqs on (" + d.candidate.process_function +
                  ") — can deadlock against its own CPU's handler";
      r.file = d.file;
      r.line = d.candidate.process_line;
      results.push_back(std::move(r));
    }
    std::ofstream out(sarif_path);
    if (!out) {
      std::fprintf(stderr, "ozz_races: cannot write '%s'\n", sarif_path.c_str());
      return 2;
    }
    out << analysis::SarifLog("ozz_races", "src/analysis/srcmodel/races.h", results);
  }

  if (json) {
    std::printf("%s", srcmodel::RaceReportJson(report).c_str());
  } else {
    std::printf("%s",
                srcmodel::FormatRaceText(report, focus == "all" ? "" : focus).c_str());
  }
  return 0;
}
