// ozz_audit: source-level barrier audit of the instrumented OSK kernel.
//
// Usage:
//   ozz_audit [--src DIR] [--json] [--assume-fixed] [--no-coverage]
//             [--baseline FILE] [--print-baseline] [--sarif FILE]
//
// Parses every .cc/.h under DIR (default src/osk) with the srcmodel token
// parser, runs the barrier-availability dataflow in both fix-flag modes, and
// reports:
//   * fix-gated pairs — unordered in the buggy form, ordered in the fixed
//     form: the documented missing-barrier sites;
//   * residual pairs  — unordered in both forms: benign under invariants the
//     syntactic model cannot see. These feed the CI baseline
//     (ci/audit_baseline.txt): --baseline fails (exit 1) with a unified diff
//     when the residual set drifts either way, so both new
//     statically-unordered pairs and stale baseline entries need an explicit
//     baseline regeneration to land.
// By default the report also joins static sites against the seed-corpus
// dynamic profile (never-profiled sites, never-hint-tested pairs; see
// src/fuzz/coverage_gap.h). The audit is advisory: the fuzzer never
// consumes it.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "src/analysis/baseline_diff.h"
#include "src/analysis/sarif.h"
#include "src/analysis/srcmodel/audit.h"
#include "src/fuzz/coverage_gap.h"
#include "src/oemu/memory_model.h"

using namespace ozz;
namespace srcmodel = ozz::analysis::srcmodel;

namespace {

void Usage() {
  std::printf(
      "ozz_audit — source-level barrier audit over the instrumented kernel\n\n"
      "  ozz_audit [options]\n\n"
      "  --src DIR          source tree to audit (default: src/osk)\n"
      "  --json             emit one machine-readable JSON report on stdout\n"
      "  --assume-fixed     print the unordered-pair identities of the fixed form only\n"
      "  --no-coverage      skip the dynamic coverage cross-check (faster; CI uses this)\n"
      "  --baseline FILE    fail (exit 1) if the residual pairs differ from FILE\n"
      "                     (prints a unified diff)\n"
      "  --print-baseline   print the residual-pair identities (the baseline format)\n"
      "  --sarif FILE       also write the unordered pairs as a SARIF 2.1.0 log\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string src_dir = "src/osk";
  std::string baseline_path;
  std::string sarif_path;
  bool json = false;
  bool assume_fixed = false;
  bool coverage = true;
  bool print_baseline = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--src") {
      src_dir = next();
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--assume-fixed") {
      assume_fixed = true;
    } else if (arg == "--no-coverage") {
      coverage = false;
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

  std::vector<srcmodel::SourceFile> files = srcmodel::LoadSourceDir(src_dir);
  if (files.empty()) {
    std::fprintf(stderr, "ozz_audit: no .cc/.h files under '%s'\n", src_dir.c_str());
    return 2;
  }

  if (assume_fixed) {
    for (const std::string& id : srcmodel::UnorderedIdentities(files, /*assume_fixed=*/true)) {
      std::printf("%s\n", id.c_str());
    }
    return 0;
  }

  srcmodel::AuditReport report = srcmodel::RunAudit(files);

  if (print_baseline) {
    std::printf("# residual (non-fix-gated) statically-unordered pairs in %s.\n", src_dir.c_str());
    std::printf("# regenerate with: ozz_audit --src %s --print-baseline\n", src_dir.c_str());
    for (const srcmodel::AuditPair& pair : report.pairs) {
      if (!pair.fix_gated) {
        std::printf("%s\n", pair.Identity().c_str());
      }
    }
    return 0;
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "ozz_audit: cannot read baseline '%s'\n", baseline_path.c_str());
      return 2;
    }
    std::ostringstream expected_text;
    expected_text << in.rdbuf();
    std::vector<std::string> actual;
    for (const srcmodel::AuditPair& pair : report.pairs) {
      if (!pair.fix_gated) {
        actual.push_back(pair.Identity());
      }
    }
    const std::string diff =
        analysis::UnifiedDiff(analysis::BaselineLines(expected_text.str()), actual);
    if (!diff.empty()) {
      std::fprintf(stderr, "%s",
                   analysis::FormatBaselineMismatch(
                       "ozz_audit", baseline_path, diff,
                       "ozz_audit --src " + src_dir + " --print-baseline")
                       .c_str());
      return 1;
    }
  }

  if (!sarif_path.empty()) {
    std::vector<analysis::SarifResult> results;
    for (const srcmodel::AuditPair& pair : report.pairs) {
      analysis::SarifResult r;
      r.rule_id = pair.fix_gated ? "fix-gated-unordered-pair" : "residual-unordered-pair";
      r.level = pair.fix_gated ? "warning" : "note";
      r.message = pair.Identity() +
                  (pair.fix_gated ? " is statically unordered in the buggy form only "
                                    "(the documented missing-barrier site)"
                                  : " is statically unordered even when fixed "
                                    "(benign under invariants the syntactic model "
                                    "cannot see; tracked in ci/audit_baseline.txt)");
      r.file = pair.first.file;
      r.line = pair.first.line;
      results.push_back(std::move(r));
    }
    std::ofstream out(sarif_path);
    if (!out) {
      std::fprintf(stderr, "ozz_audit: cannot write '%s'\n", sarif_path.c_str());
      return 2;
    }
    out << analysis::SarifLog("ozz_audit", "src/analysis/srcmodel/audit.h", results);
  }

  std::string coverage_text;
  std::string coverage_json;
  if (coverage) {
    osk::KernelConfig config;
    fuzz::CoverageGap gap = fuzz::CrossCheckCoverage(report, config);
    coverage_text = fuzz::FormatCoverageGap(gap);
    coverage_json = fuzz::CoverageGapJsonMember(gap);
  }

  if (json) {
    // The audit itself is source-level (its barrier dataflow follows the
    // LKMM-annotated sources), but the report records the session's default
    // model so differential pipelines can key reports by backend.
    std::string extra =
        std::string("\"model\": \"") + oemu::MemoryModel::Default().name() + "\"";
    if (!coverage_json.empty()) {
      extra += ",\n  " + coverage_json;
    }
    std::printf("%s", srcmodel::AuditReportJson(report, extra).c_str());
  } else {
    std::printf("%s", srcmodel::FormatAuditText(report).c_str());
    if (!coverage_text.empty()) {
      std::printf("\n%s", coverage_text.c_str());
    }
  }
  return 0;
}
