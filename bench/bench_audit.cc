// Source-level barrier audit benchmark (BENCH_audit.json).
//
// Runs `ozz_audit`'s engine (src/analysis/srcmodel) over the full OSK tree
// and measures, per Table 3/4 scenario:
//   1. recall — does the audit flag a fix-gated pair of the documented
//      reorder class in the scenario's subsystem file? Each scenario must
//      claim a distinct pair (greedy matching), so two scenarios in the same
//      file need two pairs. Acceptance: >= 19/22.
//   2. false sites — fix-gated pairs whose identity still shows up in the
//      fully fixed form (assume_fixed = true). The audit must report zero
//      sites on fixed forms. Acceptance: 0.
//   3. wall-clock of a full-OSK audit (parse + both dataflow modes).
//
// Exits nonzero when a gate fails, so CI can run it directly.
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/srcmodel/audit.h"
#include "src/base/json.h"
#include "tests/scenarios.h"

namespace {

using namespace ozz;
namespace srcmodel = analysis::srcmodel;

// The subsystem file a scenario's documented missing barrier lives in.
std::string ScenarioFile(const std::string& fix_key) {
  if (fix_key == "fs") return "src/osk/subsys/fs_fdtable.cc";
  if (fix_key == "mq") return "src/osk/subsys/mq_sbitmap.cc";
  if (fix_key == "unix") return "src/osk/subsys/unix_sock.cc";
  if (fix_key == "buffer") return "src/osk/subsys/buffer_head.cc";
  return "src/osk/subsys/" + fix_key + ".cc";
}

}  // namespace

int main() {
  std::printf("=== source-level barrier audit: scenario recall + fixed-form check ===\n\n");

  std::vector<srcmodel::SourceFile> files = srcmodel::LoadSourceDir(OZZ_SOURCE_DIR "/src/osk");
  if (files.empty()) {
    std::printf("FAILED: no sources under %s/src/osk\n", OZZ_SOURCE_DIR);
    return 1;
  }

  auto t0 = std::chrono::steady_clock::now();
  srcmodel::AuditReport report = srcmodel::RunAudit(files);
  auto t1 = std::chrono::steady_clock::now();
  const double audit_s = std::chrono::duration<double>(t1 - t0).count();
  std::set<std::string> fixed_ids = srcmodel::UnorderedIdentities(files, /*assume_fixed=*/true);
  const double fixed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();

  FILE* json = std::fopen("BENCH_audit.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"scenarios\": [\n");
  }

  std::printf("%-24s %-28s %-6s %s\n", "scenario", "file", "class", "flagged");
  const std::size_t count = sizeof(fuzz::kBugScenarios) / sizeof(fuzz::kBugScenarios[0]);
  std::set<std::string> claimed;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const fuzz::Scenario& s = fuzz::kBugScenarios[i];
    const std::string file = ScenarioFile(s.fix_key);
    std::string id;
    for (const srcmodel::AuditPair& pair : report.pairs) {
      if (!pair.fix_gated || pair.first.file != file) {
        continue;
      }
      // An S-S scenario's missing store barrier may surface as a
      // store->store OR store->load pair at the source level.
      const bool class_ok = std::string(s.reorder_type) == "L-L"
                                ? pair.cls == srcmodel::PairClass::kLoadLoad
                                : pair.cls != srcmodel::PairClass::kLoadLoad;
      if (!class_ok || claimed.count(pair.Identity()) != 0) {
        continue;
      }
      claimed.insert(pair.Identity());
      id = pair.Identity();
      break;
    }
    matched += id.empty() ? 0 : 1;
    std::printf("%-24s %-28s %-6s %s\n", s.name, file.c_str() + sizeof("src/osk/subsys/") - 1,
                s.reorder_type, id.empty() ? "NO" : "yes");
    if (json != nullptr) {
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"reorder_type\": \"%s\", \"flagged\": %s, "
                   "\"pair\": \"%s\"}%s\n",
                   s.name, s.reorder_type, id.empty() ? "false" : "true",
                   base::JsonEscape(id).c_str(), i + 1 < count ? "," : "");
    }
  }

  // Fixed-form false sites: a fix-gated pair still unordered with every fix
  // flag assumed on would be a pair the "fix" does not actually order.
  std::size_t false_sites = 0;
  for (const srcmodel::AuditPair& pair : report.pairs) {
    if (pair.fix_gated && fixed_ids.count(pair.Identity()) != 0) {
      ++false_sites;
      std::printf("  false site (survives fixed form): %s\n", pair.Identity().c_str());
    }
  }

  if (json != nullptr) {
    std::fprintf(json,
                 "  ],\n  \"totals\": {\"scenarios\": %zu, \"flagged\": %zu, "
                 "\"false_sites\": %zu,\n"
                 "    \"files\": %d, \"functions\": %d, \"sites\": %d, "
                 "\"gated_pairs\": %d, \"residual_pairs\": %d,\n"
                 "    \"audit_wall_s\": %.4f, \"fixed_form_wall_s\": %.4f}\n}\n",
                 count, matched, false_sites, report.files, report.functions, report.sites,
                 report.gated_pairs, report.residual_pairs, audit_s, fixed_s);
    std::fclose(json);
  }

  std::printf("\nTotals: %zu/%zu scenarios flagged, %zu false sites on fixed forms\n", matched,
              count, false_sites);
  std::printf("Audit: %d files, %d functions, %d sites, %d gated + %d residual pairs "
              "in %.3f s (+%.3f s fixed form)\n",
              report.files, report.functions, report.sites, report.gated_pairs,
              report.residual_pairs, audit_s, fixed_s);
  std::printf("wrote BENCH_audit.json\n");

  // Acceptance gates: recall >= 19/22 and zero false sites on fixed forms.
  const bool ok = matched >= 19 && false_sites == 0;
  if (!ok) {
    std::printf("FAILED acceptance: need >= 19/%zu scenarios flagged and 0 false sites\n", count);
  }
  return ok ? 0 : 1;
}
