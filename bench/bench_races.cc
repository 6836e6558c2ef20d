// Static race analyzer benchmark (BENCH_races.json).
//
// Runs `ozz_races`' engine (src/analysis/srcmodel/races) over the full OSK
// tree and measures, per Table 3/4 scenario:
//   1. recall — is a fix-gated race racy under lkmm flagged in the
//      scenario's subsystem file? Each scenario must claim a distinct race
//      pair (greedy matching), so two scenarios in the same file need two
//      pairs. Acceptance: 22/22.
//   2. false positives — racy-pair identities the analyzer still reports
//      with every fix flag assumed applied, under ANY registered model.
//      Acceptance: 0.
//   3. dynamic consistency — no scenario may be statically "safe" under a
//      model whose dynamic trigger matrix (ci/models_baseline.txt, the
//      BENCH_models gate) says the bug fires under that model. Acceptance:
//      0 violations.
//   4. wall-clock of a full-OSK race analysis (parse + per-(model, mode)
//      dataflow + locksets).
//
// Exits nonzero when a gate fails, so CI can run it directly.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/srcmodel/audit.h"
#include "src/analysis/srcmodel/races.h"
#include "src/base/json.h"
#include "src/oemu/memory_model.h"
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

bool RacyUnder(const srcmodel::RacePair& p, const std::string& model) {
  for (const std::string& m : p.racy_models) {
    if (m == model) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main() {
  std::printf("=== static race analyzer: scenario recall + fixed-form + consistency ===\n\n");

  std::vector<srcmodel::SourceFile> files = srcmodel::LoadSourceDir(OZZ_SOURCE_DIR "/src/osk");
  if (files.empty()) {
    std::printf("FAILED: no sources under %s/src/osk\n", OZZ_SOURCE_DIR);
    return 1;
  }

  auto t0 = std::chrono::steady_clock::now();
  srcmodel::RaceReport report = srcmodel::RunRaceAnalysis(files);
  const double analysis_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  FILE* json = std::fopen("BENCH_races.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"scenarios\": [\n");
  }

  // 1. Recall: greedy distinct matching of lkmm fix-gated races.
  std::printf("%-24s %-28s %s\n", "scenario", "file", "flagged");
  const std::size_t count = sizeof(fuzz::kBugScenarios) / sizeof(fuzz::kBugScenarios[0]);
  std::set<std::string> claimed;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const fuzz::Scenario& s = fuzz::kBugScenarios[i];
    const std::string file = ScenarioFile(s.fix_key);
    std::string id;
    for (const srcmodel::RacePair& p : report.races) {
      if (!p.fix_gated || p.first.file != file || !RacyUnder(p, "lkmm") ||
          claimed.count(p.Identity()) != 0) {
        continue;
      }
      claimed.insert(p.Identity());
      id = p.Identity();
      break;
    }
    matched += id.empty() ? 0 : 1;
    std::printf("%-24s %-28s %s\n", s.name, file.c_str() + sizeof("src/osk/subsys/") - 1,
                id.empty() ? "NO" : "yes");
    if (json != nullptr) {
      std::fprintf(json, "    {\"name\": \"%s\", \"flagged\": %s, \"pair\": \"%s\"}%s\n",
                   s.name, id.empty() ? "false" : "true",
                   base::JsonEscape(id).c_str(), i + 1 < count ? "," : "");
    }
  }

  // 2. False positives: nothing may be racy with every fix flag applied.
  std::size_t false_positives = 0;
  for (const oemu::MemoryModel* m : oemu::MemoryModel::All()) {
    for (const std::string& id :
         srcmodel::RacyIdentities(files, m, /*assume_fixed=*/true)) {
      ++false_positives;
      std::printf("  false positive (racy in fixed form, %s): %s\n", m->name(), id.c_str());
    }
  }

  // 3. Dynamic consistency against the per-model trigger matrix: a cell the
  // dynamic gate pins as "yes" must be statically gated under that model.
  std::map<std::string, const srcmodel::FileRaceStats*> by_file;
  for (const srcmodel::FileRaceStats& f : report.files) {
    by_file[f.file] = &f;
  }
  std::map<std::string, std::string> scenario_file;
  for (const fuzz::Scenario& s : fuzz::kBugScenarios) {
    scenario_file[s.name] = ScenarioFile(s.fix_key);
  }
  std::size_t inconsistent = 0;
  std::size_t dynamic_yes = 0;
  std::ifstream matrix(OZZ_SOURCE_DIR "/ci/models_baseline.txt");
  if (!matrix) {
    std::printf("FAILED: cannot read %s/ci/models_baseline.txt\n", OZZ_SOURCE_DIR);
    return 1;
  }
  std::string line;
  while (std::getline(matrix, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream cell(line);
    std::string model, scenario, triggered;
    std::getline(cell, model, '|');
    std::getline(cell, scenario, '|');
    std::getline(cell, triggered, '|');
    if (triggered != "yes") {
      continue;
    }
    ++dynamic_yes;
    auto sf = scenario_file.find(scenario);
    if (sf == scenario_file.end()) {
      std::printf("  consistency: unknown scenario '%s' in models baseline\n",
                  scenario.c_str());
      ++inconsistent;
      continue;
    }
    auto f = by_file.find(sf->second);
    int gated = 0;
    if (f != by_file.end()) {
      auto g = f->second->gated_by_model.find(model);
      gated = g != f->second->gated_by_model.end() ? g->second : 0;
    }
    if (gated < 1) {
      std::printf("  INCONSISTENT: %s triggers dynamically under %s but %s has no "
                  "fix-gated static race under it\n",
                  scenario.c_str(), model.c_str(), sf->second.c_str());
      ++inconsistent;
    }
  }

  if (json != nullptr) {
    std::fprintf(json, "  ],\n  \"models\": {");
    for (std::size_t i = 0; i < report.models.size(); ++i) {
      const std::string& m = report.models[i];
      int gated = 0, residual = 0;
      for (const srcmodel::FileRaceStats& f : report.files) {
        auto g = f.gated_by_model.find(m);
        gated += g != f.gated_by_model.end() ? g->second : 0;
        auto r = f.residual_by_model.find(m);
        residual += r != f.residual_by_model.end() ? r->second : 0;
      }
      std::fprintf(json, "%s\"%s\": {\"gated\": %d, \"residual\": %d}",
                   i == 0 ? "" : ", ", m.c_str(), gated, residual);
    }
    std::fprintf(json,
                 "},\n  \"totals\": {\"scenarios\": %zu, \"flagged\": %zu, "
                 "\"false_positives\": %zu,\n"
                 "    \"dynamic_yes_cells\": %zu, \"inconsistent_cells\": %zu,\n"
                 "    \"files\": %d, \"sites\": %d, \"conflicting\": %d, \"locked\": %d, "
                 "\"ordered\": %d,\n"
                 "    \"gated_races\": %d, \"residual_races\": %d, \"deadlocks\": %zu,\n"
                 "    \"analysis_wall_s\": %.4f}\n}\n",
                 count, matched, false_positives, dynamic_yes, inconsistent, report.files_scanned,
                 report.sites, report.conflicting, report.locked, report.ordered, report.gated,
                 report.residual, report.deadlocks.size(), analysis_s);
    std::fclose(json);
  }

  std::printf("\nTotals: %zu/%zu scenarios flagged, %zu false positives, "
              "%zu/%zu dynamic-yes cells consistent, %.3fs analysis\n",
              matched, count, false_positives, dynamic_yes - inconsistent, dynamic_yes,
              analysis_s);

  const bool ok = matched == count && false_positives == 0 && inconsistent == 0;
  std::printf("%s\n", ok ? "PASS" : "FAILED");
  return ok ? 0 : 1;
}
