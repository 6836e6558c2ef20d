// ozz_trace: inspect .ozztrace files written by ozz_fuzz/ozz_repro.
//
// Usage:
//   ozz_trace PATH... [--timeline] [--perfetto OUT.json] [--json]
//
// PATH arguments are trace files or directories (scanned for *.ozztrace).
// The default output is one triage line per trace — the hint-lifecycle
// verdict explaining why the hypothetical barrier test did or did not
// trigger — plus a verdict histogram. --timeline prints the merged
// per-thread event timeline as text; --perfetto writes Chrome
// trace-event JSON loadable in ui.perfetto.dev (single input only).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/obs/triage.h"

using namespace ozz;
using base::JsonEscape;

namespace {

void Usage() {
  std::printf(
      "ozz_trace — reorder-trace triage and export\n\n"
      "  ozz_trace PATH... [options]    PATH: .ozztrace file or directory\n\n"
      "  --timeline          print the merged event timeline (text)\n"
      "  --perfetto OUT      write Chrome trace-event JSON (open in ui.perfetto.dev);\n"
      "                      requires exactly one input trace\n"
      "  --model NAME        only triage traces recorded under this memory model\n"
      "                      (version-1 traces predate the field and match 'lkmm')\n"
      "  --stats             per-ring event-count/drop summary (no triage/export)\n"
      "  --json              machine-readable triage output\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string perfetto_out;
  std::string model_filter;
  bool timeline = false;
  bool stats = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--perfetto" && i + 1 < argc) {
      perfetto_out = argv[++i];
    } else if (arg == "--model" && i + 1 < argc) {
      model_filter = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      Usage();
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    Usage();
    return 2;
  }

  // Expand directories; keep a deterministic order for stable output.
  std::vector<std::string> paths;
  for (const std::string& in : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(in, ec)) {
      for (const auto& entry : std::filesystem::directory_iterator(in, ec)) {
        if (entry.path().extension() == ".ozztrace") {
          paths.push_back(entry.path().string());
        }
      }
    } else {
      paths.push_back(in);
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "ozz_trace: no .ozztrace files found\n");
    return 2;
  }
  if (!perfetto_out.empty() && paths.size() != 1) {
    std::fprintf(stderr, "ozz_trace: --perfetto requires exactly one input trace (got %zu)\n",
                 paths.size());
    return 2;
  }

  std::map<obs::Verdict, u64> verdict_counts;
  bool first_json = true;
  if (stats) {
    json = false;  // --stats is a plain-text summary
  }
  if (json) {
    std::printf("[");
  }
  for (const std::string& path : paths) {
    obs::TraceFile file;
    std::string error;
    if (!obs::ReadTraceFile(path, &file, &error)) {
      std::fprintf(stderr, "ozz_trace: %s\n", error.c_str());
      return 2;
    }
    // Pre-model (version 1) traces carry no model string; they were
    // necessarily recorded under lkmm, the only backend that existed.
    const std::string trace_model = file.meta.model.empty() ? "lkmm" : file.meta.model;
    if (!model_filter.empty() && trace_model != model_filter) {
      continue;
    }

    if (stats) {
      // Quick ring accounting — no triage, no export.
      u64 file_events = 0;
      std::map<u16, u64> type_counts;
      for (const obs::TraceThread& t : file.threads) {
        file_events += t.events.size();
        for (const obs::TraceEvent& e : t.events) {
          ++type_counts[e.type];
        }
      }
      std::printf("%s [%s] %zu thread(s), %llu event(s), %llu dropped\n", path.c_str(),
                  trace_model.c_str(), file.threads.size(),
                  static_cast<unsigned long long>(file_events),
                  static_cast<unsigned long long>(file.total_dropped()));
      for (const obs::TraceThread& t : file.threads) {
        std::printf("  thread %-3d %8zu event(s) %8llu dropped\n", t.thread,
                    t.events.size(), static_cast<unsigned long long>(t.dropped));
      }
      for (const auto& [type, count] : type_counts) {
        std::printf("  %-20s %llu\n", obs::EvTypeName(static_cast<obs::EvType>(type)),
                    static_cast<unsigned long long>(count));
      }
      continue;
    }

    if (!perfetto_out.empty()) {
      std::ofstream os(perfetto_out, std::ios::trunc);
      os << obs::ToPerfettoJson(file) << '\n';
      if (!os) {
        std::fprintf(stderr, "ozz_trace: cannot write %s\n", perfetto_out.c_str());
        return 2;
      }
      std::printf("wrote %s (open in ui.perfetto.dev or chrome://tracing)\n",
                  perfetto_out.c_str());
    }
    if (timeline) {
      std::printf("%s", obs::ToTimeline(file).c_str());
    }

    obs::HintLifecycle life = obs::TriageTrace(file);
    ++verdict_counts[life.verdict];
    if (json) {
      std::printf("%s\n{\"file\":\"%s\",\"model\":\"%s\",\"verdict\":\"%s\","
                  "\"armed\":%llu,\"hits\":%llu,"
                  "\"delayed\":%llu,\"held\":%llu,\"early\":%llu,\"stale\":%llu,"
                  "\"dropped\":%llu,\"crash\":\"%s\"}",
                  first_json ? "" : ",", JsonEscape(path).c_str(),
                  JsonEscape(trace_model).c_str(),
                  obs::VerdictName(life.verdict), static_cast<unsigned long long>(life.armed),
                  static_cast<unsigned long long>(life.hits),
                  static_cast<unsigned long long>(life.delayed_stores),
                  static_cast<unsigned long long>(life.held_across_switch),
                  static_cast<unsigned long long>(life.early_commits),
                  static_cast<unsigned long long>(life.stale_loads),
                  static_cast<unsigned long long>(life.dropped),
                  JsonEscape(file.meta.crash_title).c_str());
      first_json = false;
    } else if (!timeline) {
      std::printf("%-24s %s  [%s] (%s)%s%s\n", obs::VerdictName(life.verdict), path.c_str(),
                  trace_model.c_str(), life.summary.c_str(),
                  file.meta.crash_title.empty() ? "" : " crash: ",
                  file.meta.crash_title.c_str());
    }
  }
  if (json) {
    std::printf("\n]\n");
  } else if (!timeline && !stats && paths.size() > 1) {
    std::printf("\n%zu trace(s):", paths.size());
    for (const auto& [verdict, count] : verdict_counts) {
      std::printf(" %s=%llu", obs::VerdictName(verdict),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
  return 0;
}
