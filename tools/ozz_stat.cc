// ozz_stat: render or diff campaign stats snapshots (see ozz_fuzz --stats-*).
//
// Usage:
//   ozz_stat [--top N] [--folded] [--json] [--seq N] FILE [FILE2]
//
// FILE is a line-delimited stats stream from `ozz_fuzz --stats-out` (or a
// captured heartbeat stream). With one file, the final snapshot is rendered
// (per-phase time breakdown, top-N hottest sites resolved to
// file:function:line, hint-check path counters, campaign metrics). With two
// files, the diff end-minus-begin of their chosen snapshots is rendered —
// useful for before/after comparisons across optimization work. --folded
// prints collapsed stacks for flamegraph.pl / speedscope instead.
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/number.h"
#include "src/obs/stats_io.h"

using namespace ozz;

namespace {

void Usage() {
  std::printf(
      "ozz_stat — render or diff ozz_fuzz stats snapshots\n\n"
      "  ozz_stat [options] FILE        render FILE's final snapshot\n"
      "  ozz_stat [options] FILE FILE2  render the diff FILE2 - FILE\n\n"
      "  --top N    show the N hottest sites (default 10)\n"
      "  --seq N    pick the snapshot with seq N instead of the last/final one\n"
      "  --folded   emit folded stacks for flamegraph.pl / speedscope\n"
      "  --json     re-emit the chosen (or diffed) snapshot as one JSON line\n");
}

// The snapshot a file "means": --seq N if given, else the last "final"
// snapshot (a completed or interrupted campaign), else the last line (a
// still-running campaign's latest heartbeat).
bool ChooseSnapshot(const std::string& path, long seq, obs::StatsSnapshot* out) {
  std::vector<obs::StatsSnapshot> all;
  std::string error;
  if (!obs::ReadStatsFile(path, &all, &error)) {
    std::fprintf(stderr, "ozz_stat: %s\n", error.c_str());
    return false;
  }
  if (all.empty()) {
    std::fprintf(stderr, "ozz_stat: '%s' holds no snapshots\n", path.c_str());
    return false;
  }
  if (seq >= 0) {
    for (const obs::StatsSnapshot& s : all) {
      if (s.seq == static_cast<u64>(seq)) {
        *out = s;
        return true;
      }
    }
    std::fprintf(stderr, "ozz_stat: '%s' has no snapshot with seq %ld\n", path.c_str(), seq);
    return false;
  }
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (it->kind == "final") {
      *out = *it;
      return true;
    }
  }
  *out = all.back();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t top_n = 10;
  long seq = -1;
  bool folded = false;
  bool json = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--top") {
      top_n = base::FlagNumber<std::size_t>("ozz_stat", arg, next());
    } else if (arg == "--seq") {
      seq = base::FlagNumber<long>("ozz_stat", arg, next());
    } else if (arg == "--folded") {
      folded = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      Usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() || files.size() > 2) {
    Usage();
    return 2;
  }

  obs::StatsSnapshot snapshot;
  if (!ChooseSnapshot(files[0], seq, &snapshot)) {
    return 1;
  }
  if (files.size() == 2) {
    obs::StatsSnapshot end;
    if (!ChooseSnapshot(files[1], seq, &end)) {
      return 1;
    }
    snapshot = obs::DiffStats(snapshot, end);
  }

  if (json) {
    std::printf("%s\n", obs::WriteStatsJson(snapshot).c_str());
  } else if (folded) {
    std::fputs(obs::RenderFolded(snapshot).c_str(), stdout);
  } else {
    std::fputs(obs::RenderStats(snapshot, top_n).c_str(), stdout);
  }
  return 0;
}
