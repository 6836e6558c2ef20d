// ozz_fuzz: command-line fuzzing campaign driver.
//
// Usage:
//   ozz_fuzz [--seed N] [--budget N] [--bugs N] [--no-reorder]
//            [--fixed SUBSYS]... [--hack-migration] [--hint-order heuristic|reverse|random]
//            [--save-dir DIR] [--list-syscalls] [--seed-prog NAME]
//
// Runs an OZZ campaign over the simulated kernel and prints every unique bug
// report; with --save-dir, each crash is also written as a replayable spec
// (see ozz_repro).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "src/base/log.h"
#include "src/base/number.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/replay.h"
#include "src/obs/prof.h"
#include "src/obs/stats_io.h"
#include "src/oemu/instr.h"

using namespace ozz;

namespace {

// Cooperative SIGINT: the campaign loop polls this through
// FuzzerOptions::stop_flag and exits through its normal finalization path,
// so --metrics-out / --trace-out / the final stats snapshot are all still
// written. A second ^C force-quits.
std::atomic<bool> g_stop{false};

void OnSigint(int) {
  if (g_stop.exchange(true)) {
    std::_Exit(130);
  }
}

// Resolves ids through the process's InstrRegistry (same contract as the
// trace writer in src/fuzz/executor.cc).
bool ResolveInstr(InstrId id, obs::InstrTableEntry* out) {
  if (id == kInvalidInstr || id > oemu::InstrRegistry::Count()) {
    return false;
  }
  const oemu::InstrInfo& info = oemu::InstrRegistry::Info(id);
  out->line = info.line;
  out->kind = static_cast<u8>(info.kind);
  out->file = info.file;
  out->function = info.function;
  out->expr = info.expr;
  return true;
}

void Usage() {
  std::printf(
      "ozz_fuzz — OZZ fuzzing campaign on the simulated kernel\n\n"
      "  --seed N            RNG seed (default 1)\n"
      "  --budget N          MTI test budget (default 20000)\n"
      "  --bugs N            stop after N unique bugs (default: run out the budget)\n"
      "  --no-reorder        disable OEMU reordering (interleaving-only baseline)\n"
      "  --model NAME        memory-model backend: %s\n"
      "                      (default: $OZZ_DEFAULT_MODEL or lkmm)\n"
      "  --no-static-prune   disable the static ordering pre-filter on hints\n"
      "  --no-axiomatic-prune disable the axiomatic model-checking prune tier\n"
      "  --fixed SUBSYS      apply the barrier patch for SUBSYS (repeatable)\n"
      "  --hack-migration    emulate per-CPU thread migration (Table 4 #6)\n"
      "  --hint-order X      heuristic | reverse | random (ablation)\n"
      "  --seed-prog NAME    hunt around one scenario's seed program only\n"
      "  --save-dir DIR      write replayable crash specs into DIR\n"
      "  --trace-out DIR     write a reorder trace per MTI into DIR (see ozz_trace)\n"
      "  --metrics-out FILE  write the campaign's metrics delta (JSON) to FILE\n"
      "  --stats-interval S  emit a live JSON stats snapshot every S seconds\n"
      "                      (fractional ok; render/diff the stream with ozz_stat)\n"
      "  --stats-out FILE    write the stats snapshots to FILE instead of stdout\n"
      "  --prof              activate the hot-path profiler without heartbeats\n"
      "                      (implied by --stats-interval / --stats-out)\n"
      "  --list-syscalls     print the syscall table and exit\n"
      "  -v                  verbose logging\n",
      oemu::MemoryModel::NamesForHelp().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::FuzzerOptions options;
  options.seed = 1;
  options.max_mti_runs = 20000;
  options.model = &oemu::MemoryModel::Default();  // honors $OZZ_DEFAULT_MODEL
  std::string save_dir;
  std::string metrics_out;
  std::string stats_out;
  double stats_interval = 0.0;
  bool prof = false;
  std::string seed_prog;
  bool list_syscalls = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--seed") {
      options.seed = base::FlagNumber<u64>("ozz_fuzz", arg, next());
    } else if (arg == "--budget") {
      options.max_mti_runs = base::FlagNumber<std::size_t>("ozz_fuzz", arg, next());
    } else if (arg == "--bugs") {
      options.stop_after_bugs = base::FlagNumber<std::size_t>("ozz_fuzz", arg, next());
    } else if (arg == "--no-reorder") {
      options.reordering = false;
    } else if (arg == "--model") {
      const char* name = next();
      options.model = oemu::MemoryModel::ByName(name);
      if (options.model == nullptr) {
        std::fprintf(stderr, "ozz_fuzz: unknown memory model '%s' (known: %s)\n", name,
                     oemu::MemoryModel::NamesForHelp().c_str());
        return 2;
      }
    } else if (arg == "--no-static-prune") {
      options.hints.static_prune = false;
    } else if (arg == "--no-axiomatic-prune") {
      options.hints.axiomatic_prune = false;
    } else if (arg == "--fixed") {
      options.kernel_config.fixed.insert(next());
    } else if (arg == "--hack-migration") {
      options.kernel_config.percpu_migration_hack = true;
    } else if (arg == "--hint-order") {
      std::string order = next();
      options.hint_order = order == "reverse"  ? fuzz::FuzzerOptions::HintOrder::kReverse
                           : order == "random" ? fuzz::FuzzerOptions::HintOrder::kRandom
                                               : fuzz::FuzzerOptions::HintOrder::kHeuristic;
    } else if (arg == "--seed-prog") {
      seed_prog = next();
    } else if (arg == "--save-dir") {
      save_dir = next();
    } else if (arg == "--trace-out") {
      options.trace_dir = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--stats-interval") {
      stats_interval = base::FlagNumber<double>("ozz_fuzz", arg, next());
    } else if (arg == "--stats-out") {
      stats_out = next();
    } else if (arg == "--prof") {
      prof = true;
    } else if (arg == "--list-syscalls") {
      list_syscalls = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "-v") {
      base::SetLogLevel(base::LogLevel::kInfo);
    } else {
      Usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  if (!options.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "ozz_fuzz: cannot create --trace-out dir '%s': %s\n",
                   options.trace_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  // Wire cooperative cancellation before the Fuzzer copies its options: a
  // plain ^C then flushes every requested output through the normal
  // finalization path.
  options.stop_flag = &g_stop;
  std::signal(SIGINT, OnSigint);

  fuzz::Fuzzer fuzzer(options);

  if (list_syscalls) {
    for (const osk::SyscallDesc& d : fuzzer.table().all()) {
      std::printf("%-22s [%s]%s\n", d.name.c_str(), d.subsystem.c_str(),
                  d.produces.empty() ? "" : (" -> " + d.produces).c_str());
    }
    return 0;
  }

  if (!json) {
    std::printf("ozz_fuzz: seed=%llu budget=%zu reordering=%s model=%s\n",
                static_cast<unsigned long long>(options.seed), options.max_mti_runs,
                options.reordering ? "on" : "OFF", options.model->name());
  }

  const bool stats = prof || stats_interval > 0.0 || !stats_out.empty();
  obs::Profiler profiler;
  if (stats) {
    profiler.Activate();
  }
  std::ofstream stats_file;
  if (stats && !stats_out.empty()) {
    stats_file.open(stats_out);
    if (!stats_file) {
      std::fprintf(stderr, "ozz_fuzz: cannot write --stats-out file '%s'\n",
                   stats_out.c_str());
      return 2;
    }
  }
  const obs::MetricsSnapshot metrics_begin = obs::Metrics::Global().Snapshot();
  const auto campaign_start = std::chrono::steady_clock::now();
  std::mutex stats_mutex;  // serializes heartbeat vs final emission
  u64 stats_seq = 0;
  auto emit_snapshot = [&](const std::string& kind) {
    const u64 elapsed_us = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - campaign_start)
            .count());
    const obs::StatsSnapshot snap = obs::BuildStatsSnapshot(
        kind, ++stats_seq, elapsed_us, profiler.Snapshot(),
        obs::Metrics::Delta(metrics_begin, obs::Metrics::Global().Snapshot()),
        ResolveInstr);
    const std::string line = obs::WriteStatsJson(snap);
    if (stats_file.is_open()) {
      stats_file << line << "\n" << std::flush;
    } else {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
    }
  };

  std::condition_variable heartbeat_cv;
  bool campaign_done = false;
  std::thread heartbeat;
  if (stats && stats_interval > 0.0) {
    heartbeat = std::thread([&] {
      std::unique_lock<std::mutex> lock(stats_mutex);
      while (!heartbeat_cv.wait_for(lock, std::chrono::duration<double>(stats_interval),
                                    [&] { return campaign_done; })) {
        emit_snapshot("heartbeat");
      }
    });
  }

  fuzz::CampaignResult result =
      seed_prog.empty() ? fuzzer.Run()
                        : fuzzer.RunProg(fuzz::SeedProgramFor(fuzzer.table(), seed_prog));

  if (heartbeat.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      campaign_done = true;
    }
    heartbeat_cv.notify_all();
    heartbeat.join();
  }
  if (stats) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    emit_snapshot("final");
    profiler.Deactivate();
  }
  if (result.interrupted && !json) {
    std::printf("ozz_fuzz: interrupted (SIGINT) — partial campaign results follow\n");
  }

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "ozz_fuzz: cannot write --metrics-out file '%s'\n",
                   metrics_out.c_str());
    } else {
      out << (result.metrics_json.empty() ? "{}" : result.metrics_json) << "\n";
    }
  }

  if (json) {
    std::printf("%s\n", fuzz::CampaignToJson(result).c_str());
    return result.bugs.empty() ? 1 : 0;
  }

  std::printf("\ncampaign: %llu MTI runs, %llu STI runs, corpus=%zu, coverage=%zu instrs\n",
              static_cast<unsigned long long>(result.mti_runs),
              static_cast<unsigned long long>(result.sti_runs), result.corpus_size,
              result.coverage);
  std::printf(
      "hints: %llu generated, pruned %llu static + %llu axiomatic; "
      "pairs: %llu proven / %llu, verdicts %llu witnessed / %llu refuted / %llu bounded\n\n",
      static_cast<unsigned long long>(result.hint_stats.hints_generated),
      static_cast<unsigned long long>(result.hint_stats.hints_pruned_static),
      static_cast<unsigned long long>(result.hint_stats.hints_pruned_axiomatic),
      static_cast<unsigned long long>(result.hint_stats.pairs.proven()),
      static_cast<unsigned long long>(result.hint_stats.pairs.candidates()),
      static_cast<unsigned long long>(result.hint_stats.pairs_witnessed),
      static_cast<unsigned long long>(result.hint_stats.pairs_refuted),
      static_cast<unsigned long long>(result.hint_stats.pairs_bounded));
  for (std::size_t i = 0; i < result.bugs.size(); ++i) {
    const fuzz::FoundBug& bug = result.bugs[i];
    std::printf("=== bug %zu (after %llu tests, hint rank %zu) ===\n%s\n", i,
                static_cast<unsigned long long>(bug.found_at_test), bug.hint_rank,
                FormatBugReport(bug.report).c_str());
  }
  std::printf("%zu unique bug(s)\n", result.bugs.size());

  if (!save_dir.empty()) {
    for (std::size_t i = 0; i < result.bugs.size(); ++i) {
      std::string path = save_dir + "/bug" + std::to_string(i) + ".ozz";
      std::ofstream out(path);
      out << "# " << result.bugs[i].report.title << "\n";
      out << fuzz::SerializeMtiSpec(result.bugs[i].spec);
      std::printf("wrote replayable spec %s (replay with ozz_repro)\n", path.c_str());
    }
  }
  return result.bugs.empty() ? 1 : 0;
}
