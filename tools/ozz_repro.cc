// ozz_repro: replays a crash spec saved by ozz_fuzz --save-dir.
//
// Usage: ozz_repro SPEC_FILE [--fixed SUBSYS]... [--no-reorder] [--runs N]
//                  [--model NAME] [--hack-migration] [--trace-out FILE]
//
// Replays deterministically; --fixed lets a developer confirm a candidate
// patch kills the reproduction, and --no-reorder demonstrates the crash
// needs out-of-order execution. A reproduced crash automatically dumps a
// reorder trace next to the spec (SPEC_FILE.ozztrace; override with
// --trace-out, which also forces a dump for non-crashing replays) — inspect
// it with ozz_trace.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/base/number.h"
#include "src/fuzz/replay.h"
#include "src/fuzz/report.h"
#include "src/osk/kernel.h"

using namespace ozz;

namespace {

void Usage() {
  std::printf(
      "usage: ozz_repro SPEC_FILE [--fixed SUBSYS]... [--no-reorder] [--runs N]\n"
      "                 [--model NAME] [--hack-migration] [--trace-out FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string path = argv[1];
  osk::KernelConfig config;
  bool reorder = true;
  bool trace_requested = false;
  std::string trace_out;
  const oemu::MemoryModel* model = &oemu::MemoryModel::Default();  // $OZZ_DEFAULT_MODEL
  unsigned runs = 1;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--fixed") {
      config.fixed.insert(next());
    } else if (arg == "--no-reorder") {
      reorder = false;
    } else if (arg == "--model") {
      const char* name = next();
      model = oemu::MemoryModel::ByName(name);
      if (model == nullptr) {
        std::printf("unknown memory model '%s' (known: %s)\n", name,
                    oemu::MemoryModel::NamesForHelp().c_str());
        return 2;
      }
    } else if (arg == "--runs") {
      runs = base::FlagNumber<unsigned>("ozz_repro", arg, next());
    } else if (arg == "--trace-out") {
      trace_requested = true;
      trace_out = next();
    } else if (arg == "--hack-migration") {
      config.percpu_migration_hack = true;
    } else {
      Usage();
      return 2;
    }
  }

  std::ifstream in(path);
  if (!in) {
    std::printf("cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  osk::Kernel template_kernel(config);
  osk::InstallDefaultSubsystems(template_kernel);

  fuzz::MtiSpec spec;
  std::string error;
  if (!fuzz::ParseMtiSpec(buf.str(), template_kernel.table(), config, &spec, &error)) {
    std::printf("spec error: %s\n", error.c_str());
    return 2;
  }

  std::printf("replaying %s (%u run%s, reordering %s, model %s)\n", path.c_str(), runs,
              runs == 1 ? "" : "s", reorder ? "on" : "OFF", model->name());
  std::printf("program: %s\n", spec.prog.ToString().c_str());
  std::printf("hint:    %s\n\n", spec.hint.ToString().c_str());

  unsigned crashes = 0;
  fuzz::MtiResult last;
  for (unsigned i = 0; i < runs; ++i) {
    fuzz::MtiOptions options;
    options.kernel_config = config;
    options.reordering = reorder;
    options.model = model;
    last = fuzz::RunMti(spec, options);
    crashes += last.crashed ? 1 : 0;
  }
  if (last.crashed) {
    std::printf("%s\n", fuzz::FormatBugReport(fuzz::MakeBugReport(spec, last)).c_str());
  }
  std::printf("%u/%u runs crashed (deterministic: expect all or none)\n", crashes, runs);

  // Reproduced crashes auto-dump a reorder trace (the replay is
  // deterministic, so one more traced run reproduces the same execution).
  if (crashes > 0 || trace_requested) {
    fuzz::MtiOptions options;
    options.kernel_config = config;
    options.reordering = reorder;
    options.model = model;
    options.trace_path = trace_out.empty() ? path + ".ozztrace" : trace_out;
    options.trace_label = "ozz_repro " + path;
    fuzz::RunMti(spec, options);
    std::printf("reorder trace written to %s (inspect with ozz_trace)\n",
                options.trace_path.c_str());
  }
  return crashes > 0 ? 0 : 1;
}
