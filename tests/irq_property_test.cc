// Property test for the irq static tier: random straight-line "timer mod"
// bodies — transactions that store a hi/lo pair, each optionally wrapped in
// local_irq_save/restore — are rendered to OSK-macro source text and
// classified by the irq context/must-irqs-off dataflow (irq-racy vs
// irq-masked, via RacyIdentities); then the SAME body is brute-forced on the
// real rt::Machine: a virtual interrupt is injected after every op (the STI
// enumeration), the registered handler reads the pair, and a torn read is a
// concrete violation. The check is exact in BOTH directions, per memory-model
// backend and per delay-spec configuration:
//   * statically irq-masked programs must never tear (deferred delivery at
//     the outermost restore happens outside the torn window);
//   * statically irq-racy programs must tear at some injection point (the
//     dataflow is exact on straight-line code).
// Zero static/dynamic disagreements is the acceptance bar; the same-CPU race
// must also be model-INdependent (interrupt delivery commits the store
// buffer under every backend), which the per-model loop asserts for free.
//
// The golden end-to-end instance of this property — scenario 24's timerwheel
// under ozz_fuzz — lives in bug_scenarios_test; this test owns the
// program-population sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <set>
#include <source_location>
#include <string>
#include <vector>

#include "src/analysis/srcmodel/races.h"
#include "src/oemu/cell.h"
#include "src/oemu/instr.h"
#include "src/oemu/memory_model.h"
#include "src/oemu/runtime.h"
#include "src/rt/machine.h"
#include "tests/model_param.h"

namespace ozz {
namespace {

namespace srcmodel = analysis::srcmodel;

// One op of the process-context body. Transactions keep the invariant
// "hi == lo outside a masked-or-torn window": every transaction stores the
// same fresh value to hi then lo (optionally with an unrelated store in
// between), so the handler's torn-read oracle is exact.
struct IOp {
  enum Kind : u8 { kStHi, kStLo, kStJunk, kSave, kRestore };
  Kind kind = kStHi;
  u64 value = 0;
};

struct IProg {
  std::vector<IOp> ops;
  bool any_unmasked_window = false;  // ground truth the generator knows
};

IProg GenProg(std::mt19937& rng) {
  IProg p;
  std::uniform_int_distribution<int> tx_count(1, 3);
  std::uniform_int_distribution<int> coin(0, 1);
  const int txs = tx_count(rng);
  for (int t = 0; t < txs; ++t) {
    const bool masked = coin(rng) != 0;
    const u64 v = static_cast<u64>(t) + 1;
    if (masked) {
      p.ops.push_back({IOp::kSave, 0});
    } else {
      p.any_unmasked_window = true;
    }
    p.ops.push_back({IOp::kStHi, v});
    if (coin(rng) != 0) {
      p.ops.push_back({IOp::kStJunk, v});
    }
    p.ops.push_back({IOp::kStLo, v});
    if (masked) {
      p.ops.push_back({IOp::kRestore, 0});
    }
  }
  return p;
}

// --- static side ------------------------------------------------------------

// The handler reads the pair lockless; the body runs under a plain SpinGuard
// (like timerwheel's buggy Mod) so the analyzer's process-vs-process pairs
// classify locked and only the hardirq-vs-process pairs remain.
std::string Render(const IProg& p) {
  std::string out =
      "void Expire(S* s) {\n"
      "  u64 hi = OSK_LOAD(s->hi);\n"
      "  u64 lo = OSK_LOAD(s->lo);\n"
      "  (void)hi; (void)lo;\n"
      "}\n"
      "void Setup(S* s) {\n"
      "  k.RequestIrq(\"tick\", Expire);\n"
      "}\n"
      "void Mod(S* s) {\n"
      "  SpinGuard g(k, s->lock);\n";
  for (const IOp& op : p.ops) {
    const std::string v = std::to_string(op.value);
    switch (op.kind) {
      case IOp::kStHi:
        out += "  OSK_STORE(s->hi, " + v + ");\n";
        break;
      case IOp::kStLo:
        out += "  OSK_STORE(s->lo, " + v + ");\n";
        break;
      case IOp::kStJunk:
        out += "  OSK_STORE(s->junk, " + v + ");\n";
        break;
      case IOp::kSave:
        out += "  k.LocalIrqSave();\n";
        break;
      case IOp::kRestore:
        out += "  k.LocalIrqRestore();\n";
        break;
    }
  }
  out += "}\n";
  return out;
}

bool StaticallyIrqRacy(const IProg& p, const oemu::MemoryModel* model) {
  std::vector<srcmodel::SourceFile> files = {{"src/osk/t.cc", Render(p)}};
  return !srcmodel::RacyIdentities(files, model, /*assume_fixed=*/false).empty();
}

// --- dynamic side -----------------------------------------------------------

oemu::Cell<u64> g_hi{0};
oemu::Cell<u64> g_lo{0};
oemu::Cell<u64> g_junk{0};

InstrId PoolInstr(oemu::InstrKind kind, std::size_t slot) {
  static std::vector<InstrId> stores, loads;
  std::vector<InstrId>& pool = kind == oemu::InstrKind::kStore ? stores : loads;
  while (pool.size() <= slot) {
    pool.push_back(
        oemu::InstrRegistry::Register(kind, "irq_prop", std::source_location::current()));
  }
  return pool[slot];
}

// Executes `p` on a one-CPU machine, raising a virtual interrupt right after
// op index `inject_after` (or before any op for -1). The handler performs
// the torn-read check. With `delay_stores`, every body store is parked in
// the virtual store buffer — interrupt delivery must commit it (§3.1) under
// every backend, so the oracle outcome is unchanged.
bool RunInjection(const IProg& p, int inject_after, bool delay_stores,
                  const oemu::MemoryModel* model) {
  g_hi.set_raw(0);
  g_lo.set_raw(0);
  g_junk.set_raw(0);
  rt::Machine m(1);
  oemu::Runtime::Options opts;
  opts.model = model;
  oemu::Runtime rt(opts);
  rt.Activate(&m);
  const InstrId load_hi = PoolInstr(oemu::InstrKind::kLoad, 0);
  const InstrId load_lo = PoolInstr(oemu::InstrKind::kLoad, 1);
  bool torn = false;
  m.SetIrqDispatchHook([&](ThreadId) {
    const u64 hi = LoadCell(load_hi, g_hi);
    const u64 lo = LoadCell(load_lo, g_lo);
    if (hi != lo) {
      torn = true;
    }
  });
  if (delay_stores) {
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
      if (p.ops[i].kind != IOp::kSave && p.ops[i].kind != IOp::kRestore) {
        rt.DelayStoreAt(0, PoolInstr(oemu::InstrKind::kStore, i));
      }
    }
  }
  m.AddThread("mod", 0, [&] {
    rt::Machine* mc = rt::Machine::Current();
    int point = -1;
    auto maybe_inject = [&] {
      if (point++ == inject_after) {
        mc->InterruptSelf();
      }
    };
    maybe_inject();
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
      const IOp& op = p.ops[i];
      switch (op.kind) {
        case IOp::kStHi:
          StoreCell(PoolInstr(oemu::InstrKind::kStore, i), g_hi, op.value);
          break;
        case IOp::kStLo:
          StoreCell(PoolInstr(oemu::InstrKind::kStore, i), g_lo, op.value);
          break;
        case IOp::kStJunk:
          StoreCell(PoolInstr(oemu::InstrKind::kStore, i), g_junk, op.value);
          break;
        case IOp::kSave:
          mc->IrqSave();
          break;
        case IOp::kRestore:
          mc->IrqRestore();
          break;
      }
      maybe_inject();
    }
  });
  m.Run();
  rt.Deactivate();
  return torn;
}

// The full STI enumeration: an injection point before the body and after
// every op, crossed with the delay-spec configurations.
bool DynamicallyTears(const IProg& p, const oemu::MemoryModel* model, u64* runs) {
  bool torn = false;
  for (int after = -1; after < static_cast<int>(p.ops.size()); ++after) {
    for (bool delay : {false, true}) {
      *runs += 1;
      if (RunInjection(p, after, delay, model)) {
        torn = true;
      }
    }
  }
  return torn;
}

class IrqVerdictPropertyPerModel : public ::testing::TestWithParam<const oemu::MemoryModel*> {};

TEST_P(IrqVerdictPropertyPerModel, StaticVerdictsMatchInjectionEnumeration) {
  const oemu::MemoryModel* model = GetParam();
  std::mt19937 rng(20260808);
  std::vector<IProg> programs;
  // Canonical shapes first so both verdicts are exercised regardless of the
  // random draw: fully unmasked, fully masked, mask split across
  // transactions, nested saves.
  {
    IProg unmasked;
    unmasked.ops = {{IOp::kStHi, 1}, {IOp::kStLo, 1}};
    unmasked.any_unmasked_window = true;
    programs.push_back(unmasked);
    IProg masked;
    masked.ops = {{IOp::kSave, 0}, {IOp::kStHi, 1}, {IOp::kStLo, 1}, {IOp::kRestore, 0}};
    programs.push_back(masked);
    IProg mixed;
    mixed.ops = {{IOp::kSave, 0}, {IOp::kStHi, 1}, {IOp::kStLo, 1}, {IOp::kRestore, 0},
                 {IOp::kStHi, 2}, {IOp::kStLo, 2}};
    mixed.any_unmasked_window = true;
    programs.push_back(mixed);
    IProg nested;
    nested.ops = {{IOp::kSave, 0}, {IOp::kSave, 0},    {IOp::kStHi, 1}, {IOp::kRestore, 0},
                  {IOp::kStLo, 1}, {IOp::kRestore, 0}};
    programs.push_back(nested);
  }
  for (int i = 0; i < 30; ++i) {
    programs.push_back(GenProg(rng));
  }

  int racy = 0, masked = 0, disagreements = 0;
  u64 runs = 0;
  for (const IProg& p : programs) {
    const bool static_racy = StaticallyIrqRacy(p, model);
    const bool dynamic_torn = DynamicallyTears(p, model, &runs);
    EXPECT_EQ(p.any_unmasked_window, static_racy)
        << "generator ground truth vs static verdict:\n" << Render(p);
    if (static_racy != dynamic_torn) {
      ++disagreements;
      ADD_FAILURE() << "static says " << (static_racy ? "irq-racy" : "irq-masked")
                    << " but the injection enumeration " << (dynamic_torn ? "tore" : "never tore")
                    << " under " << model->name() << ":\n"
                    << Render(p);
    }
    (static_racy ? racy : masked) += 1;
  }
  std::printf("[irq-property %s] programs=%zu racy=%d masked=%d runs=%llu disagreements=%d\n",
              model->name(), programs.size(), racy, masked,
              static_cast<unsigned long long>(runs), disagreements);
  // Both verdicts must be exercised, or the equivalence is vacuous.
  EXPECT_GT(racy, 0);
  EXPECT_GT(masked, 0);
  EXPECT_EQ(disagreements, 0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, IrqVerdictPropertyPerModel,
                         ::testing::ValuesIn(oemu::MemoryModel::All()),
                         oemu::ModelParamName);

}  // namespace
}  // namespace ozz
