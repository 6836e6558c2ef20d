// Property test for the static race analyzer's ordering verdicts: random
// two-thread litmus-sized programs (the PR 6 generator, tests/prop_common.h)
// are rendered to OSK-macro source text, parsed by the srcmodel frontend,
// and classified by the model-parameterized barrier dataflow; then every
// delay/read-old spec subset crossed with every interleaving is brute-forced
// through the real OEMU runtime under the SAME memory model. Soundness is
// one-directional, matching the analyzer's contract: a thread-0 access pair
// the dataflow calls *ordered* under model M must never be concretely
// witnessed out of order by any run under M. (Statically-unordered pairs may
// or may not be witnessed — the syntactic model over-approximates — but the
// test asserts some are, so the brute force has teeth.)
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/srcmodel/deps.h"
#include "src/analysis/srcmodel/srcmodel.h"
#include "src/oemu/memory_model.h"
#include "tests/model_param.h"
#include "tests/prop_common.h"

namespace ozz::analysis::srcmodel {
namespace {

using namespace prop;

// Renders one thread's op list as an instrumented OSK function. Cells map to
// fields of a shared struct (`s->c0`..), so the source-level target-identity
// model and the runtime's addresses agree on which accesses conflict.
// Dependency chains render as the DepToken macros (one token per source op),
// mirroring what ExecOp hands the runtime — the srcmodel value-flow pass
// must recover exactly the chains the runtime enforces.
std::string RenderFn(const char* name, const std::vector<POp>& ops) {
  std::string out = std::string("void ") + name + "(S* s) {\n";
  std::set<int> dep_sources;
  for (const POp& op : ops) {
    if (op.HasDep()) {
      dep_sources.insert(op.dep_src);
    }
  }
  for (int s : dep_sources) {
    out += "  oemu::DepToken tok" + std::to_string(s) + ";\n";
  }
  auto tok = [](int src) { return "tok" + std::to_string(src); };
  int reg = 0;
  for (std::size_t i = 0; i < ops.size(); i++) {
    const POp& op = ops[i];
    const std::string cell = "s->c" + std::to_string(op.cell);
    const std::string val = std::to_string(op.value);
    const bool is_source = dep_sources.count(static_cast<int>(i)) != 0;
    switch (op.kind) {
      case POp::kLd:
        out += "  u64 r" + std::to_string(reg++) + " = ";
        if (op.HasDep()) {
          out += "OSK_LOAD_ADDR_DEP(" + cell + ", " + tok(op.dep_src) + ");\n";
        } else if (is_source) {
          out += "OSK_LOAD_TOK(" + cell + ", tok" + std::to_string(i) + ");\n";
        } else {
          out += "OSK_LOAD(" + cell + ");\n";
        }
        break;
      case POp::kLdOnce:
        out += "  u64 r" + std::to_string(reg++) + " = ";
        if (op.HasDep()) {
          out += "OSK_LOAD_ADDR_DEP(" + cell + ", " + tok(op.dep_src) + ");\n";
        } else if (is_source) {
          out += "OSK_READ_ONCE_TOK(" + cell + ", tok" + std::to_string(i) + ");\n";
        } else {
          out += "OSK_READ_ONCE(" + cell + ");\n";
        }
        break;
      case POp::kLdAcq:
        out += "  u64 r" + std::to_string(reg++) + " = OSK_LOAD_ACQUIRE(" + cell + ");\n";
        break;
      case POp::kSt:
        if (op.HasDep()) {
          const char* m = op.dep_kind == oemu::DepKind::kData ? "OSK_STORE_DATA_DEP"
                                                              : "OSK_STORE_CTRL_DEP";
          out += "  " + std::string(m) + "(" + cell + ", " + val + ", " + tok(op.dep_src) + ");\n";
        } else {
          out += "  OSK_STORE(" + cell + ", " + val + ");\n";
        }
        break;
      case POp::kStOnce:
        if (op.HasDep()) {
          const char* m = op.dep_kind == oemu::DepKind::kData ? "OSK_STORE_DATA_DEP"
                                                              : "OSK_STORE_CTRL_DEP";
          out += "  " + std::string(m) + "(" + cell + ", " + val + ", " + tok(op.dep_src) + ");\n";
        } else {
          out += "  OSK_WRITE_ONCE(" + cell + ", " + val + ");\n";
        }
        break;
      case POp::kStRel:
        out += "  OSK_STORE_RELEASE(" + cell + ", " + val + ");\n";
        break;
      case POp::kWmb:
        out += "  OSK_SMP_WMB();\n";
        break;
      case POp::kRmb:
        out += "  OSK_SMP_RMB();\n";
        break;
      case POp::kMb:
        out += "  OSK_SMP_MB();\n";
        break;
    }
  }
  out += "}\n";
  return out;
}

class StaticOrderingPropertyPerModel
    : public ::testing::TestWithParam<const oemu::MemoryModel*> {};

TEST_P(StaticOrderingPropertyPerModel, OrderedVerdictsNeverContradictedByRuntime) {
  const oemu::MemoryModel* model = GetParam();
  std::mt19937 rng(20260808);
  int programs = 0, ordered_pairs = 0, unordered_pairs = 0;
  int witnessed_unordered = 0, dep_discharged_pairs = 0;
  u64 runs = 0;
  for (int iter = 0; iter < 250; iter++) {
    Prog p = GenProg(rng);
    programs++;
    const std::string src = RenderFn("T0", p.t0) + "\n" + RenderFn("T1", p.t1);
    FileModel m = ParseFile("src/osk/prop.cc", src);

    // Thread-0 access ops, in program order, and their sites. Each access op
    // contributes exactly one site (the ghost half for acquire/release), and
    // sites register in parse order, so the two sequences align 1:1.
    std::vector<std::size_t> acc_ops;
    for (std::size_t i = 0; i < p.t0.size(); i++) {
      if (p.t0[i].IsAccessOp()) {
        acc_ops.push_back(i);
      }
    }
    std::vector<int> site_of;
    for (std::size_t si = 0; si < m.sites.size(); si++) {
      if (m.sites[si].function == "T0") {
        site_of.push_back(static_cast<int>(si));
      }
    }
    ASSERT_EQ(site_of.size(), acc_ops.size()) << src;
    for (std::size_t a = 0; a < acc_ops.size(); a++) {
      const AccessSite& site = m.sites[static_cast<std::size_t>(site_of[a])];
      ASSERT_EQ(site.is_store, p.t0[acc_ops[a]].IsStoreOp()) << src;
      ASSERT_EQ(site.expr, "s->c" + std::to_string(p.t0[acc_ops[a]].cell)) << src;
    }

    // Token-backed dependency chains the model honors discharge pending
    // load-load pairs, upgrading them to the *ordered* verdict — which the
    // brute force below then holds to the same never-witnessed standard as
    // barrier-ordered pairs: zero disagreement between the static dep
    // verdict and the runtime's dep-floor enforcement.
    const DepInfo deps = RecoverDeps(m);
    const std::set<std::pair<int, int>> dep_ok = DepOrderedPairs(deps, *model);
    std::set<std::pair<int, int>> discharged;
    DataflowOptions opts;
    opts.model = model;
    opts.suppress_locked = false;
    opts.dep_ordered = &dep_ok;
    opts.dep_discharged = &discharged;
    std::set<std::pair<int, int>> unordered;
    for (const SitePair& sp : UnorderedPairs(m, opts)) {
      unordered.insert({sp.first, sp.second});
    }
    dep_discharged_pairs += static_cast<int>(discharged.size());

    struct PairVerdict {
      std::size_t a, b;  // t0 op indices
      bool ordered;
    };
    std::vector<PairVerdict> pairs;
    for (std::size_t i = 0; i < acc_ops.size(); i++) {
      for (std::size_t j = i + 1; j < acc_ops.size(); j++) {
        bool is_unordered = unordered.count({site_of[i], site_of[j]}) != 0;
        pairs.push_back({acc_ops[i], acc_ops[j], !is_unordered});
        (is_unordered ? unordered_pairs : ordered_pairs)++;
      }
    }

    // Brute force: every spec subset x every interleaving, under `model`.
    std::vector<InstrId> delay_targets, read_targets;
    for (const POp& op : p.t0) {
      if (op.kind == POp::kSt || op.kind == POp::kStOnce) {
        delay_targets.push_back(op.instr);
      } else if (op.IsLoadOp()) {
        read_targets.push_back(op.instr);
      }
    }
    const u32 spec_count = u32{1} << (delay_targets.size() + read_targets.size());
    const std::size_t steps = p.t0.size() + p.t1.size() + 2;
    const u32 t1_steps = static_cast<u32>(p.t1.size()) + 1;
    for (u32 specs = 0; specs < spec_count; specs++) {
      for (u32 order = 0; order < (u32{1} << steps); order++) {
        if (static_cast<u32>(__builtin_popcount(order)) != t1_steps ||
            (order >> steps) != 0) {
          continue;
        }
        RunResult run = RunConcrete(p, delay_targets, read_targets, specs, order, model);
        runs++;
        for (const PairVerdict& pv : pairs) {
          const POp& first = p.t0[pv.a];
          const POp& second = p.t0[pv.b];
          bool hit = ConcreteWitness(run, CellAddr(first.cell), CellAddr(second.cell),
                                     first.instr, second.instr);
          if (!pv.ordered) {
            witnessed_unordered += hit ? 1 : 0;
            continue;
          }
          ASSERT_FALSE(hit)
              << "statically-ordered pair concretely witnessed under "
              << model->name() << "!\n  program: " << DescribeProg(p)
              << "\n  source:\n" << src << "  specs=" << specs << " order=" << order;
        }
      }
    }
  }
  printf("[races-property %s] programs=%d pairs: ordered=%d unordered=%d "
         "dep-discharged=%d runs=%llu witnessed-unordered-hits=%d\n",
         model->name(), programs, ordered_pairs, unordered_pairs, dep_discharged_pairs,
         static_cast<unsigned long long>(runs), witnessed_unordered);
  // The generator must exercise both verdicts, and the brute force must be
  // able to witness reorders at all (otherwise the soundness check is vacuous).
  EXPECT_GT(ordered_pairs, 0);
  EXPECT_GT(unordered_pairs, 0);
  EXPECT_GT(witnessed_unordered, 0);
  // Dep-shaped programs must actually exercise the discharge wherever loads
  // reorder at all (on tso/pso load-load pairs are never pending, so there
  // is nothing to discharge).
  if (model->LoadsVersionable()) {
    EXPECT_GT(dep_discharged_pairs, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StaticOrderingPropertyPerModel,
                         ::testing::ValuesIn(oemu::MemoryModel::All()),
                         oemu::ModelParamName);

}  // namespace
}  // namespace ozz::analysis::srcmodel
