// Axiomatic witness engine tests: the classic litmus shapes (SB, MP, LB,
// CoRR, R, S) against their known LKMM outcomes, fence synthesis cost order,
// the PairAnalysis plumbing, and the exactness property test cross-validating
// refuted-exact verdicts against brute-force OEMU runtime enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <source_location>
#include <string>
#include <vector>

#include "src/analysis/axiomatic.h"
#include "src/analysis/fence_synth.h"
#include "src/analysis/ordering.h"
#include "src/analysis/witness.h"
#include "src/oemu/instr.h"
#include "src/oemu/runtime.h"
#include "tests/model_param.h"
#include "tests/prop_common.h"

namespace ozz::analysis {
namespace {

InstrId TestInstr(std::size_t slot) {
  static std::vector<InstrId> ids;
  while (ids.size() <= slot) {
    ids.push_back(oemu::InstrRegistry::Register(oemu::InstrKind::kLoad, "litmus",
                                                std::source_location::current()));
  }
  return ids[slot];
}

// Hand-built slices for litmus tests: add thread-0 events first, then
// thread-1 events, then Build() with the two event indices under test.
class LitmusSlice {
 public:
  std::size_t S(int thread, uptr addr, bool undelayable = false) {
    return Add(thread, AxEvent::Kind::kStore, addr, undelayable, false);
  }
  std::size_t L(int thread, uptr addr, bool rmw = false) {
    return Add(thread, AxEvent::Kind::kLoad, addr, false, rmw);
  }
  void Wmb() { AddBar({/*orders_stores=*/true, /*orders_loads=*/false}); }
  void Rmb() { AddBar({/*orders_stores=*/false, /*orders_loads=*/true}); }
  void Mb() { AddBar({/*orders_stores=*/true, /*orders_loads=*/true}); }

  AxSlice Build(std::size_t first, std::size_t second) const {
    AxSlice s;
    s.events = events_;
    s.reorder_count = reorder_count_;
    s.first = first;
    s.second = second;
    return s;
  }

 private:
  std::size_t Add(int thread, AxEvent::Kind kind, uptr addr, bool undelayable, bool rmw) {
    if (thread == 0) {
      EXPECT_EQ(reorder_count_, events_.size()) << "thread-0 events must come first";
    }
    AxEvent e;
    e.kind = kind;
    e.thread = thread;
    e.addr = addr;
    e.size = 8;
    e.instr = TestInstr(events_.size() + 100 * static_cast<std::size_t>(thread));
    e.occurrence = 1;
    e.undelayable = undelayable;
    e.rmw_load = rmw;
    events_.push_back(e);
    if (thread == 0) {
      reorder_count_ = events_.size();
    }
    return events_.size() - 1;
  }

  void AddBar(oemu::BarrierClass cls) {
    EXPECT_EQ(reorder_count_, events_.size()) << "barriers belong to thread 0";
    AxEvent e;
    e.kind = AxEvent::Kind::kBarrier;
    e.thread = 0;
    e.instr = TestInstr(events_.size());
    e.cls = cls;
    events_.push_back(e);
    reorder_count_ = events_.size();
  }

  std::vector<AxEvent> events_;
  std::size_t reorder_count_ = 0;
};

constexpr uptr kX = 0x1000;
constexpr uptr kY = 0x2000;

AxResult Check(const AxSlice& s) { return CheckSlice(s, AxOptions{}); }

// ---- Litmus table ------------------------------------------------------

TEST(Axiomatic, MpStoreSideWitnessed) {
  // T0: Sx; Sy   T1: Ly; Lx — the data/flag publication pattern. Without a
  // store barrier the flag store can commit first; the observer sees the
  // flag but stale data.
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  std::size_t sy = b.S(0, kY);
  b.L(1, kY);
  std::size_t lx = b.L(1, kX);
  AxResult r = Check(b.Build(sx, sy));
  ASSERT_EQ(r.verdict, AxVerdict::kWitnessed) << r.bound_reason;
  EXPECT_GT(r.executions, 0u);
  // The witness chain runs Sy -> Ly -> Lx -> Sx; the observing read is Lx.
  ASSERT_FALSE(r.witness.chain.empty());
  EXPECT_EQ(r.witness.chain.front().addr, kY);
  EXPECT_EQ(r.witness.chain.back().addr, kX);
  EXPECT_EQ(r.witness.observer_read.thread, 1);
  EXPECT_EQ(r.witness.observer_read.addr, b.Build(sx, sy).events[lx].addr);
  EXPECT_FALSE(r.witness.linearization.empty());
  EXPECT_FALSE(r.witness.ToString().empty());
}

TEST(Axiomatic, MpStoreSideWmbRefutes) {
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  b.Wmb();
  std::size_t sy = b.S(0, kY);
  b.L(1, kY);
  b.L(1, kX);
  AxResult r = Check(b.Build(sx, sy));
  EXPECT_EQ(r.verdict, AxVerdict::kRefutedExact);
}

TEST(Axiomatic, MpStoreSideFenceIsWmb) {
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  std::size_t sy = b.S(0, kY);
  b.L(1, kY);
  b.L(1, kX);
  FenceSuggestion f = SynthesizeFence(b.Build(sx, sy), AxOptions{});
  ASSERT_TRUE(f.found);
  EXPECT_EQ(f.kind, FenceKind::kWmb);
  EXPECT_FALSE(f.ToString().empty());
}

TEST(Axiomatic, MpStoreSideReleaseStoreRefutes) {
  // An undelayable (release/ordered-RMW) data store commits at execution;
  // the flag store can only commit later — publication is ordered.
  LitmusSlice b;
  std::size_t sx = b.S(0, kX, /*undelayable=*/true);
  std::size_t sy = b.S(0, kY);
  b.L(1, kY);
  b.L(1, kX);
  EXPECT_EQ(Check(b.Build(sx, sy)).verdict, AxVerdict::kRefutedExact);
}

TEST(Axiomatic, MpLoadSideWitnessedAndFenceIsRmb) {
  // T0: Ly; Lx   T1: Sx; Sy (observer in order). The flag read can pair
  // with a stale data read: the versioning window lets Lx rewind.
  LitmusSlice b;
  std::size_t ly = b.L(0, kY);
  std::size_t lx = b.L(0, kX);
  b.S(1, kX);
  b.S(1, kY);
  AxResult r = Check(b.Build(ly, lx));
  ASSERT_EQ(r.verdict, AxVerdict::kWitnessed);
  // smp_wmb() is tried first (cheapest) and must NOT fix a load-load
  // inversion; the synthesis has to climb to smp_rmb().
  FenceSuggestion f = SynthesizeFence(b.Build(ly, lx), AxOptions{});
  ASSERT_TRUE(f.found);
  EXPECT_EQ(f.kind, FenceKind::kRmb);
}

TEST(Axiomatic, MpLoadSideRmbRefutes) {
  LitmusSlice b;
  std::size_t ly = b.L(0, kY);
  b.Rmb();
  std::size_t lx = b.L(0, kX);
  b.S(1, kX);
  b.S(1, kY);
  EXPECT_EQ(Check(b.Build(ly, lx)).verdict, AxVerdict::kRefutedExact);
}

TEST(Axiomatic, MpLoadSideRmwLoadRefutes) {
  // An RMW load reads memory directly (never the store history) — the
  // rewind that the MP load-side inversion needs is impossible.
  LitmusSlice b;
  std::size_t ly = b.L(0, kY);
  std::size_t lx = b.L(0, kX, /*rmw=*/true);
  b.S(1, kX);
  b.S(1, kY);
  EXPECT_EQ(Check(b.Build(ly, lx)).verdict, AxVerdict::kRefutedExact);
}

TEST(Axiomatic, SbWitnessed) {
  // T0: Sx; Ly   T1: Sy; Lx — store buffering, the Figure 10 shape. Both
  // threads can miss each other's store.
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  std::size_t ly = b.L(0, kY);
  b.S(1, kY);
  b.L(1, kX);
  EXPECT_EQ(Check(b.Build(sx, ly)).verdict, AxVerdict::kWitnessed);
}

TEST(Axiomatic, SbWmbAloneDoesNotRefute) {
  // Flushing the store buffer does not stop the later load from reading an
  // old version — only a full barrier forbids SB (as on real hardware).
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  b.Wmb();
  std::size_t ly = b.L(0, kY);
  b.S(1, kY);
  b.L(1, kX);
  EXPECT_EQ(Check(b.Build(sx, ly)).verdict, AxVerdict::kWitnessed);
}

TEST(Axiomatic, SbMbRefutes) {
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  b.Mb();
  std::size_t ly = b.L(0, kY);
  b.S(1, kY);
  b.L(1, kX);
  EXPECT_EQ(Check(b.Build(sx, ly)).verdict, AxVerdict::kRefutedExact);
}

TEST(Axiomatic, SbFenceIsMb) {
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  std::size_t ly = b.L(0, kY);
  b.S(1, kY);
  b.L(1, kX);
  FenceSuggestion f = SynthesizeFence(b.Build(sx, ly), AxOptions{});
  ASSERT_TRUE(f.found);
  EXPECT_EQ(f.kind, FenceKind::kMb);
}

TEST(Axiomatic, LbRefuted) {
  // T0: Ly; Sx   T1: Lx; Sy — load buffering. OEMU never delays loads
  // (§10.1 Case 7), so the LB cycle cannot be emulated.
  LitmusSlice b;
  std::size_t ly = b.L(0, kY);
  std::size_t sx = b.S(0, kX);
  b.L(1, kX);
  b.S(1, kY);
  EXPECT_EQ(Check(b.Build(ly, sx)).verdict, AxVerdict::kRefutedExact);
}

TEST(Axiomatic, CorrRefuted) {
  // Two reads of the same location never appear out of order (per-location
  // read floor): CoRR is forbidden.
  LitmusSlice b;
  std::size_t l1 = b.L(0, kX);
  std::size_t l2 = b.L(0, kX);
  b.S(1, kX);
  EXPECT_EQ(Check(b.Build(l1, l2)).verdict, AxVerdict::kRefutedExact);
}

TEST(Axiomatic, CoherenceStorePairRefuted) {
  // Same-location stores drain in order; no observer can see them inverted.
  LitmusSlice b;
  std::size_t s1 = b.S(0, kX);
  std::size_t s2 = b.S(0, kX);
  b.L(1, kX);
  EXPECT_EQ(Check(b.Build(s1, s2)).verdict, AxVerdict::kRefutedExact);
}

TEST(Axiomatic, RLitmusWitnessedAndWmbFixes) {
  // R: T0: Sx; Sy   T1: Sy'; Lx. The observer's own store to y can land
  // between (co), then its Lx misses the delayed Sx.
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  std::size_t sy = b.S(0, kY);
  b.S(1, kY);
  b.L(1, kX);
  AxResult r = Check(b.Build(sx, sy));
  ASSERT_EQ(r.verdict, AxVerdict::kWitnessed);
  FenceSuggestion f = SynthesizeFence(b.Build(sx, sy), AxOptions{});
  ASSERT_TRUE(f.found);
  EXPECT_EQ(f.kind, FenceKind::kWmb);
}

TEST(Axiomatic, SLitmusWitnessedAndWmbFixes) {
  // S: T0: Sx; Sy   T1: Ly; Sx'. The observer reads the flag, then its own
  // x store is overwritten by the delayed Sx (co) — inversion observable.
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  std::size_t sy = b.S(0, kY);
  b.L(1, kY);
  b.S(1, kX);
  AxResult r = Check(b.Build(sx, sy));
  ASSERT_EQ(r.verdict, AxVerdict::kWitnessed);
  FenceSuggestion f = SynthesizeFence(b.Build(sx, sy), AxOptions{});
  ASSERT_TRUE(f.found);
  EXPECT_EQ(f.kind, FenceKind::kWmb);
}

TEST(Axiomatic, NoObserverAccessRefutes) {
  // Nothing on the other side touches either location: the inversion can
  // never be observed.
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  std::size_t sy = b.S(0, kY);
  EXPECT_EQ(Check(b.Build(sx, sy)).verdict, AxVerdict::kRefutedExact);
}

TEST(Axiomatic, BudgetExhaustionBoundsOut) {
  LitmusSlice b;
  std::size_t sx = b.S(0, kX);
  std::size_t sy = b.S(0, kY);
  b.L(1, kY);
  b.L(1, kX);
  AxOptions o;
  o.max_executions = 1;
  AxResult r = CheckSlice(b.Build(sx, sy), o);
  EXPECT_EQ(r.verdict, AxVerdict::kBoundedOut);
  EXPECT_FALSE(r.bound_reason.empty());
}

// ---- TimeGraph ---------------------------------------------------------

TEST(TimeGraph, CycleDetection) {
  TimeGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_FALSE(g.HasCycle());
  g.AddEdge(2, 0);
  EXPECT_TRUE(g.HasCycle());
}

TEST(TimeGraph, PathThroughRequiresViaNode) {
  TimeGraph g(4);
  g.AddEdge(0, 1);  // direct route avoiding the via node
  g.AddEdge(0, 2);
  g.AddEdge(2, 1);
  u64 via = u64{1} << 2;
  std::vector<std::size_t> p = g.PathThrough(0, 1, via);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[1], 2u);
  EXPECT_EQ(p[2], 1u);
  EXPECT_TRUE(g.PathThrough(1, 0, via).empty());
}

// ---- PairAnalysis plumbing --------------------------------------------

oemu::Event Acc(InstrId in, oemu::AccessType t, uptr a, u32 size = 8) {
  oemu::Event e;
  e.kind = oemu::Event::Kind::kAccess;
  e.instr = in;
  e.access = t;
  e.addr = a;
  e.size = size;
  e.occurrence = 1;
  return e;
}

oemu::Event Bar(InstrId in, oemu::BarrierType t) {
  oemu::Event e;
  e.kind = oemu::Event::Kind::kBarrier;
  e.instr = in;
  e.barrier = t;
  return e;
}

TEST(AxiomaticPair, CheckPairMpFromRawTraces) {
  InstrId i_sx = TestInstr(50), i_sy = TestInstr(51);
  InstrId i_ly = TestInstr(52), i_lx = TestInstr(53);
  oemu::Trace t0{Acc(i_sx, oemu::AccessType::kStore, kX),
                 Acc(i_sy, oemu::AccessType::kStore, kY)};
  oemu::Trace t1{Acc(i_ly, oemu::AccessType::kLoad, kY),
                 Acc(i_lx, oemu::AccessType::kLoad, kX)};
  PairAnalysis pa(t0, t1);
  AccessKey first{i_sx, 1, oemu::AccessType::kStore};
  AccessKey second{i_sy, 1, oemu::AccessType::kStore};
  AxResult r = CheckPair(pa, first, second, AxOptions{});
  EXPECT_EQ(r.verdict, AxVerdict::kWitnessed);

  oemu::Trace t0b{Acc(i_sx, oemu::AccessType::kStore, kX),
                  Bar(TestInstr(54), oemu::BarrierType::kStoreBarrier),
                  Acc(i_sy, oemu::AccessType::kStore, kY)};
  PairAnalysis pab(t0b, t1);
  EXPECT_EQ(CheckPair(pab, first, second, AxOptions{}).verdict,
            AxVerdict::kRefutedExact);
}

TEST(AxiomaticPair, PartialOverlapBoundsOut) {
  InstrId i_sx = TestInstr(60), i_sy = TestInstr(61), i_sub = TestInstr(62);
  // A 4-byte access inside the 8-byte first location: the slice cannot be
  // built exactly, and the engine must refuse to prune.
  oemu::Trace t0{Acc(i_sx, oemu::AccessType::kStore, kX),
                 Acc(i_sub, oemu::AccessType::kStore, kX + 4, 4),
                 Acc(i_sy, oemu::AccessType::kStore, kY)};
  oemu::Trace t1{Acc(TestInstr(63), oemu::AccessType::kLoad, kY),
                 Acc(TestInstr(64), oemu::AccessType::kLoad, kX)};
  PairAnalysis pa(t0, t1);
  AccessKey first{i_sx, 1, oemu::AccessType::kStore};
  AccessKey second{i_sy, 1, oemu::AccessType::kStore};
  AxResult r = CheckPair(pa, first, second, AxOptions{});
  EXPECT_EQ(r.verdict, AxVerdict::kBoundedOut);
  EXPECT_FALSE(r.bound_reason.empty());
}

// ---- OEMU cross-validation property test ------------------------------
//
// For >= 1000 random litmus-sized programs: profile both threads
// single-threaded, classify every thread-0 access pair axiomatically, then
// brute-force the runtime — every interleaving of the two threads crossed
// with every delay-store/read-old spec subset — and verify that no pair the
// engine refuted exactly is ever witnessed by a real run. (The other
// direction is deliberately not asserted: the axiomatic model is allowed to
// be more permissive than the runtime.)

// The generator, concrete runner and observability oracle live in
// tests/prop_common.h, shared with the static race analyzer's property
// test (tests/races_property_test.cc).
using namespace prop;

// Parameterized over every MemoryModel backend: the axiomatic engine and
// the brute-forced runtime must run under the SAME model, and no pair the
// engine refuted exactly may ever be concretely witnessed. The lkmm
// instantiation is the historical property test verbatim (same seed, same
// programs); the others validate each backend's ppo ladder against its
// runtime gating end-to-end.
class AxiomaticPropertyPerModel
    : public ::testing::TestWithParam<const oemu::MemoryModel*> {};

TEST_P(AxiomaticPropertyPerModel, RefutationsNeverContradictedByRuntime) {
  const oemu::MemoryModel* model = GetParam();
  std::mt19937 rng(20240831);
  AxOptions opts;
  opts.max_executions = u64{1} << 18;
  int programs = 0, refuted_pairs = 0, witnessed_pairs = 0, bounded_pairs = 0;
  int concrete_hits_on_witnessed = 0;
  u64 runs = 0;
  for (int iter = 0; iter < 1000; iter++) {
    Prog p = GenProg(rng);
    programs++;

    // Single-threaded profile (the fuzzer's view): thread 0 fully, then
    // thread 1, no specs.
    u32 seq_order = 0;
    for (std::size_t s = p.t0.size() + 1; s < p.t0.size() + p.t1.size() + 2; s++) {
      seq_order |= u32{1} << s;
    }
    RunResult profile = RunConcrete(p, {}, {}, 0, seq_order, model);
    PairAnalysis pa(profile.t0, profile.t1, model);

    // Classify every program-ordered thread-0 access pair.
    struct PairVerdict {
      InstrId first, second;
      uptr la, lb;
      AxVerdict verdict;
    };
    std::vector<PairVerdict> pairs;
    for (std::size_t i = 0; i < profile.t0.size(); i++) {
      if (!profile.t0[i].IsAccess()) {
        continue;
      }
      for (std::size_t j = i + 1; j < profile.t0.size(); j++) {
        if (!profile.t0[j].IsAccess()) {
          continue;
        }
        AxSlice slice;
        std::string reason;
        AxVerdict v = AxVerdict::kBoundedOut;
        if (BuildSlice(pa, i, j, opts, &slice, &reason)) {
          v = CheckSlice(slice, opts).verdict;
        }
        pairs.push_back({profile.t0[i].instr, profile.t0[j].instr,
                         profile.t0[i].addr, profile.t0[j].addr, v});
        switch (v) {
          case AxVerdict::kWitnessed:
            witnessed_pairs++;
            break;
          case AxVerdict::kRefutedExact:
            refuted_pairs++;
            break;
          case AxVerdict::kBoundedOut:
            bounded_pairs++;
            break;
        }
      }
    }

    bool any_refuted = false;
    for (const PairVerdict& pv : pairs) {
      any_refuted = any_refuted || pv.verdict == AxVerdict::kRefutedExact;
    }
    if (!any_refuted) {
      continue;
    }

    // Brute force: every spec subset x every interleaving.
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
          if (pv.verdict == AxVerdict::kWitnessed) {
            if (ConcreteWitness(run, pv.la, pv.lb, pv.first, pv.second)) {
              concrete_hits_on_witnessed++;
            }
            continue;
          }
          if (pv.verdict != AxVerdict::kRefutedExact) {
            continue;
          }
          ASSERT_FALSE(ConcreteWitness(run, pv.la, pv.lb, pv.first, pv.second))
              << "refuted-exact pair concretely witnessed!\n  program: "
              << DescribeProg(p) << "\n  specs=" << specs << " order=" << order;
        }
      }
    }
  }
  ::testing::Test::RecordProperty("programs", programs);
  ::testing::Test::RecordProperty("refuted_pairs", refuted_pairs);
  ::testing::Test::RecordProperty("witnessed_pairs", witnessed_pairs);
  ::testing::Test::RecordProperty("bounded_pairs", bounded_pairs);
  printf("[property %s] programs=%d pairs: witnessed=%d refuted=%d bounded=%d "
         "runs=%llu concrete-hits-on-witnessed=%d\n",
         model->name(), programs, witnessed_pairs, refuted_pairs, bounded_pairs,
         static_cast<unsigned long long>(runs), concrete_hits_on_witnessed);
  // The generator must actually exercise both verdicts under every model
  // (even TSO exhibits store-load reordering, so witnesses exist).
  EXPECT_GT(refuted_pairs, 0);
  EXPECT_GT(witnessed_pairs, 0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AxiomaticPropertyPerModel,
                         ::testing::ValuesIn(oemu::MemoryModel::All()),
                         oemu::ModelParamName);

}  // namespace
}  // namespace ozz::analysis
