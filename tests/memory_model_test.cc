// MemoryModel backend tests: the registry, the per-model relaxation
// matrices, the Table-1 barrier effect tables, the RmwOrder effect tables
// (asserted both on the static table and mechanically against a live
// Runtime per backend), and the fence-synthesis lattices.
#include "src/oemu/memory_model.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/oemu/cell.h"
#include "src/oemu/runtime.h"
#include "tests/model_param.h"

namespace ozz::oemu {
namespace {

using FenceOp = MemoryModel::FenceOp;

// ---- Registry ----------------------------------------------------------

TEST(MemoryModelRegistry, AllListsTheFourBackends) {
  const std::vector<const MemoryModel*>& all = MemoryModel::All();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0], &MemoryModel::Lkmm());
  EXPECT_EQ(all[1], &MemoryModel::Tso());
  EXPECT_EQ(all[2], &MemoryModel::Pso());
  EXPECT_EQ(all[3], &MemoryModel::Armv8x());
}

TEST(MemoryModelRegistry, ByNameRoundTrips) {
  for (const MemoryModel* m : MemoryModel::All()) {
    EXPECT_EQ(MemoryModel::ByName(m->name()), m);
  }
  EXPECT_EQ(MemoryModel::ByName("sc"), nullptr);
  EXPECT_EQ(MemoryModel::ByName(""), nullptr);
  EXPECT_EQ(MemoryModel::ByName("LKMM"), nullptr) << "names are case-sensitive";
}

TEST(MemoryModelRegistry, NamesForHelpListsAll) {
  EXPECT_EQ(MemoryModel::NamesForHelp(), "lkmm|tso|pso|armv8x");
}

TEST(MemoryModelRegistry, ResolveNullIsLkmmNotDefault) {
  // Library code resolves nullptr to lkmm regardless of the environment —
  // only tools consult $OZZ_DEFAULT_MODEL (via Default()).
  ::setenv("OZZ_DEFAULT_MODEL", "tso", 1);
  EXPECT_EQ(&MemoryModel::Resolve(nullptr), &MemoryModel::Lkmm());
  EXPECT_EQ(&MemoryModel::Resolve(&MemoryModel::Pso()), &MemoryModel::Pso());
  ::unsetenv("OZZ_DEFAULT_MODEL");
}

TEST(MemoryModelRegistry, DefaultHonorsEnvironment) {
  ::unsetenv("OZZ_DEFAULT_MODEL");
  EXPECT_EQ(&MemoryModel::Default(), &MemoryModel::Lkmm());
  ::setenv("OZZ_DEFAULT_MODEL", "armv8x", 1);
  EXPECT_EQ(&MemoryModel::Default(), &MemoryModel::Armv8x());
  ::setenv("OZZ_DEFAULT_MODEL", "no-such-model", 1);
  EXPECT_EQ(&MemoryModel::Default(), &MemoryModel::Lkmm()) << "invalid names fall back";
  ::unsetenv("OZZ_DEFAULT_MODEL");
}

// ---- Relaxation matrices ----------------------------------------------

TEST(MemoryModelMatrix, PerModelRelaxations) {
  struct Row {
    const MemoryModel* m;
    bool ss, sl, ll, ls;
  };
  const Row kRows[] = {
      {&MemoryModel::Lkmm(), true, true, true, false},
      {&MemoryModel::Tso(), false, true, false, false},
      {&MemoryModel::Pso(), true, true, false, false},
      {&MemoryModel::Armv8x(), true, true, true, true},
  };
  for (const Row& r : kRows) {
    SCOPED_TRACE(r.m->name());
    EXPECT_EQ(r.m->relaxations().store_store, r.ss);
    EXPECT_EQ(r.m->relaxations().store_load, r.sl);
    EXPECT_EQ(r.m->relaxations().load_load, r.ll);
    EXPECT_EQ(r.m->relaxations().load_store, r.ls);
    EXPECT_EQ(r.m->StoresDelayable(), r.ss || r.sl);
    EXPECT_EQ(r.m->LoadsVersionable(), r.ll);
  }
}

// ---- Barrier effect tables (Table 1 per model) -------------------------

TEST(MemoryModelBarriers, LkmmMatchesTheReferenceTable) {
  // Bit-exactness pin: lkmm's EffectOf is the historical inline rule.
  // LKMM reference comparison is the point here. ozz-lint: allow-model
  const BarrierType kAll[] = {BarrierType::kFull,    BarrierType::kLoadBarrier,
                              BarrierType::kStoreBarrier, BarrierType::kAcquire,
                              BarrierType::kRelease, BarrierType::kImpliedLoad,
                              BarrierType::kRmwFull};
  for (BarrierType t : kAll) {
    SCOPED_TRACE(static_cast<int>(t));
    BarrierClass model = MemoryModel::Lkmm().EffectOf(t);
    BarrierClass ref = ClassOf(t);  // ozz-lint: allow-model
    EXPECT_EQ(model.orders_stores, ref.orders_stores);
    EXPECT_EQ(model.orders_loads, ref.orders_loads);
  }
}

TEST(MemoryModelBarriers, ModelIndependentRows) {
  for (const MemoryModel* m : MemoryModel::All()) {
    SCOPED_TRACE(m->name());
    // Full fences, release, and acquire behave identically everywhere.
    EXPECT_TRUE(m->EffectOf(BarrierType::kFull).orders_stores);
    EXPECT_TRUE(m->EffectOf(BarrierType::kFull).orders_loads);
    EXPECT_TRUE(m->EffectOf(BarrierType::kRmwFull).orders_stores);
    EXPECT_TRUE(m->EffectOf(BarrierType::kRmwFull).orders_loads);
    EXPECT_TRUE(m->EffectOf(BarrierType::kRelease).orders_stores);
    EXPECT_FALSE(m->EffectOf(BarrierType::kRelease).orders_loads);
    EXPECT_FALSE(m->EffectOf(BarrierType::kAcquire).orders_stores);
    EXPECT_TRUE(m->EffectOf(BarrierType::kAcquire).orders_loads);
  }
}

TEST(MemoryModelBarriers, DedicatedBarriersTrackTheMatrix) {
  for (const MemoryModel* m : MemoryModel::All()) {
    SCOPED_TRACE(m->name());
    // smp_wmb orders stores exactly where stores can reorder; smp_rmb
    // symmetrically for loads. Neither ever touches the other class.
    EXPECT_EQ(m->EffectOf(BarrierType::kStoreBarrier).orders_stores,
              m->relaxations().store_store);
    EXPECT_FALSE(m->EffectOf(BarrierType::kStoreBarrier).orders_loads);
    EXPECT_FALSE(m->EffectOf(BarrierType::kLoadBarrier).orders_stores);
    EXPECT_EQ(m->EffectOf(BarrierType::kLoadBarrier).orders_loads,
              m->relaxations().load_load);
  }
}

TEST(MemoryModelBarriers, ImpliedLoadIsTheLkmmOnlyAlphaRule) {
  EXPECT_TRUE(MemoryModel::Lkmm().EffectOf(BarrierType::kImpliedLoad).orders_loads);
  EXPECT_FALSE(MemoryModel::Tso().EffectOf(BarrierType::kImpliedLoad).orders_loads);
  EXPECT_FALSE(MemoryModel::Pso().EffectOf(BarrierType::kImpliedLoad).orders_loads);
  // armv8x honors address dependencies in hardware; READ_ONCE does not
  // order unrelated later loads there.
  EXPECT_FALSE(MemoryModel::Armv8x().EffectOf(BarrierType::kImpliedLoad).orders_loads);
  for (const MemoryModel* m : MemoryModel::All()) {
    EXPECT_FALSE(m->EffectOf(BarrierType::kImpliedLoad).orders_stores) << m->name();
  }
}

// ---- RmwOrder effect tables -------------------------------------------

TEST(MemoryModelRmw, TableDrivenPerModel) {
  struct Row {
    const MemoryModel* m;
    RmwOrder order;
    bool flush, advance, delayable;
  };
  const Row kRows[] = {
      // lkmm/pso/armv8x share the strength-faithful table.
      {&MemoryModel::Lkmm(), RmwOrder::kFull, true, true, false},
      {&MemoryModel::Lkmm(), RmwOrder::kAcquire, false, true, false},
      {&MemoryModel::Lkmm(), RmwOrder::kRelease, true, false, false},
      {&MemoryModel::Lkmm(), RmwOrder::kRelaxed, false, false, true},
      {&MemoryModel::Pso(), RmwOrder::kFull, true, true, false},
      {&MemoryModel::Pso(), RmwOrder::kAcquire, false, true, false},
      {&MemoryModel::Pso(), RmwOrder::kRelease, true, false, false},
      {&MemoryModel::Pso(), RmwOrder::kRelaxed, false, false, true},
      {&MemoryModel::Armv8x(), RmwOrder::kFull, true, true, false},
      {&MemoryModel::Armv8x(), RmwOrder::kAcquire, false, true, false},
      {&MemoryModel::Armv8x(), RmwOrder::kRelease, true, false, false},
      {&MemoryModel::Armv8x(), RmwOrder::kRelaxed, false, false, true},
      // TSO: every atomic RMW is a locked instruction, i.e. a full fence,
      // whatever strength the source requested.
      {&MemoryModel::Tso(), RmwOrder::kFull, true, true, false},
      {&MemoryModel::Tso(), RmwOrder::kAcquire, true, true, false},
      {&MemoryModel::Tso(), RmwOrder::kRelease, true, true, false},
      {&MemoryModel::Tso(), RmwOrder::kRelaxed, true, true, false},
  };
  for (const Row& r : kRows) {
    SCOPED_TRACE(std::string(r.m->name()) + "/" + std::to_string(static_cast<int>(r.order)));
    RmwEffect eff = r.m->EffectOfRmw(r.order);
    EXPECT_EQ(eff.flush_before, r.flush);
    EXPECT_EQ(eff.advance_after, r.advance);
    EXPECT_EQ(eff.delayable, r.delayable);
  }
}

// ---- Fence lattices ----------------------------------------------------

TEST(MemoryModelFences, LatticePerModel) {
  using V = std::vector<FenceOp>;
  EXPECT_EQ(MemoryModel::Lkmm().FenceLattice(),
            (V{FenceOp::kWmb, FenceOp::kRmb, FenceOp::kReleaseUpgrade,
               FenceOp::kAcquireUpgrade, FenceOp::kMb}));
  EXPECT_EQ(MemoryModel::Armv8x().FenceLattice(),
            (V{FenceOp::kWmb, FenceOp::kRmb, FenceOp::kReleaseUpgrade,
               FenceOp::kAcquireUpgrade, FenceOp::kMb}));
  EXPECT_EQ(MemoryModel::Pso().FenceLattice(),
            (V{FenceOp::kWmb, FenceOp::kReleaseUpgrade, FenceOp::kMb}));
  EXPECT_EQ(MemoryModel::Tso().FenceLattice(), (V{FenceOp::kMb}));
}

TEST(MemoryModelFences, MinimalFencePerReorderingClass) {
  const MemoryModel& lkmm = MemoryModel::Lkmm();
  EXPECT_EQ(lkmm.MinimalFenceFor(AccessType::kStore, AccessType::kStore), FenceOp::kWmb);
  EXPECT_EQ(lkmm.MinimalFenceFor(AccessType::kLoad, AccessType::kLoad), FenceOp::kRmb);
  EXPECT_EQ(lkmm.MinimalFenceFor(AccessType::kStore, AccessType::kLoad), FenceOp::kMb);
  EXPECT_EQ(lkmm.MinimalFenceFor(AccessType::kLoad, AccessType::kStore), FenceOp::kMb);
  // Where the dedicated barrier is a no-op, the minimal repair escalates.
  const MemoryModel& tso = MemoryModel::Tso();
  EXPECT_EQ(tso.MinimalFenceFor(AccessType::kStore, AccessType::kStore), FenceOp::kMb);
  EXPECT_EQ(tso.MinimalFenceFor(AccessType::kLoad, AccessType::kLoad), FenceOp::kMb);
  const MemoryModel& pso = MemoryModel::Pso();
  EXPECT_EQ(pso.MinimalFenceFor(AccessType::kStore, AccessType::kStore), FenceOp::kWmb);
  EXPECT_EQ(pso.MinimalFenceFor(AccessType::kLoad, AccessType::kLoad), FenceOp::kMb);
}

TEST(MemoryModelFences, FenceOpNames) {
  EXPECT_STREQ(FenceOpName(FenceOp::kWmb), "smp_wmb");
  EXPECT_STREQ(FenceOpName(FenceOp::kRmb), "smp_rmb");
  EXPECT_STREQ(FenceOpName(FenceOp::kReleaseUpgrade), "smp_store_release");
  EXPECT_STREQ(FenceOpName(FenceOp::kAcquireUpgrade), "smp_load_acquire");
  EXPECT_STREQ(FenceOpName(FenceOp::kMb), "smp_mb");
}

// ---- Runtime conformance: the engine obeys the model's tables ----------

class ModelRuntimeTest : public ::testing::TestWithParam<const MemoryModel*> {
 protected:
  ThreadId Tid() { return Runtime::CurrentThreadId(); }
};

// Table-driven RmwOrder runtime test: for every (model, order), a pending
// delayed store is flushed iff the table says flush_before, the versioning
// window advances iff advance_after, and an armed delay spec on the RMW
// parks its store half iff delayable.
TEST_P(ModelRuntimeTest, RmwEffectsMatchTheModelTable) {
  const MemoryModel* model = GetParam();
  const RmwOrder kOrders[] = {RmwOrder::kRelaxed, RmwOrder::kFull, RmwOrder::kAcquire,
                              RmwOrder::kRelease};
  for (RmwOrder order : kOrders) {
    SCOPED_TRACE(std::string(model->name()) + "/order=" +
                 std::to_string(static_cast<int>(order)));
    const RmwEffect eff = model->EffectOfRmw(order);
    RuntimeOptions opts;
    opts.model = model;
    Runtime rt(opts);
    rt.Activate(nullptr);
    Cell<u64> x{0};
    Cell<u64> y{0};

    // Park a delayed store on x, then RMW y.
    InstrId store_instr = OZZ_OEMU_SITE(InstrKind::kStore, "x");
    rt.DelayStoreAt(Tid(), store_instr);
    StoreCell(store_instr, x, 1);
    ASSERT_EQ(x.raw(), 0u) << "delay spec must park the store under every backend";

    InstrId rmw_instr = OZZ_OEMU_SITE(InstrKind::kRmw, "y");
    rt.DelayStoreAt(Tid(), rmw_instr);  // only kRelaxed under non-tso honors it
    u64 w_before = rt.window_start(Tid());
    u64 old = RmwCell(rmw_instr, y, order, [](u64 o, u64 v) { return o + v; }, 5ull);
    EXPECT_EQ(old, 0u);

    EXPECT_EQ(x.raw() == 1u, eff.flush_before) << "pending store flushed iff flush_before";
    EXPECT_EQ(rt.window_start(Tid()) != w_before, eff.advance_after)
        << "window advanced iff advance_after";
    // Under flush_before the x-store has committed, so the buffer holds the
    // RMW's store half iff the spec was honored; without flush_before an
    // undelayed RMW store would still commit immediately (no overlap with x).
    EXPECT_EQ(y.raw() == 0u, eff.delayable) << "RMW store parked iff delayable";

    rt.OnSyscallExit(Tid());
    EXPECT_EQ(x.raw(), 1u);
    EXPECT_EQ(y.raw(), 5u);
    rt.Deactivate();
  }
}

// The dedicated barriers act per model: smp_wmb drains the buffer only
// where store-store reordering exists, smp_rmb closes the window only where
// loads version.
TEST_P(ModelRuntimeTest, BarrierEffectsMatchTheModelTable) {
  const MemoryModel* model = GetParam();
  const BarrierType kTypes[] = {BarrierType::kFull, BarrierType::kStoreBarrier,
                                BarrierType::kLoadBarrier};
  for (BarrierType type : kTypes) {
    SCOPED_TRACE(std::string(model->name()) + "/barrier=" +
                 std::to_string(static_cast<int>(type)));
    const BarrierClass cls = model->EffectOf(type);
    RuntimeOptions opts;
    opts.model = model;
    Runtime rt(opts);
    rt.Activate(nullptr);
    Cell<u64> x{0};

    InstrId store_instr = OZZ_OEMU_SITE(InstrKind::kStore, "x");
    rt.DelayStoreAt(Tid(), store_instr);
    StoreCell(store_instr, x, 1);
    ASSERT_EQ(x.raw(), 0u);

    u64 w_before = rt.window_start(Tid());
    InstrId bar_instr = OZZ_OEMU_SITE(InstrKind::kBarrier, "bar");
    rt.Barrier(bar_instr, type);
    EXPECT_EQ(x.raw() == 1u, cls.orders_stores) << "buffer drained iff orders_stores";
    EXPECT_EQ(rt.window_start(Tid()) != w_before, cls.orders_loads)
        << "window closed iff orders_loads";

    rt.OnSyscallExit(Tid());
    rt.Deactivate();
  }
}

// A read-old spec is inert exactly on the models whose loads never reorder.
TEST_P(ModelRuntimeTest, ReadOldSpecGatedByLoadVersionability) {
  const MemoryModel* model = GetParam();
  RuntimeOptions opts;
  opts.model = model;
  Runtime rt(opts);
  rt.Activate(nullptr);
  Cell<u64> x{0};

  InstrId load_instr = OZZ_OEMU_SITE(InstrKind::kLoad, "x");
  // Figure-4 shape: another core drives x through 0 -> 1 -> 2 with the
  // window opened at 1, then this thread reads with an armed read-old spec.
  Runtime::OverrideThreadForTesting(1);
  StoreCell(OZZ_OEMU_SITE(InstrKind::kStore, "x"), x, 1);
  Runtime::OverrideThreadForTesting(kAnyThread);
  OSK_SMP_RMB();  // opens the window here on models whose loads version
  rt.ReadOldValueAt(Tid(), load_instr);
  Runtime::OverrideThreadForTesting(1);
  StoreCell(OZZ_OEMU_SITE(InstrKind::kStore, "x"), x, 2);
  Runtime::OverrideThreadForTesting(kAnyThread);

  u64 v = LoadCell(load_instr, x);
  if (model->LoadsVersionable()) {
    EXPECT_EQ(v, 1u) << "versioned load rewinds to the window start";
    EXPECT_EQ(rt.stats().spec_stale_loads, 1u);
  } else {
    EXPECT_EQ(v, 2u) << "read-old specs are inert when loads never reorder";
    EXPECT_EQ(rt.stats().spec_stale_loads, 0u);
    EXPECT_EQ(rt.stats().spec_fresh_loads, 0u) << "the spec must not even count as matched";
  }
  rt.Deactivate();
}

// Models that forbid store-store reordering must drain delayed stores in
// FIFO program order: a later store to a DIFFERENT location queues behind a
// pending delayed store instead of overtaking it.
TEST_P(ModelRuntimeTest, StoreStoreOrderPreservedWhereRequired) {
  const MemoryModel* model = GetParam();
  RuntimeOptions opts;
  opts.model = model;
  Runtime rt(opts);
  rt.Activate(nullptr);
  Cell<u64> x{0};
  Cell<u64> y{0};

  InstrId store_instr = OZZ_OEMU_SITE(InstrKind::kStore, "x");
  rt.DelayStoreAt(Tid(), store_instr);
  StoreCell(store_instr, x, 1);
  ASSERT_EQ(x.raw(), 0u);
  StoreCell(OZZ_OEMU_SITE(InstrKind::kStore, "y"), y, 2);
  if (model->relaxations().store_store) {
    EXPECT_EQ(y.raw(), 2u) << "store-store reordering: the later store overtakes";
    EXPECT_EQ(x.raw(), 0u);
  } else {
    EXPECT_EQ(y.raw(), 0u) << "TSO queue-behind: FIFO drain preserves store order";
    EXPECT_EQ(x.raw(), 0u);
  }
  rt.OnSyscallExit(Tid());
  EXPECT_EQ(x.raw(), 1u);
  EXPECT_EQ(y.raw(), 2u);
  rt.Deactivate();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ModelRuntimeTest,
                         ::testing::ValuesIn(MemoryModel::All()),
                         ModelParamName);

}  // namespace
}  // namespace ozz::oemu
