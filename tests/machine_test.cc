// Unit tests for the deterministic machine / custom scheduler (App. §10.3),
// including the virtual local-irq layer (irq masking, deferred delivery,
// fire_irq plan points).
#include "src/rt/machine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/oemu/cell.h"
#include "src/oemu/runtime.h"

namespace ozz::rt {
namespace {

using oemu::Cell;
using oemu::InstrKind;
using oemu::Runtime;

TEST(MachineTest, RunsSingleThread) {
  Machine m(1);
  int ran = 0;
  m.AddThread("t", 0, [&] { ran = 1; });
  m.Run();
  EXPECT_EQ(ran, 1);
}

TEST(MachineTest, FirstThreadChoiceHonored) {
  Machine m(2);
  std::vector<int> order;
  m.AddThread("a", 0, [&] { order.push_back(0); });
  m.AddThread("b", 1, [&] { order.push_back(1); });
  SchedPlan plan;
  plan.first = 1;
  m.SetPlan(plan);
  m.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);
}

TEST(MachineTest, ThreadsSerializeWithoutPlan) {
  Machine m(2);
  std::vector<int> order;
  for (int t = 0; t < 4; ++t) {
    m.AddThread("t" + std::to_string(t), t % 2, [&order, t] { order.push_back(t); });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(MachineTest, YieldRoundRobins) {
  Machine m(2);
  std::vector<int> order;
  m.AddThread("a", 0, [&] {
    order.push_back(0);
    Machine::Current()->Yield();
    order.push_back(0);
  });
  m.AddThread("b", 1, [&] { order.push_back(1); });
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
}

TEST(MachineTest, YieldAloneReturnsFalse) {
  Machine m(1);
  bool yielded = true;
  m.AddThread("a", 0, [&] { yielded = Machine::Current()->Yield(); });
  m.Run();
  EXPECT_FALSE(yielded);
}

// Breakpoint-precise switching: thread A stops exactly at the Nth dynamic
// execution of an instrumented access and thread B observes the intermediate
// state — the capability OZZ borrows from hypervisor schedulers.
TEST(MachineTest, BreakpointSwitchesAtExactOccurrence) {
  Cell<u64> x{0};
  InstrId site = kInvalidInstr;
  // One call site shared by the probe and the real run.
  auto do_store = [&](u64 v) {
    site = OZZ_OEMU_SITE(InstrKind::kStore, "x");
    StoreCell(site, x, v);
  };

  // Probe run on the host thread to learn the instruction id.
  {
    Runtime probe;
    probe.Activate(nullptr);
    do_store(0);
    probe.Deactivate();
    x.set_raw(0);
  }
  ASSERT_NE(site, kInvalidInstr);

  Machine m(2);
  Runtime rt;
  rt.Activate(&m);
  u64 observed = ~0ull;
  m.AddThread("writer", 0, [&] {
    for (u64 i = 1; i <= 4; ++i) {
      do_store(i);
    }
  });
  m.AddThread("reader", 1, [&] { observed = OSK_LOAD(x); });

  SchedPlan plan;
  plan.first = 0;
  SchedPoint pt;
  pt.thread = 0;
  pt.instr = site;
  pt.occurrence = 3;
  pt.when = SwitchWhen::kAfterAccess;
  pt.next = 1;
  plan.points.push_back(pt);
  m.SetPlan(plan);
  m.Run();
  rt.Deactivate();

  EXPECT_EQ(observed, 3u) << "reader ran right after the writer's 3rd store";
  EXPECT_EQ(x.raw(), 4u) << "writer completed after the switch";
  EXPECT_EQ(m.plan_points_consumed(), 1u);
}

TEST(MachineTest, PlanPointForFinishedThreadIsSkipped) {
  Machine m(2);
  Runtime rt;
  rt.Activate(&m);
  Cell<u64> x{0};
  // The plan targets thread 1's next-thread, but thread 1 finished already.
  m.AddThread("a", 0, [&] { OSK_STORE(x, 1); });
  m.AddThread("b", 1, [&] {});
  SchedPlan plan;
  plan.first = 1;  // b runs (and finishes) first
  SchedPoint pt;
  pt.thread = 0;
  pt.instr = 0;
  pt.occurrence = 1;
  pt.next = 1;
  plan.points.push_back(pt);
  m.SetPlan(plan);
  m.Run();
  rt.Deactivate();
  EXPECT_EQ(x.raw(), 1u);
}

TEST(MachineTest, KillOthersUnwindsPeers) {
  Machine m(2);
  Runtime rt;
  rt.Activate(&m);
  Cell<u64> x{0};
  bool b_completed = false;
  m.AddThread("killer", 0, [&] {
    OSK_STORE(x, 1);
    Machine::Current()->KillOthers();
  });
  m.AddThread("victim", 1, [&] {
    for (int i = 0; i < 100; ++i) {
      (void)OSK_LOAD(x);
      Machine::Current()->Yield();
    }
    b_completed = true;
  });
  m.Run();
  rt.Deactivate();
  EXPECT_FALSE(b_completed) << "killed thread must unwind, not complete";
}

TEST(MachineTest, InterruptHookRuns) {
  Machine m(1);
  int interrupts = 0;
  m.SetInterruptHook([&](ThreadId) { ++interrupts; });
  m.AddThread("a", 0, [&] { Machine::Current()->InterruptSelf(); });
  m.Run();
  EXPECT_EQ(interrupts, 1);
}

// --- virtual local-irq layer -----------------------------------------------

// An interrupt raised inside an irqs-off window is deferred and delivered at
// the matching IrqRestore — the local_irq_save contract.
TEST(MachineIrqTest, InterruptDeferredWhileIrqsMasked) {
  Machine m(1);
  int interrupts = 0;
  std::vector<int> seen;
  m.SetInterruptHook([&](ThreadId) { ++interrupts; });
  m.AddThread("a", 0, [&] {
    Machine* mc = Machine::Current();
    mc->IrqSave();
    EXPECT_TRUE(mc->IrqsDisabled());
    mc->InterruptSelf();
    seen.push_back(interrupts);  // still pending
    mc->IrqRestore();
    seen.push_back(interrupts);  // delivered exactly here
    EXPECT_FALSE(mc->IrqsDisabled());
  });
  m.Run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1}));
}

TEST(MachineIrqTest, NestedIrqSaveDeliversAtOutermostRestore) {
  Machine m(1);
  int interrupts = 0;
  std::vector<int> seen;
  m.SetInterruptHook([&](ThreadId) { ++interrupts; });
  m.AddThread("a", 0, [&] {
    Machine* mc = Machine::Current();
    mc->IrqSave();
    mc->IrqSave();
    mc->InterruptSelf();
    mc->IrqRestore();
    seen.push_back(interrupts);  // inner restore: still masked, still pending
    mc->IrqRestore();
    seen.push_back(interrupts);  // outermost restore delivers
  });
  m.Run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1}));
}

TEST(MachineIrqTest, InterruptInsideHandlerStaysPending) {
  Machine m(1);
  int interrupts = 0;
  m.SetIrqDispatchHook([&](ThreadId) {
    ++interrupts;
    if (interrupts == 1) {
      // Nested hardirqs are not modelled: this raise must not recurse.
      Machine::Current()->InterruptSelf();
      EXPECT_TRUE(Machine::Current()->InIrq());
    }
  });
  m.AddThread("a", 0, [&] { Machine::Current()->InterruptSelf(); });
  m.Run();
  EXPECT_EQ(interrupts, 1) << "the nested raise is dropped as pending, not dispatched";
}

// A delayed store raised before the irqs-off window commits only when the
// deferred interrupt is finally delivered at IrqRestore — not at the (masked)
// InterruptSelf itself. This is the dynamic ground truth the irq-masked
// static verdict relies on.
TEST(MachineIrqTest, DeferredInterruptCommitsDelayedStoreAtRestore) {
  Cell<u64> x{0};
  InstrId site = kInvalidInstr;
  auto do_store = [&](u64 v) {
    site = OZZ_OEMU_SITE(InstrKind::kStore, "x");
    StoreCell(site, x, v);
  };
  {
    Runtime probe;
    probe.Activate(nullptr);
    do_store(0);
    probe.Deactivate();
    x.set_raw(0);
  }
  ASSERT_NE(site, kInvalidInstr);

  Machine m(1);
  Runtime rt;
  rt.Activate(&m);
  std::vector<u64> raw_at;
  m.AddThread("a", 0, [&] {
    Machine* mc = Machine::Current();
    rt.DelayStoreAt(0, site);
    mc->IrqSave();
    do_store(7);
    raw_at.push_back(x.raw());  // buffered
    mc->InterruptSelf();
    raw_at.push_back(x.raw());  // deferred: still buffered
    mc->IrqRestore();
    raw_at.push_back(x.raw());  // delivery flushed the buffer
  });
  m.Run();
  rt.Deactivate();
  EXPECT_EQ(raw_at, (std::vector<u64>{0, 0, 7}));
}

// The trace ring must record the deferral and the (deferred) delivery, in
// that order, with the documented a0 payloads. With tracing compiled out the
// ring stays empty, and both deliveries still happen.
TEST(MachineIrqTest, TraceRingRecordsDeferredDelivery) {
  obs::TraceRecorder recorder;
  recorder.Activate();
  Machine m(1);
  int interrupts = 0;
  std::vector<int> seen;
  m.SetInterruptHook([&](ThreadId) { ++interrupts; });
  m.AddThread("a", 0, [&] {
    Machine* mc = Machine::Current();
    mc->IrqSave();
    mc->InterruptSelf();
    mc->IrqRestore();
    seen.push_back(interrupts);  // the deferred delivery
    mc->InterruptSelf();         // unmasked: immediate delivery
    seen.push_back(interrupts);
  });
  m.Run();
  std::vector<obs::TraceRecorder::ThreadLog> logs = recorder.Collect();
  recorder.Deactivate();
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));

#if defined(OZZ_TRACE_ENABLED)
  std::vector<std::pair<obs::EvType, u64>> irq_events;
  for (const auto& log : logs) {
    for (const auto& e : log.events) {
      if (e.ev_type() == obs::EvType::kIrqDeferred || e.ev_type() == obs::EvType::kIrqDelivered) {
        irq_events.emplace_back(e.ev_type(), e.a0);
      }
    }
  }
  ASSERT_EQ(irq_events.size(), 3u);
  EXPECT_EQ(irq_events[0].first, obs::EvType::kIrqDeferred);
  EXPECT_EQ(irq_events[0].second, 1u) << "a0 = irq_depth at the deferral";
  EXPECT_EQ(irq_events[1].first, obs::EvType::kIrqDelivered);
  EXPECT_EQ(irq_events[1].second, 1u) << "a0 = was_deferred";
  EXPECT_EQ(irq_events[2].first, obs::EvType::kIrqDelivered);
  EXPECT_EQ(irq_events[2].second, 0u) << "a0 = immediate";
#else
  for (const auto& log : logs) {
    EXPECT_TRUE(log.events.empty()) << "tracing is compiled out";
  }
#endif
}

// A fire_irq plan point delivers a virtual interrupt on the running thread at
// the exact dynamic occurrence instead of switching threads.
TEST(MachineIrqTest, FireIrqPlanPointDeliversAtOccurrence) {
  Cell<u64> x{0};
  InstrId site = kInvalidInstr;
  auto do_store = [&](u64 v) {
    site = OZZ_OEMU_SITE(InstrKind::kStore, "x");
    StoreCell(site, x, v);
  };
  {
    Runtime probe;
    probe.Activate(nullptr);
    do_store(0);
    probe.Deactivate();
    x.set_raw(0);
  }
  ASSERT_NE(site, kInvalidInstr);

  Machine m(1);
  Runtime rt;
  rt.Activate(&m);
  u64 value_at_irq = ~0ull;
  m.SetIrqDispatchHook([&](ThreadId) { value_at_irq = x.raw(); });
  m.AddThread("a", 0, [&] {
    for (u64 i = 1; i <= 4; ++i) {
      do_store(i);
    }
  });
  SchedPlan plan;
  plan.first = 0;
  SchedPoint pt;
  pt.thread = 0;
  pt.instr = site;
  pt.occurrence = 2;
  pt.when = SwitchWhen::kAfterAccess;
  pt.fire_irq = true;
  plan.points.push_back(pt);
  m.SetPlan(plan);
  m.Run();
  rt.Deactivate();
  EXPECT_EQ(value_at_irq, 2u) << "handler ran right after the 2nd store";
  EXPECT_EQ(m.plan_points_consumed(), 1u);
}

TEST(MachineTest, ContextSwitchesCounted) {
  Machine m(2);
  m.AddThread("a", 0, [&] {
    Machine::Current()->Yield();
  });
  m.AddThread("b", 1, [] {});
  int switches = m.Run();
  EXPECT_GE(switches, 2);
}

TEST(MachineTest, CurrentIsNullOnHost) {
  EXPECT_EQ(Machine::Current(), nullptr);
  EXPECT_EQ(Machine::CurrentThread(), nullptr);
}

}  // namespace
}  // namespace ozz::rt
