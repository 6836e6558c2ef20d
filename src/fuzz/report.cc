#include "src/fuzz/report.h"

#include <sstream>

#include "src/base/check.h"
#include "src/base/json.h"
#include "src/obs/prof.h"
#include "src/oemu/instr.h"

namespace ozz::fuzz {

BugReport MakeBugReport(const MtiSpec& spec, const MtiResult& result) {
  obs::PhaseTimer phase_timer(obs::Phase::kReport);
  OZZ_CHECK(result.crashed);
  BugReport report;
  report.title = result.crash.title;
  report.subsystem = spec.prog.calls[spec.call_a].desc->subsystem;
  report.reorder_type = spec.hint.irq_test ? "IRQ" : spec.hint.store_test ? "S-S" : "L-L";
  report.prog = spec.prog.ToString();
  report.hint = spec.hint.ToString();
  report.oops_detail = result.crash.detail;

  for (const DynAccess& a : spec.hint.reorder) {
    report.reordered_accesses.push_back(oemu::InstrRegistry::Describe(a.instr));
  }

  std::ostringstream barrier;
  if (spec.hint.irq_test) {
    // Not a memory-ordering bug: the handler interleaved with its own CPU's
    // critical section. The repair is masking, not a barrier.
    barrier << "missing irq masking (e.g. spin_lock_irqsave/local_irq_save) around "
            << oemu::InstrRegistry::Describe(spec.hint.sched.instr);
    report.hypothetical_barrier = barrier.str();
    return report;
  }
  if (spec.hint.store_test) {
    barrier << "missing store barrier (e.g. smp_wmb/smp_store_release) between ";
    if (!spec.hint.reorder.empty()) {
      barrier << oemu::InstrRegistry::Describe(spec.hint.reorder.back().instr) << " and ";
    }
    barrier << oemu::InstrRegistry::Describe(spec.hint.sched.instr);
  } else {
    barrier << "missing load barrier (e.g. smp_rmb/smp_load_acquire) between "
            << oemu::InstrRegistry::Describe(spec.hint.sched.instr) << " and ";
    if (!spec.hint.reorder.empty()) {
      barrier << oemu::InstrRegistry::Describe(spec.hint.reorder.front().instr);
    }
  }
  report.hypothetical_barrier = barrier.str();
  return report;
}

std::string BugReportToJson(const BugReport& report) {
  std::ostringstream os;
  os << "{\"title\":\"" << base::JsonEscape(report.title) << "\",\"subsystem\":\""
     << base::JsonEscape(report.subsystem) << "\",\"reorder_type\":\""
     << base::JsonEscape(report.reorder_type) << "\",\"hypothetical_barrier\":\""
     << base::JsonEscape(report.hypothetical_barrier) << "\",\"program\":\""
     << base::JsonEscape(report.prog) << "\",\"hint\":\"" << base::JsonEscape(report.hint)
     << "\",\"reordered_accesses\":[";
  for (std::size_t i = 0; i < report.reordered_accesses.size(); ++i) {
    os << (i > 0 ? ",\"" : "\"") << base::JsonEscape(report.reordered_accesses[i]) << '"';
  }
  os << "]}";
  return os.str();
}

std::string FormatBugReport(const BugReport& report) {
  std::ostringstream os;
  os << report.title << "\n";
  os << "  subsystem:  " << report.subsystem << "\n";
  os << "  reordering: " << report.reorder_type << "\n";
  os << "  program:    " << report.prog << "\n";
  os << "  hint:       " << report.hint << "\n";
  os << "  reordered accesses:\n";
  for (const std::string& a : report.reordered_accesses) {
    os << "    - " << a << "\n";
  }
  os << "  hypothetical barrier: " << report.hypothetical_barrier << "\n";
  if (!report.oops_detail.empty()) {
    os << "  detail: " << report.oops_detail << "\n";
  }
  return os.str();
}

}  // namespace ozz::fuzz
