#include "src/obs/export.h"

#include <cstdio>
#include <sstream>

#include "src/base/json.h"

namespace ozz::obs {
namespace {

using base::JsonEscape;

// Display tid: rings bias thread ids the same way, so tracks line up with the
// recorder's slot order and stay non-negative for the UI.
int DisplayTid(i16 thread) { return thread + 4; }

std::string ThreadName(i16 thread) {
  if (thread == -2) {
    return "host";
  }
  if (thread >= 0) {
    return "sim-" + std::to_string(thread);
  }
  return "t" + std::to_string(thread);
}

std::string EventDetail(const TraceFile& file, const TraceEvent& e) {
  char buf[128];
  const unsigned long long a0 = e.a0;
  const unsigned long long a1 = e.a1;
  switch (e.ev_type()) {
    case EvType::kStoreDelayed:
      std::snprintf(buf, sizeof(buf), "addr=0x%llx value=%llu", a0, a1);
      break;
    case EvType::kStoreCommit:
      std::snprintf(buf, sizeof(buf), "addr=0x%llx delayed=%llu", a0, a1);
      break;
    case EvType::kStoreForward:
      std::snprintf(buf, sizeof(buf), "addr=0x%llx bytes=%llu", a0, a1);
      break;
    case EvType::kLoadOld:
      std::snprintf(buf, sizeof(buf), "addr=0x%llx age=%llu", a0, a1);
      break;
    case EvType::kLoadNew:
      std::snprintf(buf, sizeof(buf), "addr=0x%llx", a0);
      break;
    case EvType::kBarrierFlush:
      std::snprintf(buf, sizeof(buf), "flushed=%llu barrier=%llu", a0, a1);
      break;
    case EvType::kInterruptCommit:
      std::snprintf(buf, sizeof(buf), "flushed=%llu", a0);
      break;
    case EvType::kSegmentSwitch:
      std::snprintf(buf, sizeof(buf), "t%llu -> t%llu", a0, a1);
      break;
    case EvType::kHintArm:
    case EvType::kHintHit:
      std::snprintf(buf, sizeof(buf), "occurrence=%llu %s", a0,
                    a1 != 0 ? "store-test" : "load-test");
      break;
    case EvType::kOracle:
      std::snprintf(buf, sizeof(buf), "kind=%llu addr=0x%llx", a0, a1);
      break;
    case EvType::kSyscallEnter:
      buf[0] = '\0';
      break;
    case EvType::kSyscallExit:
      std::snprintf(buf, sizeof(buf), "flushed=%llu", a0);
      break;
    case EvType::kIrqDeferred:
      std::snprintf(buf, sizeof(buf), "irq_depth=%llu", a0);
      break;
    case EvType::kIrqDelivered:
      std::snprintf(buf, sizeof(buf), "%s", a0 != 0 ? "was-deferred" : "immediate");
      break;
    default:
      std::snprintf(buf, sizeof(buf), "a0=%llu a1=%llu", a0, a1);
  }
  std::string detail = buf;
  std::string instr = file.DescribeInstr(e.instr);
  if (!instr.empty()) {
    if (!detail.empty()) {
      detail += ' ';
    }
    detail += instr;
  }
  return detail;
}

}  // namespace

std::string ToPerfettoJson(const TraceFile& file) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"label\":\""
     << JsonEscape(file.meta.label) << "\",\"crash\":\"" << JsonEscape(file.meta.crash_title)
     << "\",\"model\":\"" << JsonEscape(file.meta.model) << "\"},\"traceEvents\":[";
  bool first = true;
  auto sep = [&os, &first]() {
    if (!first) {
      os << ',';
    }
    os << '\n';
    first = false;
  };
  for (const TraceThread& t : file.threads) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << DisplayTid(static_cast<i16>(t.thread))
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << JsonEscape(ThreadName(static_cast<i16>(t.thread))) << "\"}}";
  }
  for (const TraceEvent& e : MergedEvents(file)) {
    sep();
    const int tid = DisplayTid(e.thread);
    switch (e.ev_type()) {
      case EvType::kSyscallEnter:
        os << "{\"ph\":\"B\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << e.seq
           << ",\"name\":\"syscall\",\"args\":{\"clock\":" << e.ts << "}}";
        break;
      case EvType::kSyscallExit:
        os << "{\"ph\":\"E\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << e.seq
           << ",\"args\":{\"flushed\":" << e.a0 << "}}";
        break;
      default: {
        os << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << e.seq
           << ",\"s\":\"t\",\"name\":\"" << EvTypeName(e.ev_type()) << "\",\"args\":{";
        std::string instr = file.DescribeInstr(e.instr);
        if (!instr.empty()) {
          os << "\"instr\":\"" << JsonEscape(instr) << "\",";
        }
        os << "\"a0\":" << e.a0 << ",\"a1\":" << e.a1 << ",\"clock\":" << e.ts << "}}";
      }
    }
  }
  os << "\n]}";
  return os.str();
}

std::string ToTimeline(const TraceFile& file) {
  std::ostringstream os;
  if (!file.meta.label.empty()) {
    os << "# " << file.meta.label << '\n';
  }
  if (!file.meta.crash_title.empty()) {
    os << "# crash: " << file.meta.crash_title << '\n';
  }
  if (!file.meta.model.empty()) {
    os << "# model: " << file.meta.model << '\n';
  }
  u64 dropped = file.total_dropped();
  if (dropped > 0) {
    os << "# WARNING: " << dropped << " event(s) dropped (ring full) — timeline incomplete\n";
  }
  os << "#    seq  thr    clk  event            detail\n";
  for (const TraceEvent& e : MergedEvents(file)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%8llu  t%-3d %6llu  %-16s ",
                  static_cast<unsigned long long>(e.seq), static_cast<int>(e.thread),
                  static_cast<unsigned long long>(e.ts), EvTypeName(e.ev_type()));
    os << buf << EventDetail(file, e) << '\n';
  }
  return os.str();
}

}  // namespace ozz::obs
