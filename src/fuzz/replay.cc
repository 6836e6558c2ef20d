#include "src/fuzz/replay.h"

#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "src/base/number.h"
#include "src/fuzz/profile.h"
#include "src/oemu/instr.h"

namespace ozz::fuzz {
namespace {

// Source position of an instrumented site: basename:line.
std::string SitePosition(InstrId instr) {
  const oemu::InstrInfo& info = oemu::InstrRegistry::Info(instr);
  std::size_t slash = info.file.find_last_of('/');
  std::string base = slash == std::string::npos ? info.file : info.file.substr(slash + 1);
  std::ostringstream os;
  os << base << ":" << info.line;
  return os.str();
}

std::string DynPosition(const DynAccess& a) {
  std::ostringstream os;
  os << SitePosition(a.instr) << "#" << a.occurrence;
  return os.str();
}

bool ParsePosition(const std::string& token, std::string* pos, u32* occurrence) {
  std::size_t hash = token.find_last_of('#');
  if (hash == std::string::npos || hash == 0) {
    return false;
  }
  *pos = token.substr(0, hash);
  return base::ParseNumber(std::string_view(token).substr(hash + 1), occurrence);
}

}  // namespace

std::string SerializeMtiSpec(const MtiSpec& spec) {
  std::ostringstream os;
  os << "# OZZ replayable crash spec\n";
  for (const Call& call : spec.prog.calls) {
    os << "call " << call.desc->name;
    for (const ArgValue& a : call.args) {
      if (a.ref_call >= 0) {
        os << " r" << a.ref_call;
      } else {
        os << " " << a.value;
      }
    }
    os << "\n";
  }
  os << "pair " << spec.call_a << " " << spec.call_b << "\n";
  os << "test " << (spec.hint.irq_test ? "irq" : spec.hint.store_test ? "store" : "load") << "\n";
  os << "sched " << DynPosition(spec.hint.sched) << " "
     << (spec.hint.sched_phase == rt::SwitchWhen::kBeforeAccess ? "before" : "after") << "\n";
  for (const DynAccess& a : spec.hint.reorder) {
    os << "reorder " << DynPosition(a) << "\n";
  }
  return os.str();
}

bool ParseMtiSpec(const std::string& text, const osk::SyscallTable& table,
                  const osk::KernelConfig& config, MtiSpec* spec, std::string* error) {
  MtiSpec out;
  struct PendingAccess {
    int lineno = 0;
    std::string pos;
    u32 occurrence = 0;
    bool is_sched = false;
    rt::SwitchWhen phase = rt::SwitchWhen::kAfterAccess;
  };
  std::vector<PendingAccess> pending;
  int pair_line = 0;   // 0: no pair line yet
  int sched_line = 0;  // 0: no sched line yet

  // Errors name the line they were found on; `line` 0 means the spec as a
  // whole.
  auto fail_at = [&](int line, const std::string& msg) {
    if (error != nullptr) {
      *error = line > 0 ? "line " + std::to_string(line) + ": " + msg : msg;
    }
    return false;
  };

  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) { return fail_at(lineno, msg); };

  while (std::getline(lines, line)) {
    ++lineno;
    std::istringstream tok(line);
    std::string kind;
    if (!(tok >> kind) || kind[0] == '#') {
      continue;
    }
    std::vector<std::string> words;
    for (std::string word; tok >> word;) {
      words.push_back(std::move(word));
    }
    if (kind == "call") {
      if (words.empty()) {
        return fail("call without a name");
      }
      const osk::SyscallDesc* desc = table.Find(words[0]);
      if (desc == nullptr) {
        return fail("unknown syscall " + words[0]);
      }
      Call call;
      call.desc = desc;
      for (std::size_t i = 1; i < words.size(); ++i) {
        const std::string_view arg = words[i];
        ArgValue v;
        if (!(arg[0] == 'r' ? base::ParseNumber(arg.substr(1), &v.ref_call)
                            : base::ParseNumber(arg, &v.value))) {
          return fail("malformed argument " + words[i]);
        }
        call.args.push_back(v);
      }
      if (call.args.size() != desc->args.size()) {
        return fail("arity mismatch for " + words[0]);
      }
      out.prog.calls.push_back(std::move(call));
      continue;
    }
    // Every other directive takes a fixed number of words.
    if (kind != "pair" && kind != "test" && kind != "sched" && kind != "reorder") {
      return fail("unknown directive " + kind);
    }
    const std::size_t arity = kind == "pair" || kind == "sched" ? 2 : 1;
    if (words.size() < arity) {
      return fail("missing operand for " + kind);
    }
    if (words.size() > arity) {
      return fail("trailing token " + words[arity]);
    }
    if (kind == "pair") {
      if (!base::ParseNumber(words[0], &out.call_a) || !base::ParseNumber(words[1], &out.call_b)) {
        return fail("malformed pair");
      }
      pair_line = lineno;
    } else if (kind == "test") {
      if (words[0] != "store" && words[0] != "load" && words[0] != "irq") {
        return fail("unknown test " + words[0] + " (store, load or irq)");
      }
      out.hint.store_test = words[0] == "store";
      out.hint.irq_test = words[0] == "irq";
    } else {
      PendingAccess p;
      p.lineno = lineno;
      if (!ParsePosition(words[0], &p.pos, &p.occurrence)) {
        return fail("malformed position " + words[0]);
      }
      p.is_sched = kind == "sched";
      if (p.is_sched) {
        if (words[1] != "before" && words[1] != "after") {
          return fail("unknown sched phase " + words[1] + " (before or after)");
        }
        p.phase = words[1] == "before" ? rt::SwitchWhen::kBeforeAccess
                                       : rt::SwitchWhen::kAfterAccess;
        sched_line = lineno;
      }
      pending.push_back(std::move(p));
    }
  }

  if (out.prog.calls.empty() || pair_line == 0 || sched_line == 0) {
    return fail_at(0, "spec needs calls, a pair and a sched position");
  }
  if (out.call_a >= out.prog.calls.size() || out.call_b >= out.prog.calls.size()) {
    return fail_at(pair_line, "pair indices out of range");
  }
  // An interrupt-injection test interrupts one call on its own CPU, so its
  // pair names that call twice; every other test needs two distinct calls.
  if ((out.call_a == out.call_b) != out.hint.irq_test) {
    return fail_at(pair_line, out.hint.irq_test ? "an irq test pairs a call with itself"
                                                : "pair needs two distinct calls");
  }

  // Resolve source positions to InstrIds by profiling the program: the
  // reordering call's trace visits every relevant site.
  ProgProfile profile = ProfileProg(out.prog, config);
  if (out.call_a >= profile.calls.size()) {
    return fail_at(pair_line, "program crashed before the pair while resolving");
  }
  std::map<std::string, std::map<u32, DynAccess>> by_position;
  for (const oemu::Event& e : profile.calls[out.call_a].trace) {
    if (e.IsAccess()) {
      by_position[SitePosition(e.instr)][e.occurrence] =
          DynAccess{e.instr, e.occurrence, e.access};
    }
  }
  for (const PendingAccess& p : pending) {
    if (!p.is_sched && out.hint.irq_test) {
      return fail_at(p.lineno, "an irq test has no reorder set");
    }
    auto pos_it = by_position.find(p.pos);
    if (pos_it == by_position.end()) {
      return fail_at(p.lineno, "position " + p.pos + " not reached by the reordering call");
    }
    auto occ_it = pos_it->second.find(p.occurrence);
    if (occ_it == pos_it->second.end()) {
      return fail_at(p.lineno, "occurrence not reached at " + p.pos);
    }
    if (p.is_sched) {
      out.hint.sched = occ_it->second;
      out.hint.sched_phase = p.phase;
    } else {
      out.hint.reorder.push_back(occ_it->second);
    }
  }
  *spec = std::move(out);
  return true;
}

}  // namespace ozz::fuzz
