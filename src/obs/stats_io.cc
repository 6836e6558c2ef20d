#include "src/obs/stats_io.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "src/base/json.h"

namespace ozz::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON parsing: a minimal recursive-descent reader for the subset this file
// writes (objects, arrays, strings, unsigned integers, bools, null). Numbers
// are kept as u64 — the format never emits fractions, and doubles would
// round large tick counts.

struct JsonValue {
  enum class Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = Kind::kNull;
  bool b = false;
  u64 num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue* Get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  u64 NumOr(const std::string& key, u64 fallback) const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->kind == Kind::kNum ? v->num : fallback;
  }
  std::string StrOr(const std::string& key, const std::string& fallback) const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->kind == Kind::kStr ? v->str : fallback;
  }
};

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    if (!Value(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return true;
  }

 private:
  bool Fail(const std::string& why) {
    if (error_ != nullptr) {
      *error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) {
      return Fail(std::string("expected '") + lit + "'");
    }
    pos_ += n;
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The writer only escapes control bytes; anything else degrades
          // to '?' rather than growing a full UTF-8 encoder.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Value(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObj;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!String(&key)) {
          return false;
        }
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail("expected ':'");
        }
        ++pos_;
        if (!Value(&out->obj[key])) {
          return false;
        }
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArr;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        out->arr.emplace_back();
        if (!Value(&out->arr.back())) {
          return false;
        }
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kStr;
      return String(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->b = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->b = false;
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      out->kind = JsonValue::Kind::kNum;
      const char* begin = text_.c_str() + pos_;
      char* end = nullptr;
      // The format emits unsigned integers only; a stray '-' parses to 0.
      out->num = c == '-' ? 0 : std::strtoull(begin, &end, 10);
      if (end == begin && c != '-') {
        return Fail("bad number");
      }
      pos_ += end == nullptr ? 1 : static_cast<std::size_t>(end - begin);
      return true;
    }
    return Fail("unexpected character");
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

std::map<std::string, u64> ParseCounterMap(const JsonValue& obj) {
  std::map<std::string, u64> out;
  for (const auto& [name, v] : obj.obj) {
    if (v.kind == JsonValue::Kind::kNum) {
      out[name] = v.num;
    }
  }
  return out;
}

std::vector<u64> ParseNumArray(const JsonValue& arr) {
  std::vector<u64> out;
  for (const JsonValue& v : arr.arr) {
    out.push_back(v.kind == JsonValue::Kind::kNum ? v.num : 0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rendering helpers

double TicksToMs(u64 ticks, u64 tps) {
  const double scale = tps == 0 ? 1e9 : static_cast<double>(tps);
  return static_cast<double>(ticks) / scale * 1e3;
}

// Folded-stack prefix encoding the pipeline's static nesting (static-prune
// and axiomatic run inside hint-compute; the oracle runs inside execute) so
// the flamegraph shows the real call structure even though snapshots store
// flat per-phase sums.
std::string FoldedPrefix(const std::string& phase) {
  if (phase == "static-prune" || phase == "axiomatic") {
    return "hint-compute;" + phase;
  }
  if (phase == "oracle") {
    return "execute;oracle";
  }
  return phase;
}

}  // namespace

StatsSnapshot BuildStatsSnapshot(const std::string& kind, u64 seq, u64 elapsed_us,
                                 const ProfSnapshot& prof, const MetricsSnapshot& metrics,
                                 const InstrResolver& resolver) {
  StatsSnapshot out;
  out.kind = kind;
  out.seq = seq;
  out.elapsed_us = elapsed_us;
  out.ticks_per_sec = prof.ticks_per_sec;
  out.phases = prof.phases;
  out.prof_counters = prof.counters;
  out.metrics = metrics;
  for (const ProfSnapshot::SiteStat& s : prof.sites) {
    StatsSite site;
    site.phase = s.phase;
    site.instr = s.instr;
    site.hits = s.hits;
    site.ticks = s.ticks;
    InstrTableEntry entry;
    if (resolver != nullptr && resolver(s.instr, &entry)) {
      site.file = entry.file;
      site.function = entry.function;
      site.line = entry.line;
    }
    out.sites.push_back(std::move(site));
  }
  return out;
}

std::string WriteStatsJson(const StatsSnapshot& s) {
  std::string out = "{\"kind\":\"" + base::JsonEscape(s.kind) + '"';
  out += ",\"seq\":" + std::to_string(s.seq);
  out += ",\"elapsed_us\":" + std::to_string(s.elapsed_us);
  out += ",\"ticks_per_sec\":" + std::to_string(s.ticks_per_sec);
  out += ",\"phases\":[";
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    const ProfSnapshot::PhaseStat& p = s.phases[i];
    out += i > 0 ? ",{" : "{";
    out += "\"name\":\"" + base::JsonEscape(p.name) + '"';
    out += ",\"count\":" + std::to_string(p.count);
    out += ",\"total_ticks\":" + std::to_string(p.total_ticks);
    out += ",\"self_ticks\":" + std::to_string(p.self_ticks) + "}";
  }
  out += "],\"sites\":[";
  for (std::size_t i = 0; i < s.sites.size(); ++i) {
    const StatsSite& site = s.sites[i];
    out += i > 0 ? ",{" : "{";
    out += "\"instr\":" + std::to_string(site.instr);
    out += ",\"phase\":\"" + base::JsonEscape(site.phase) + '"';
    out += ",\"hits\":" + std::to_string(site.hits);
    out += ",\"ticks\":" + std::to_string(site.ticks);
    out += ",\"file\":\"" + base::JsonEscape(site.file) + '"';
    out += ",\"function\":\"" + base::JsonEscape(site.function) + '"';
    out += ",\"line\":" + std::to_string(site.line) + "}";
  }
  out += "],\"prof_counters\":{";
  bool first = true;
  for (const auto& [name, value] : s.prof_counters) {
    if (!first) {
      out += ",";
    }
    out += '"' + base::JsonEscape(name) + '"';
    out += ":" + std::to_string(value);
    first = false;
  }
  out += "},\"metrics\":" + Metrics::ToJson(s.metrics) + "}";
  return out;
}

bool ParseStatsJson(const std::string& line, StatsSnapshot* out, std::string* error) {
  JsonValue root;
  JsonParser parser(line, error);
  if (!parser.Parse(&root)) {
    return false;
  }
  if (root.kind != JsonValue::Kind::kObj) {
    if (error != nullptr) {
      *error = "snapshot is not a JSON object";
    }
    return false;
  }
  *out = StatsSnapshot();
  out->kind = root.StrOr("kind", "heartbeat");
  out->seq = root.NumOr("seq", 0);
  out->elapsed_us = root.NumOr("elapsed_us", 0);
  out->ticks_per_sec = root.NumOr("ticks_per_sec", 0);
  if (const JsonValue* phases = root.Get("phases")) {
    for (const JsonValue& p : phases->arr) {
      ProfSnapshot::PhaseStat stat;
      stat.name = p.StrOr("name", "?");
      stat.count = p.NumOr("count", 0);
      stat.total_ticks = p.NumOr("total_ticks", 0);
      stat.self_ticks = p.NumOr("self_ticks", 0);
      out->phases.push_back(std::move(stat));
    }
  }
  if (const JsonValue* sites = root.Get("sites")) {
    for (const JsonValue& v : sites->arr) {
      StatsSite site;
      site.instr = static_cast<InstrId>(v.NumOr("instr", 0));
      site.phase = v.StrOr("phase", "none");
      site.hits = v.NumOr("hits", 0);
      site.ticks = v.NumOr("ticks", 0);
      site.file = v.StrOr("file", "");
      site.function = v.StrOr("function", "");
      site.line = static_cast<u32>(v.NumOr("line", 0));
      out->sites.push_back(std::move(site));
    }
  }
  if (const JsonValue* pc = root.Get("prof_counters")) {
    out->prof_counters = ParseCounterMap(*pc);
  }
  if (const JsonValue* metrics = root.Get("metrics")) {
    if (const JsonValue* counters = metrics->Get("counters")) {
      out->metrics.counters = ParseCounterMap(*counters);
    }
    if (const JsonValue* hists = metrics->Get("histograms")) {
      for (const auto& [name, h] : hists->obj) {
        MetricsSnapshot::Hist hist;
        if (const JsonValue* bounds = h.Get("bounds")) {
          hist.bounds = ParseNumArray(*bounds);
        }
        if (const JsonValue* counts = h.Get("counts")) {
          hist.counts = ParseNumArray(*counts);
        }
        hist.count = h.NumOr("count", 0);
        hist.sum = h.NumOr("sum", 0);
        hist.max = h.NumOr("max", 0);
        out->metrics.histograms[name] = std::move(hist);
      }
    }
  }
  return true;
}

bool ReadStatsFile(const std::string& path, std::vector<StatsSnapshot>* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "'";
    }
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    StatsSnapshot snap;
    std::string parse_error;
    if (!ParseStatsJson(line, &snap, &parse_error)) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(lineno) + ": " + parse_error;
      }
      return false;
    }
    out->push_back(std::move(snap));
  }
  return true;
}

std::string DescribeSite(const StatsSite& site) {
  if (site.file.empty()) {
    return "instr#" + std::to_string(site.instr);
  }
  std::string fn = site.function.empty() ? "?" : site.function;
  return site.file + ":" + fn + ":" + std::to_string(site.line);
}

StatsSnapshot DiffStats(const StatsSnapshot& begin, const StatsSnapshot& end) {
  auto clamped = [](u64 a, u64 b) { return a >= b ? a - b : 0; };
  StatsSnapshot out;
  out.kind = "diff";
  out.seq = end.seq;
  out.elapsed_us = clamped(end.elapsed_us, begin.elapsed_us);
  out.ticks_per_sec = end.ticks_per_sec != 0 ? end.ticks_per_sec : begin.ticks_per_sec;

  std::map<std::string, ProfSnapshot::PhaseStat> begin_phases;
  for (const ProfSnapshot::PhaseStat& p : begin.phases) {
    begin_phases[p.name] = p;
  }
  for (ProfSnapshot::PhaseStat p : end.phases) {
    auto it = begin_phases.find(p.name);
    if (it != begin_phases.end()) {
      p.count = clamped(p.count, it->second.count);
      p.total_ticks = clamped(p.total_ticks, it->second.total_ticks);
      p.self_ticks = clamped(p.self_ticks, it->second.self_ticks);
    }
    if (p.count != 0 || p.total_ticks != 0) {
      out.phases.push_back(std::move(p));
    }
  }

  // Source locations are stable across processes; raw ids are not, so an
  // unresolved site only joins within the same stream.
  auto site_key = [](const StatsSite& s) {
    return s.phase + "|" +
           (s.file.empty() ? "#" + std::to_string(s.instr)
                           : s.file + ":" + std::to_string(s.line) + ":" + s.function);
  };
  std::map<std::string, StatsSite> begin_sites;
  for (const StatsSite& s : begin.sites) {
    begin_sites[site_key(s)] = s;
  }
  for (StatsSite s : end.sites) {
    auto it = begin_sites.find(site_key(s));
    if (it != begin_sites.end()) {
      s.hits = clamped(s.hits, it->second.hits);
      s.ticks = clamped(s.ticks, it->second.ticks);
    }
    if (s.hits != 0 || s.ticks != 0) {
      out.sites.push_back(std::move(s));
    }
  }

  for (const auto& [name, value] : end.prof_counters) {
    auto it = begin.prof_counters.find(name);
    u64 d = clamped(value, it == begin.prof_counters.end() ? 0 : it->second);
    if (d != 0) {
      out.prof_counters[name] = d;
    }
  }
  out.metrics = Metrics::Delta(begin.metrics, end.metrics);
  return out;
}

std::string RenderStats(const StatsSnapshot& s, std::size_t top_n) {
  std::ostringstream os;
  char buf[256];
  const u64 tps = s.ticks_per_sec;
  std::snprintf(buf, sizeof(buf), "stats: kind=%s seq=%llu elapsed=%.3fs\n",
                s.kind.c_str(), static_cast<unsigned long long>(s.seq),
                static_cast<double>(s.elapsed_us) / 1e6);
  os << buf;

  if (!s.phases.empty()) {
    u64 self_sum = 0;
    for (const ProfSnapshot::PhaseStat& p : s.phases) {
      self_sum += p.self_ticks;
    }
    os << "phases:\n";
    std::snprintf(buf, sizeof(buf), "  %-14s %10s %12s %12s %7s\n", "phase", "count",
                  "total ms", "self ms", "self%");
    os << buf;
    for (const ProfSnapshot::PhaseStat& p : s.phases) {
      const double pct =
          self_sum == 0 ? 0.0 : 100.0 * static_cast<double>(p.self_ticks) / self_sum;
      std::snprintf(buf, sizeof(buf), "  %-14s %10llu %12.3f %12.3f %6.1f%%\n",
                    p.name.c_str(), static_cast<unsigned long long>(p.count),
                    TicksToMs(p.total_ticks, tps), TicksToMs(p.self_ticks, tps), pct);
      os << buf;
    }
  }

  if (!s.sites.empty()) {
    // Aggregate per source location across phases for the ranking; remember
    // which phases contributed.
    struct Agg {
      u64 hits = 0;
      u64 ticks = 0;
      std::vector<std::string> phases;
    };
    std::map<std::string, Agg> agg;
    for (const StatsSite& site : s.sites) {
      Agg& a = agg[DescribeSite(site)];
      a.hits += site.hits;
      a.ticks += site.ticks;
      if (std::find(a.phases.begin(), a.phases.end(), site.phase) == a.phases.end()) {
        a.phases.push_back(site.phase);
      }
    }
    std::vector<std::pair<std::string, Agg>> ranked(agg.begin(), agg.end());
    std::stable_sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second.ticks != b.second.ticks ? a.second.ticks > b.second.ticks
                                              : a.first < b.first;
    });
    if (ranked.size() > top_n) {
      ranked.resize(top_n);
    }
    std::snprintf(buf, sizeof(buf), "top %zu hottest sites:\n", ranked.size());
    os << buf;
    std::snprintf(buf, sizeof(buf), "  %12s %10s  %s\n", "self ms", "hits", "site");
    os << buf;
    for (const auto& [name, a] : ranked) {
      std::string phases;
      for (const std::string& p : a.phases) {
        phases += (phases.empty() ? "" : "+") + p;
      }
      std::snprintf(buf, sizeof(buf), "  %12.3f %10llu  %s [%s]\n", TicksToMs(a.ticks, tps),
                    static_cast<unsigned long long>(a.hits), name.c_str(), phases.c_str());
      os << buf;
    }
  }

  auto pc = [&s](const char* name) {
    auto it = s.prof_counters.find(name);
    return it == s.prof_counters.end() ? u64{0} : it->second;
  };
  if (!s.prof_counters.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "hint-check paths: loads %llu fast / %llu slow, stores %llu fast / %llu "
                  "slow\n",
                  static_cast<unsigned long long>(pc("load_hint_fast")),
                  static_cast<unsigned long long>(pc("load_hint_slow")),
                  static_cast<unsigned long long>(pc("store_hint_fast")),
                  static_cast<unsigned long long>(pc("store_hint_slow")));
    os << buf;
  }

  if (!s.metrics.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : s.metrics.counters) {
      std::snprintf(buf, sizeof(buf), "  %s = %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      os << buf;
    }
  }
  if (!s.metrics.histograms.empty()) {
    os << "histograms:\n";
    for (const auto& [name, hist] : s.metrics.histograms) {
      std::snprintf(buf, sizeof(buf), "  %s: count=%llu sum=%llu max=%llu\n", name.c_str(),
                    static_cast<unsigned long long>(hist.count),
                    static_cast<unsigned long long>(hist.sum),
                    static_cast<unsigned long long>(hist.max));
      os << buf;
    }
  }
  return os.str();
}

std::string RenderFolded(const StatsSnapshot& s) {
  std::string out;
  for (const ProfSnapshot::PhaseStat& p : s.phases) {
    if (p.self_ticks == 0) {
      continue;
    }
    out += FoldedPrefix(p.name) + " " + std::to_string(p.self_ticks) + "\n";
  }
  for (const StatsSite& site : s.sites) {
    if (site.ticks == 0) {
      continue;
    }
    out += FoldedPrefix(site.phase) + ";" + DescribeSite(site) + " " +
           std::to_string(site.ticks) + "\n";
  }
  return out;
}

}  // namespace ozz::obs
