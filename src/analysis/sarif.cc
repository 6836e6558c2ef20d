#include "src/analysis/sarif.h"

#include <set>
#include <sstream>

#include "src/base/json.h"

namespace ozz::analysis {

using base::JsonEscape;

std::string SarifLog(const std::string& tool_name, const std::string& rules_base_doc,
                     const std::vector<SarifResult>& results) {
  std::ostringstream out;
  std::set<std::string> rules;
  for (const SarifResult& r : results) {
    rules.insert(r.rule_id);
  }
  out << "{\n"
      << "  \"$schema\": "
         "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/"
         "sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"" << JsonEscape(tool_name) << "\",\n"
      << "          \"rules\": [\n";
  std::size_t ri = 0;
  for (const std::string& rule : rules) {
    out << "            {\"id\": \"" << JsonEscape(rule) << "\"";
    if (!rules_base_doc.empty()) {
      out << ", \"helpUri\": \"" << JsonEscape(rules_base_doc) << "\"";
    }
    out << "}" << (++ri < rules.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SarifResult& r = results[i];
    out << "        {\n"
        << "          \"ruleId\": \"" << JsonEscape(r.rule_id) << "\",\n"
        << "          \"level\": \"" << JsonEscape(r.level) << "\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(r.message) << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
        << JsonEscape(r.file) << "\"}, \"region\": {\"startLine\": " << (r.line > 0 ? r.line : 1)
        << "}}}\n"
        << "          ]\n"
        << "        }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace ozz::analysis
