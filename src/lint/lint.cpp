#include "src/lint/lint.hpp"

#include <sstream>

#include "src/obs/json.hpp"

namespace fcrit::lint {

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::size_t LintReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == severity) ++n;
  return n;
}

std::size_t LintReport::count_at_least(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics)
    if (static_cast<int>(d.severity) >= static_cast<int>(severity)) ++n;
  return n;
}

std::string LintReport::to_string() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) {
    os << lint::to_string(d.severity) << "[" << d.rule_id << "]";
    if (!d.node_name.empty()) os << " '" << d.node_name << "'";
    if (d.line > 0) os << " (line " << d.line << ")";
    os << ": " << d.message;
    if (!d.fixit_hint.empty()) os << " [fix: " << d.fixit_hint << "]";
    os << "\n";
  }
  os << "lint";
  if (!target_name.empty()) os << " " << target_name;
  os << ": " << diagnostics.size() << " finding(s) — " << errors()
     << " error(s), " << warnings() << " warning(s), " << notes()
     << " note(s)\n";
  return os.str();
}

std::string LintReport::to_json() const {
  std::ostringstream os;
  os << "{\"target\":" << obs::json_string(target_name)
     << ",\"counts\":{\"error\":" << errors() << ",\"warning\":" << warnings()
     << ",\"note\":" << notes() << "},\"findings\":[";
  bool first = true;
  for (const Diagnostic& d : diagnostics) {
    if (!first) os << ",";
    first = false;
    os << "{\"rule\":" << obs::json_string(d.rule_id)
       << ",\"severity\":" << obs::json_string(lint::to_string(d.severity))
       << ",\"node\":" << obs::json_string(d.node_name) << ",\"node_id\":"
       << (d.node == netlist::kNoNode ? -1 : static_cast<long long>(d.node))
       << ",\"line\":" << d.line
       << ",\"message\":" << obs::json_string(d.message)
       << ",\"fixit\":" << obs::json_string(d.fixit_hint) << "}";
  }
  os << "]}";
  return os.str();
}

LintError::LintError(LintReport report)
    : std::runtime_error("lint rejected '" + report.target_name + "': " +
                         std::to_string(report.errors()) +
                         " error(s)\n" + report.to_string()),
      report_(std::move(report)) {}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"comb-loop", Severity::kError,
       "combinational cycle with no flip-flop on the path"},
      {"undriven-fanin", Severity::kError,
       "gate pin, net or output port with no driver"},
      {"multi-driven", Severity::kError,
       "net driven by more than one source"},
      {"unknown-cell", Severity::kError,
       "instance of a cell the library does not define"},
      {"bad-pin", Severity::kError,
       "connection to a pin the cell does not have (or a missing output pin)"},
      {"duplicate-name", Severity::kError,
       "instance or port name used more than once"},
      {"dead-gate", Severity::kWarning,
       "gate with no fanout that drives no primary output"},
      {"dead-cone", Severity::kWarning,
       "logic cone unreachable from every primary output"},
      {"input-unreachable", Severity::kWarning,
       "gate not influenced by any primary input"},
      {"dff-self-loop", Severity::kWarning,
       "flip-flop whose D input is its own output"},
      {"const-fold", Severity::kNote,
       "gate or flop proved constant by the ternary constant lattice, or "
       "with constant fanins simplification would remove"},
      {"reset-cone", Severity::kNote,
       "flip-flop never influenced by any reset-like input"},
      {"graphir-consistency", Severity::kError,
       "graph IR disagrees with the netlist (nodes, edges, features, labels)"},
      {"split-leak", Severity::kError,
       "node present in both the train and validation partitions"},
      {"split-coverage", Severity::kWarning,
       "empty or out-of-range train/validation partition"},
      {"parse-error", Severity::kError,
       "the source file could not be parsed at all"},
  };
  return kCatalog;
}

void add_parse_issues(const std::vector<netlist::ParseIssue>& issues,
                      LintReport& report) {
  for (const netlist::ParseIssue& issue : issues) {
    Diagnostic d;
    d.rule_id = issue.rule;
    d.severity = Severity::kError;
    d.line = issue.line;
    d.message = issue.message;
    d.fixit_hint = "fix the source netlist";
    report.add(std::move(d));
  }
}

}  // namespace fcrit::lint
