#include "psl/psl/match.hpp"

namespace psl {

std::string MatchView::prevailing_rule() const {
  if (!matched_explicit_rule) return {};
  std::string_view marker;
  switch (rule_kind) {
    case RuleKind::kException: marker = "!"; break;
    case RuleKind::kWildcard: marker = "*."; break;
    case RuleKind::kNormal: break;
  }
  std::string out;
  out.reserve(marker.size() + rule_span.size());
  out.append(marker).append(rule_span);
  return out;
}

Match MatchView::to_match() const {
  Match m;
  m.public_suffix = std::string(public_suffix);
  m.registrable_domain = std::string(registrable_domain);
  m.matched_explicit_rule = matched_explicit_rule;
  m.section = section;
  m.rule_labels = rule_labels;
  m.prevailing_rule = prevailing_rule();
  return m;
}

}  // namespace psl
