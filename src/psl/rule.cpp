#include "psl/psl/rule.hpp"

#include "psl/idna/idna.hpp"
#include "psl/util/strings.hpp"

namespace psl {

util::Result<Rule> Rule::parse(std::string_view text, Section section) {
  std::string_view s = util::trim(text);
  if (s.empty()) {
    return util::make_error("rule.empty", "empty rule");
  }

  RuleKind kind = RuleKind::kNormal;
  if (s.front() == '!') {
    kind = RuleKind::kException;
    s.remove_prefix(1);
    if (s.empty()) {
      return util::make_error("rule.bare-bang", "'!' with no labels");
    }
  } else if (util::starts_with(s, "*.")) {
    kind = RuleKind::kWildcard;
    s.remove_prefix(2);
    if (s.empty()) {
      return util::make_error("rule.bare-star", "'*.' with no labels");
    }
  } else if (s == "*") {
    return util::make_error("rule.bare-star", "the implicit '*' rule cannot be listed");
  }

  // Exception rules must carve out of a wildcard, so they need >= 2 labels.
  std::vector<std::string> labels;
  for (std::string_view raw_label : util::split(s, '.')) {
    if (raw_label.empty()) {
      return util::make_error("rule.empty-label", "empty label in rule");
    }
    if (raw_label.find('*') != std::string_view::npos ||
        raw_label.find('!') != std::string_view::npos) {
      return util::make_error("rule.misplaced-marker",
                              "'*'/'!' only allowed as leading markers");
    }
    auto ascii = idna::label_to_ascii(raw_label);
    if (!ascii) return ascii.error();
    labels.push_back(*std::move(ascii));
  }

  if (kind == RuleKind::kException && labels.size() < 2) {
    return util::make_error("rule.short-exception",
                            "exception rules need at least two labels");
  }

  return Rule(kind, section, std::move(labels));
}

std::string Rule::to_string() const {
  std::string out;
  switch (kind_) {
    case RuleKind::kException: out.push_back('!'); break;
    case RuleKind::kWildcard: out.append("*."); break;
    case RuleKind::kNormal: break;
  }
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (i) out.push_back('.');
    out += labels_[i];
  }
  return out;
}

}  // namespace psl
