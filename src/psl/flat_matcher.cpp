#include "psl/psl/flat_matcher.hpp"

#include <algorithm>

#include "psl/psl/detail/match_walk.hpp"
#include "psl/util/strings.hpp"

namespace psl {

FlatMatcher::FlatMatcher(const List& list) {
  for (const Rule& rule : list.rules()) {
    std::string key = util::join(rule.labels(), ".");
    Flags& f = rules_[std::move(key)];
    switch (rule.kind()) {
      case RuleKind::kNormal:
        f.normal = true;
        f.normal_section = rule.section();
        break;
      case RuleKind::kWildcard:
        f.wildcard = true;
        f.wildcard_section = rule.section();
        break;
      case RuleKind::kException:
        f.exception = true;
        f.exception_section = rule.section();
        break;
    }
  }
}

/// Shared-walk adapter over the rule-string hash map (see
/// psl/detail/match_walk.hpp). The cursor's position is the suffix string
/// probed so far; descend() extends it by one label and re-probes. A hash
/// probe cannot tell "no rule here" from "no rule anywhere deeper", so
/// descend() always keeps walking — same results as the trie matchers, just
/// more probes (this is the ablation baseline).
struct FlatMatcher::Cursor {
  const std::unordered_map<std::string, Flags>* rules;
  std::string suffix;
  const Flags* here = nullptr;  ///< rules entry for `suffix`, if any

  bool descend(std::string_view label, std::uint32_t) {
    if (suffix.empty()) {
      suffix.assign(label);
    } else {
      std::string extended(label);
      extended.push_back('.');
      extended += suffix;
      suffix = std::move(extended);
    }
    const auto it = rules->find(suffix);
    here = it == rules->end() ? nullptr : &it->second;
    return true;
  }
  bool has_wildcard() const noexcept { return here != nullptr && here->wildcard; }
  Section wildcard_section() const noexcept { return here->wildcard_section; }
  bool has_normal() const noexcept { return here != nullptr && here->normal; }
  Section normal_section() const noexcept { return here->normal_section; }
  bool has_exception() const noexcept { return here != nullptr && here->exception; }
  Section exception_section() const noexcept { return here->exception_section; }
};

MatchView FlatMatcher::match_view(std::string_view host) const {
  return detail::match_walk(Cursor{&rules_, {}, nullptr}, host);
}

}  // namespace psl
