#include "psl/web/cookie_jar.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace psl::web {

std::string_view to_string(SetCookieOutcome outcome) noexcept {
  switch (outcome) {
    case SetCookieOutcome::kStored: return "stored";
    case SetCookieOutcome::kRejectedSupercookie: return "rejected-supercookie";
    case SetCookieOutcome::kRejectedForeign: return "rejected-foreign";
    case SetCookieOutcome::kRejectedSecure: return "rejected-secure";
    case SetCookieOutcome::kRejectedParse: return "rejected-parse";
  }
  return "unknown";
}

void CookieJar::set_metrics(obs::MetricsRegistry* metrics) {
  if (!metrics) {
    outcome_counters_ = {};
    purged_counter_ = nullptr;
    return;
  }
  for (const auto outcome :
       {SetCookieOutcome::kStored, SetCookieOutcome::kRejectedSupercookie,
        SetCookieOutcome::kRejectedForeign, SetCookieOutcome::kRejectedSecure,
        SetCookieOutcome::kRejectedParse}) {
    outcome_counters_[static_cast<std::size_t>(outcome)] =
        &metrics->counter("cookie.set." + std::string(to_string(outcome)));
  }
  purged_counter_ = &metrics->counter("cookie.purged");
}

SetCookieOutcome CookieJar::set_from_header(const url::Url& origin,
                                            std::string_view set_cookie, std::int64_t now) {
  const auto count = [&](SetCookieOutcome outcome) {
    if (obs::Counter* c = outcome_counters_[static_cast<std::size_t>(outcome)]) c->add();
    return outcome;
  };
  auto parsed = parse_set_cookie(set_cookie);
  if (!parsed) return count(SetCookieOutcome::kRejectedParse);
  Cookie cookie = *std::move(parsed);
  if (cookie.max_age) {
    // RFC 6265: Max-Age <= 0 means "expire immediately" — used to delete.
    // Saturate instead of overflowing: Max-Age=INT64_MAX is "never expires",
    // not UB.
    const std::int64_t age = std::max<std::int64_t>(*cookie.max_age, 0);
    constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();
    cookie.expires_at = (now > 0 && age > kForever - now) ? kForever : now + age;
  }

  const std::string& host = origin.host().name();

  if (!cookie.host_only) {
    // RFC 6265 5.3 step 5 + the public-suffix carve-out: a Domain attribute
    // naming a public suffix is only allowed when it equals the request
    // host itself, and then the cookie becomes host-only.
    if (origin.host().is_ip()) {
      // IP hosts can never use Domain attributes.
      if (cookie.domain != host) return count(SetCookieOutcome::kRejectedForeign);
      cookie.host_only = true;
    } else if (list_->is_public_suffix(cookie.domain)) {
      if (cookie.domain == host) {
        cookie.host_only = true;
      } else {
        return count(SetCookieOutcome::kRejectedSupercookie);
      }
    } else if (!domain_match(host, cookie.domain)) {
      return count(SetCookieOutcome::kRejectedForeign);
    }
  }
  if (cookie.host_only) cookie.domain = host;

  if (cookie.secure && !origin.is_secure()) {
    return count(SetCookieOutcome::kRejectedSecure);
  }

  if (cookie.path == "/" ) {
    // An absent Path attribute takes the default path of the request URL.
    // parse_set_cookie leaves "/" for both "absent" and an explicit
    // Path=/ — identical behaviour either way.
    cookie.path = default_path(origin.path());
    if (cookie.path.empty()) cookie.path.push_back('/');
  }

  // Replace an existing cookie with the same (name, domain, path) identity.
  // RFC 6265 5.3 step 11 keys on exactly that triple — host_only is NOT
  // part of the identity, so a Domain= re-set of a host-only cookie (or
  // vice versa) replaces it rather than duplicating it.
  // An already-expired cookie (Max-Age <= 0) acts as a deletion.
  const auto same_identity = [&](const Cookie& c) {
    return c.name == cookie.name && c.domain == cookie.domain && c.path == cookie.path;
  };
  const auto it = std::find_if(cookies_.begin(), cookies_.end(), same_identity);
  if (cookie.expired(now)) {
    if (it != cookies_.end()) cookies_.erase(it);
    return count(SetCookieOutcome::kStored);
  }
  if (it != cookies_.end()) {
    *it = std::move(cookie);
  } else {
    cookies_.push_back(std::move(cookie));
  }
  return count(SetCookieOutcome::kStored);
}

std::vector<const Cookie*> CookieJar::cookies_for(const url::Url& target, bool http_api,
                                                  std::int64_t now) const {
  std::vector<const Cookie*> out;
  const std::string& host = target.host().name();
  for (const Cookie& c : cookies_) {
    if (c.expired(now)) continue;
    if (c.host_only) {
      if (host != c.domain) continue;
    } else if (!domain_match(host, c.domain)) {
      continue;
    }
    if (!path_match(target.path(), c.path)) continue;
    if (c.secure && !target.is_secure()) continue;
    if (c.http_only && !http_api) continue;
    out.push_back(&c);
  }
  return out;
}

std::size_t CookieJar::purge_expired(std::int64_t now) {
  const auto before = cookies_.size();
  std::erase_if(cookies_, [&](const Cookie& c) { return c.expired(now); });
  const std::size_t purged = before - cookies_.size();
  if (purged_counter_) purged_counter_->add(static_cast<std::int64_t>(purged));
  return purged;
}

}  // namespace psl::web
