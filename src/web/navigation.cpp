#include "psl/web/navigation.hpp"

#include "psl/url/host.hpp"
#include "psl/util/strings.hpp"

namespace psl::web {

std::string StoragePartitioner::partition_key(std::string_view top_level_host) const {
  std::string_view host = top_level_host;
  if (!host.empty() && host.back() == '.') host.remove_suffix(1);
  if (url::looks_like_ip_literal(host)) return std::string(host);
  const auto rd = list_->registrable_domain(host);
  return rd ? *rd : std::string(host);
}

void StoragePartitioner::set_item(std::string_view top_level_host, std::string key,
                                  std::string value) {
  partitions_[partition_key(top_level_host)][std::move(key)] = std::move(value);
}

std::optional<std::string> StoragePartitioner::get_item(std::string_view top_level_host,
                                                        std::string_view key) const {
  const auto partition = partitions_.find(partition_key(top_level_host));
  if (partition == partitions_.end()) return std::nullopt;
  const auto item = partition->second.find(key);
  if (item == partition->second.end()) return std::nullopt;
  return item->second;
}

namespace {

std::string origin_of(const url::Url& u) {
  std::string out = u.scheme() + "://" + u.host().name();
  if (u.port() && *u.port() != url::default_port(u.scheme())) {
    out += ':';
    out += std::to_string(*u.port());
  }
  return out;
}

std::string full_url_without_fragment(const url::Url& u) {
  std::string out = origin_of(u) + u.path();
  if (!u.query().empty()) out += "?" + u.query();
  return out;
}

bool same_origin(const url::Url& a, const url::Url& b) {
  return a.scheme() == b.scheme() && a.host().name() == b.host().name() &&
         a.effective_port() == b.effective_port();
}

}  // namespace

std::string_view to_string(DocumentDomainOutcome outcome) noexcept {
  switch (outcome) {
    case DocumentDomainOutcome::kAllowed: return "allowed";
    case DocumentDomainOutcome::kRejectedNotSuffix: return "rejected-not-suffix";
    case DocumentDomainOutcome::kRejectedPublicSuffix: return "rejected-public-suffix";
    case DocumentDomainOutcome::kRejectedIp: return "rejected-ip";
  }
  return "unknown";
}

DocumentDomainOutcome check_document_domain(const List& list, std::string_view host,
                                            std::string_view requested) {
  if (!host.empty() && host.back() == '.') host.remove_suffix(1);
  if (!requested.empty() && requested.back() == '.') requested.remove_suffix(1);

  if (url::looks_like_ip_literal(host)) {
    return DocumentDomainOutcome::kRejectedIp;
  }
  if (!util::host_matches_domain(host, requested)) {
    return DocumentDomainOutcome::kRejectedNotSuffix;
  }
  // HTML spec: the new value must itself have a registrable domain (it may
  // BE the registrable domain, but never a public suffix).
  if (list.is_public_suffix(requested)) {
    return DocumentDomainOutcome::kRejectedPublicSuffix;
  }
  return DocumentDomainOutcome::kAllowed;
}

std::string referrer_for(const List& list, const url::Url& from, const url::Url& to,
                         ReferrerPolicy policy) {
  const bool downgrade = from.is_secure() && !to.is_secure();

  switch (policy) {
    case ReferrerPolicy::kNoReferrer:
      return {};

    case ReferrerPolicy::kSameOriginOnly:
      return same_origin(from, to) ? full_url_without_fragment(from) : std::string{};

    case ReferrerPolicy::kStrictOriginWhenCrossOrigin:
      if (downgrade) return {};
      if (same_origin(from, to)) return full_url_without_fragment(from);
      return origin_of(from);

    case ReferrerPolicy::kSameSiteFullUrl: {
      if (downgrade) return {};
      const bool cross_ip =
          from.host().is_ip() || to.host().is_ip()
              ? from.host().name() != to.host().name()
              : false;
      const bool same_site =
          !cross_ip && (from.host().is_ip()
                            ? from.host().name() == to.host().name()
                            : list.same_site(from.host().name(), to.host().name()));
      return same_site ? full_url_without_fragment(from) : origin_of(from);
    }
  }
  return {};
}

}  // namespace psl::web
