#include "psl/url/url.hpp"

#include <algorithm>
#include <charconv>

#include "psl/util/strings.hpp"

namespace psl::url {

std::uint16_t default_port(std::string_view scheme) noexcept {
  if (scheme == "http" || scheme == "ws") return 80;
  if (scheme == "https" || scheme == "wss") return 443;
  if (scheme == "ftp") return 21;
  return 0;
}

namespace {

bool valid_scheme(std::string_view s) noexcept {
  if (s.empty()) return false;
  const char c0 = util::to_lower(s.front());
  if (c0 < 'a' || c0 > 'z') return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    const char l = util::to_lower(c);
    return (l >= 'a' && l <= 'z') || (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.';
  });
}

}  // namespace

util::Result<Url> Url::parse(std::string_view raw) {
  std::string_view s = util::trim(raw);

  // --- scheme ---
  const std::size_t scheme_end = s.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) {
    return util::make_error("url.no-scheme", "missing '<scheme>://'");
  }
  const std::string_view scheme_raw = s.substr(0, scheme_end);
  if (!valid_scheme(scheme_raw)) {
    return util::make_error("url.bad-scheme", "invalid scheme characters");
  }
  std::string scheme = util::to_lower(scheme_raw);
  s = s.substr(scheme_end + 3);

  // --- fragment / query / path (rightmost first so '#' wins over '?') ---
  std::string fragment, query, path;
  if (const std::size_t pos = s.find('#'); pos != std::string_view::npos) {
    fragment = std::string(s.substr(pos + 1));
    s = s.substr(0, pos);
  }
  if (const std::size_t pos = s.find('?'); pos != std::string_view::npos) {
    query = std::string(s.substr(pos + 1));
    s = s.substr(0, pos);
  }
  if (const std::size_t pos = s.find('/'); pos != std::string_view::npos) {
    path = std::string(s.substr(pos));
    s = s.substr(0, pos);
  } else {
    path = "/";
  }

  // --- userinfo ---
  std::string userinfo;
  if (const std::size_t pos = s.rfind('@'); pos != std::string_view::npos) {
    userinfo = std::string(s.substr(0, pos));
    s = s.substr(pos + 1);
  }

  if (s.empty()) {
    return util::make_error("url.no-host", "empty authority");
  }

  // --- host[:port]; bracketed IPv6 may itself contain colons ---
  std::string_view host_part = s;
  std::optional<std::uint16_t> port;
  std::size_t port_sep = std::string_view::npos;
  if (s.front() == '[') {
    const std::size_t close = s.find(']');
    if (close == std::string_view::npos) {
      return util::make_error("url.bad-brackets", "unterminated IPv6 literal");
    }
    if (close + 1 < s.size()) {
      if (s[close + 1] != ':') {
        return util::make_error("url.bad-authority", "junk after IPv6 literal");
      }
      port_sep = close + 1;
    }
  } else {
    port_sep = s.rfind(':');
  }

  if (port_sep != std::string_view::npos) {
    const std::string_view port_str = s.substr(port_sep + 1);
    host_part = s.substr(0, port_sep);
    if (port_str.empty()) {
      return util::make_error("url.empty-port", "':' with no port digits");
    }
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(port_str.data(), port_str.data() + port_str.size(), value);
    if (ec != std::errc{} || ptr != port_str.data() + port_str.size() || value > 65535) {
      return util::make_error("url.bad-port", "port is not an integer in [0, 65535]");
    }
    port = static_cast<std::uint16_t>(value);
  }

  auto host = Host::parse(host_part);
  if (!host) return host.error();

  return Url(std::move(scheme), std::move(userinfo), *std::move(host), port, std::move(path),
             std::move(query), std::move(fragment));
}

std::uint16_t Url::effective_port() const noexcept {
  return port_.value_or(default_port(scheme_));
}

namespace {

/// RFC 3986 section 5.2.4 dot-segment removal on an absolute path.
std::string remove_dot_segments(std::string_view path) {
  std::vector<std::string_view> out;
  for (std::string_view segment : util::split(path, '/')) {
    if (segment == ".") continue;
    if (segment == "..") {
      if (!out.empty()) out.pop_back();
      continue;
    }
    out.push_back(segment);
  }
  std::string result = util::join(out, "/");
  // A trailing "." or ".." still ends the path with a slash.
  if ((util::ends_with(path, "/.") || util::ends_with(path, "/..")) &&
      !util::ends_with(result, "/")) {
    result.push_back('/');
  }
  if (result.empty() || result.front() != '/') result.insert(result.begin(), '/');
  return result;
}

/// Directory part of a path ("/a/b/c" -> "/a/b/").
std::string_view path_directory(std::string_view path) {
  const std::size_t last_slash = path.rfind('/');
  return last_slash == std::string_view::npos ? "/" : path.substr(0, last_slash + 1);
}

}  // namespace

util::Result<Url> resolve(const Url& base, std::string_view reference) {
  reference = util::trim(reference);
  if (reference.empty()) return Url::parse(base.to_string());

  // Absolute reference: anything starting with a scheme (RFC 3986 — a
  // relative reference cannot contain ':' before its first '/').
  {
    std::size_t i = 0;
    const char c0 = reference[0];
    if ((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z')) {
      i = 1;
      while (i < reference.size()) {
        const char c = reference[i];
        const bool scheme_char = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                                 (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.';
        if (!scheme_char) break;
        ++i;
      }
      if (i < reference.size() && reference[i] == ':') {
        return Url::parse(reference);  // non-hierarchical schemes fail here
      }
    }
  }
  // Scheme-relative: "//host/path".
  if (util::starts_with(reference, "//")) {
    return Url::parse(base.scheme() + ":" + std::string(reference));
  }

  // Everything else reuses the base authority.
  std::string authority = base.host().kind() == HostKind::kIpv6
                              ? "[" + base.host().name() + "]"
                              : base.host().name();
  if (base.port() && *base.port() != default_port(base.scheme())) {
    authority += ':';
    authority += std::to_string(*base.port());
  }
  const std::string prefix = base.scheme() + "://" + authority;

  if (reference.front() == '#') {
    std::string target = base.path();
    if (!base.query().empty()) target += "?" + base.query();
    return Url::parse(prefix + target + std::string(reference));
  }
  if (reference.front() == '?') {
    return Url::parse(prefix + base.path() + std::string(reference));
  }
  if (reference.front() == '/') {
    return Url::parse(prefix + remove_dot_segments(reference));
  }
  // Relative path: merge with the base path's directory.
  const std::string merged = std::string(path_directory(base.path())) + std::string(reference);
  return Url::parse(prefix + remove_dot_segments(merged));
}

std::string Url::to_string() const {
  std::string out = scheme_ + "://";
  if (!userinfo_.empty()) {
    out += userinfo_;
    out.push_back('@');
  }
  if (host_.kind() == HostKind::kIpv6) {
    out.push_back('[');
    out += host_.name();
    out.push_back(']');
  } else {
    out += host_.name();
  }
  if (port_ && *port_ != default_port(scheme_)) {
    out.push_back(':');
    out += std::to_string(*port_);
  }
  out += path_;
  if (!query_.empty()) {
    out.push_back('?');
    out += query_;
  }
  if (!fragment_.empty()) {
    out.push_back('#');
    out += fragment_;
  }
  return out;
}

}  // namespace psl::url
