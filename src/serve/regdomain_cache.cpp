#include "psl/serve/regdomain_cache.hpp"

#include <sys/random.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "psl/util/siphash.hpp"

namespace psl::serve {

namespace {

/// The process's secret hash key, drawn from the kernel on first use.
util::SipKey draw_key() noexcept {
  std::uint64_t words[2] = {0, 0};
  ssize_t got = -1;
  do {
    got = ::getrandom(words, sizeof words, 0);
  } while (got < 0 && errno == EINTR);
  if (got != static_cast<ssize_t>(sizeof words)) {
    // No getrandom (a pre-3.17 kernel): a clock- and pid-derived key still
    // differs between processes and is not known in advance.
    const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
    words[0] ^= static_cast<std::uint64_t>(now) * 0x9e3779b97f4a7c15ull;
    words[1] ^= static_cast<std::uint64_t>(::getpid()) * 0xc2b2ae3d27d4eb4full;
  }
  return util::SipKey{words[0], words[1]};
}

}  // namespace

RegDomainCache::Key RegDomainCache::key_of(std::string_view host) noexcept {
  static const util::SipKey key = draw_key();
  const std::uint64_t h = util::siphash13(key, host);
  const std::uint32_t len = host.size() < kUncachable ? static_cast<std::uint32_t>(host.size())
                                                      : kUncachable;
  // 0 marks an empty slot; remap the (astronomically unlikely) real 0.
  return Key{h == 0 ? 1 : h, len};
}

}  // namespace psl::serve
