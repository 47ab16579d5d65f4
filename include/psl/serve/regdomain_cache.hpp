// Fixed-size registrable-domain boundary cache (one per Engine worker, plus
// the inline one).
//
// The serving workload is heavily Zipf-skewed — the paper's 498M-request
// HTTP Archive corpus concentrates most lookups on a small set of hot
// hostnames — so memoizing the registrable-domain *boundary* per hostname
// lets cache hits skip the trie walk entirely. The cache is deliberately
// minimal:
//
//   * Open addressing with robin-hood displacement over a power-of-two slot
//     array. Inserts steal slots from entries closer to their home bucket;
//     probe sequences are short and bounded (kMaxProbe), so a lookup touches
//     at most a couple of cache lines. An entry displaced past the probe
//     bound is dropped — that's the eviction policy, and under skew it
//     naturally sheds cold tails while hot heads stay near their home slots.
//   * The value is 4 bytes: the length of the registrable-domain SUFFIX of
//     the dot-stripped hostname (the registrable domain is always a suffix,
//     so a length fully describes the boundary), or kNoDomain when the host
//     has none. The caller re-attaches the boundary to whatever buffer its
//     current query string lives in — nothing in the cache points at freed
//     memory, ever.
//   * Keys are a 64-bit keyed hash of the dot-stripped hostname plus its
//     length; full hostnames are NOT stored. The hash is SipHash-1-3 under a
//     128-bit key drawn from the kernel once per process, so nobody outside
//     the process can evaluate it, and hence nobody can craft two hosts that
//     collide (an unkeyed hash would let an attacker make two tenants
//     same-site for every client). A hit also requires equal lengths, so an
//     entry can only ever answer for a host of its own length: the cached
//     boundary always fits the query. Two distinct hot hostnames of one
//     length colliding by chance is a ~n²/2⁶⁵ event (≈ 10⁻¹² at a million
//     distinct hosts), accepted by design.
//   * No synchronization. Each cache instance has exactly one user thread
//     (an Engine worker, or the thread that calls Engine::run_inline); the
//     caches live in the immutable State, indexed by slot, so every
//     instance is strictly single-writer single-reader from the same
//     thread. Hot-swap invalidation is structural: a new State carries new,
//     cold caches, and old readers drain on the old ones.
//   * An unused cache costs no resident memory. The slot array is a private
//     anonymous mapping that nothing writes at construction, so its pages
//     are the kernel's zero page until the first insert lands on them. A
//     State carries one cache per worker plus the inline one, and a cache
//     that never serves a query (psld's workers, now that match and
//     same_site run inline) is never faulted in.
//
// slots == 0 constructs a disabled cache (lookup always misses, insert is a
// no-op) — the engine's "uncached" mode for benchmarks.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <string_view>
#include <utility>

namespace psl::serve {

class RegDomainCache {
 public:
  /// Value meaning "this host has no registrable domain" (it is itself a
  /// public suffix, or is degenerate). Distinct from a lookup miss.
  static constexpr std::uint32_t kNoDomain = 0xFFFFFFFFu;

  /// Probe-length bound: an insert never displaces an entry this far from
  /// its home slot; it drops it instead (one eviction).
  static constexpr std::size_t kMaxProbe = 16;

  explicit RegDomainCache(std::size_t slots) {
    if (slots == 0) return;  // disabled
    std::size_t cap = 64;
    while (cap < slots) cap <<= 1;
    // Zero-filled on demand, page by page: an empty slot is all zero bytes.
    void* mem = ::mmap(nullptr, cap * sizeof(Slot), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc();
    slots_ = static_cast<Slot*>(mem);
    capacity_ = cap;
    mask_ = cap - 1;
  }
  ~RegDomainCache() {
    if (slots_) ::munmap(slots_, capacity_ * sizeof(Slot));
  }
  RegDomainCache(RegDomainCache&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        mask_(std::exchange(other.mask_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  RegDomainCache(const RegDomainCache&) = delete;
  RegDomainCache& operator=(const RegDomainCache&) = delete;

  /// A host's cache key. `hash` is never 0 (0 marks an empty slot).
  struct Key {
    std::uint64_t hash = 0;
    std::uint32_t len = 0;  ///< host length; kUncachable for hosts of 4 GiB or more
  };
  static constexpr std::uint32_t kUncachable = std::numeric_limits<std::uint32_t>::max();

  /// Keyed SipHash-1-3 of the (already dot-stripped) hostname bytes, under
  /// this process's secret key, plus the host's length.
  static Key key_of(std::string_view host) noexcept;

  /// True on hit; `rd_len` receives the cached boundary (or kNoDomain).
  bool lookup(Key key, std::uint32_t& rd_len) const noexcept {
    if (!slots_ || key.len == kUncachable) return false;
    std::size_t idx = key.hash & mask_;
    for (std::size_t dist = 0; dist < kMaxProbe; ++dist) {
      const Slot& s = slots_[idx];
      if (s.hash == key.hash && s.host_len == key.len) {
        rd_len = s.rd_len;
        return true;
      }
      // Robin-hood invariant: entries are ordered by probe distance, so once
      // we pass a slot poorer than us (or an empty one) the key is absent.
      if (s.hash == 0 || probe_distance(s.hash, idx) < dist) return false;
      idx = (idx + 1) & mask_;
    }
    return false;
  }

  /// Insert (or overwrite) the boundary for `key`. Returns true when a
  /// resident entry was dropped to make room (probe bound exceeded).
  bool insert(Key key, std::uint32_t rd_len) noexcept {
    if (!slots_ || key.len == kUncachable) return false;
    Slot incoming{key.hash, rd_len, key.len};
    std::size_t idx = incoming.hash & mask_;
    std::size_t dist = 0;
    for (;;) {
      Slot& s = slots_[idx];
      if (s.hash == 0) {
        s = incoming;
        ++size_;
        return false;
      }
      if (s.hash == incoming.hash && s.host_len == incoming.host_len) {
        s.rd_len = incoming.rd_len;
        return false;
      }
      // Robin hood: the slot's resident keeps it only while it is at least
      // as far from home as the incoming entry.
      const std::size_t resident = probe_distance(s.hash, idx);
      if (resident < dist) {
        std::swap(s, incoming);
        dist = resident;
      }
      if (++dist >= kMaxProbe) return true;  // drop `incoming` (eviction)
      idx = (idx + 1) & mask_;
    }
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return size_; }
  bool enabled() const noexcept { return slots_ != nullptr; }

 private:
  struct Slot {
    std::uint64_t hash = 0;  ///< 0 = empty (key_of never returns 0)
    std::uint32_t rd_len = 0;
    std::uint32_t host_len = 0;  ///< a hit needs the query's length too
  };
  static_assert(sizeof(Slot) == 16, "the length rides in what was padding");

  std::size_t probe_distance(std::uint64_t hash, std::size_t idx) const noexcept {
    return (idx - (hash & mask_)) & mask_;
  }

  Slot* slots_ = nullptr;  ///< capacity_ slots, anonymous mapping (null = disabled)
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace psl::serve
