#pragma once

#include <cstdint>

namespace pb {
/// operator new calls so far in this process (all threads).
std::uint64_t allocation_count() noexcept;
}  // namespace pb
