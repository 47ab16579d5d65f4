// Fuzz harness for psl::store's reader, StoreView::open.
//
// Invariants:
//   - arbitrary bytes never crash open: every outcome is a valid StoreView
//     or a clean "store.*" Result error (no UB — the ASan/UBSan smoke job
//     runs this harness)
//   - a store open ACCEPTS is whole: every version materializes (delta
//     chains included), answers bounded crash-free lookups, and divergence
//     walks every version
//
// open reads a file (it maps it), so each candidate is written to a
// per-process temp file first. Two input modes keep coverage deep: raw
// bytes exercise the header gates, and mutations of a known-valid
// two-version store (the second version delta-encoded against the first)
// reach the table, segment and delta checks behind them.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz_common.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/store/store.hpp"
#include "psl/util/date.hpp"

namespace {

const std::string& valid_store() {
  static const std::string bytes = [] {
    psl::store::Builder builder;
    const char* lists[] = {"com\nuk\nco.uk\n*.ck\n!www.ck\ngithub.io\n",
                           "com\nuk\nco.uk\n*.ck\n!www.ck\ngithub.io\nmyshopify.com\n"};
    for (int year = 0; year < 2; ++year) {
      auto parsed = psl::List::parse(lists[year]);
      psl::snapshot::Metadata meta;
      meta.source_date = psl::util::Date::from_civil(2020 + year, 1, 1);
      meta.rule_count = parsed->rules().size();
      if (!builder.add(psl::CompiledMatcher(*parsed), meta).ok()) __builtin_trap();
    }
    auto serialized = builder.serialize();
    if (!serialized.ok()) __builtin_trap();
    return *std::move(serialized);
  }();
  return bytes;
}

const std::string& candidate_path() {
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fuzz_store_open." + std::to_string(::getpid()) + ".pstore"))
          .string();
  return path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  std::vector<std::uint8_t> blob;
  if (size >= 1 && (data[0] & 1) != 0) {
    // Raw mode: the input IS the store candidate.
    blob.assign(data + 1, data + size);
  } else {
    // Mutation mode: start from a valid store, apply (offset, xor) edits
    // and an optional truncation.
    const std::string& valid = valid_store();
    blob.assign(valid.begin(), valid.end());
    std::size_t i = 1;
    while (i + 3 <= size) {
      const std::size_t offset =
          ((static_cast<std::size_t>(data[i]) << 8) | data[i + 1]) % blob.size();
      blob[offset] ^= data[i + 2];
      i += 3;
    }
    if (i < size && (data[i] & 1) != 0) {
      blob.resize(blob.size() * data[i] / 255);
    }
  }

  const std::string& path = candidate_path();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out.good()) __builtin_trap();
  }

  auto view = psl::store::StoreView::open(path);
  if (!view.ok()) {
    // Rejections carry a stable "store." error code, never anything else.
    if (view.error().code.rfind("store.", 0) != 0) __builtin_trap();
  } else {
    for (std::size_t v = 0; v < (*view)->version_count(); ++v) {
      auto snapshot = (*view)->open_version(v);
      if (!snapshot.ok()) __builtin_trap();
      snapshot->matcher.match_view("a.b.co.uk");
      snapshot->matcher.match_view("x.t.ck");
      snapshot->matcher.match_view(std::string(300, '.'));
      snapshot->matcher.match_view("");
    }
    if (!(*view)->divergence("shop.myshopify.com").ok()) __builtin_trap();
  }
  std::remove(path.c_str());
  return 0;
}
