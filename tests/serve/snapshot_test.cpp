// psl::snapshot — serialization round-trips, loader validation, and the
// hostile-bytes contract (corrupt/truncated input must yield Result errors,
// never UB; see also tests/fuzz/fuzz_load_snapshot.cpp).
#include "psl/serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "psl/archive/corpus.hpp"
#include "psl/history/timeline.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"

namespace psl {
namespace {

List small_list() {
  auto parsed = List::parse(R"(// ===BEGIN ICANN DOMAINS===
com
uk
co.uk
*.ck
!www.ck
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
// ===END PRIVATE DOMAINS===
)");
  EXPECT_TRUE(parsed.ok());
  return *std::move(parsed);
}

snapshot::Metadata meta_for(const List& list) {
  snapshot::Metadata meta;
  meta.source_date = util::Date::from_civil(2022, 12, 8);
  meta.rule_count = list.rules().size();
  return meta;
}

/// load_copy over a string's bytes.
util::Result<snapshot::Snapshot> load_bytes(std::string_view bytes) {
  return snapshot::load_copy({reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

/// The loaded matcher must answer bit-identically to the fresh compile.
void expect_identical_answers(const CompiledMatcher& fresh, const CompiledMatcher& loaded,
                              const std::string& host) {
  const MatchView a = fresh.match_view(host);
  const MatchView b = loaded.match_view(host);
  ASSERT_EQ(a.public_suffix, b.public_suffix) << host;
  ASSERT_EQ(a.registrable_domain, b.registrable_domain) << host;
  ASSERT_EQ(a.matched_explicit_rule, b.matched_explicit_rule) << host;
  ASSERT_EQ(a.section, b.section) << host;
  ASSERT_EQ(a.rule_labels, b.rule_labels) << host;
  ASSERT_EQ(a.prevailing_rule(), b.prevailing_rule()) << host;
}

TEST(ServeSnapshotTest, HeaderLayout) {
  const List list = small_list();
  const CompiledMatcher matcher(list);
  const std::string bytes = snapshot::serialize(matcher, meta_for(list));

  ASSERT_GE(bytes.size(), snapshot::kHeaderBytes);
  EXPECT_EQ(std::string_view(bytes).substr(0, 8), "PSLSNAP1");
  // format version 1, header size 96, little-endian.
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 1);
  EXPECT_EQ(static_cast<unsigned char>(bytes[12]), 96);
}

TEST(ServeSnapshotTest, SerializationIsDeterministic) {
  const List list = small_list();
  const CompiledMatcher matcher(list);
  const CompiledMatcher again(list);
  const auto meta = meta_for(list);
  EXPECT_EQ(snapshot::serialize(matcher, meta), snapshot::serialize(again, meta));
  // A copied matcher serializes identically too (copy re-points the spans).
  const CompiledMatcher copy(matcher);
  EXPECT_EQ(snapshot::serialize(matcher, meta), snapshot::serialize(copy, meta));
}

TEST(ServeSnapshotTest, RoundTripThroughAllLoaders) {
  const List list = small_list();
  const CompiledMatcher fresh(list);
  const auto meta = meta_for(list);
  const std::string bytes = snapshot::serialize(fresh, meta);

  const std::vector<std::string> hosts = {"a.b.com",   "co.uk",     "x.co.uk", "deep.x.co.uk",
                                          "t.ck",      "a.t.ck",    "www.ck",  "alice.github.io",
                                          "unknown.zz", "", ".", "com."};

  // Owning copy load, from a source with no alignment (load_copy demands none).
  const std::string shifted = "x" + bytes;
  auto copied = load_bytes(std::string_view(shifted).substr(1));
  ASSERT_TRUE(copied.ok()) << copied.error().message;
  EXPECT_EQ(copied->meta.source_date, meta.source_date);
  EXPECT_EQ(copied->meta.rule_count, meta.rule_count);
  for (const auto& h : hosts) expect_identical_answers(fresh, copied->matcher, h);

  // File round-trip.
  const std::string path = testing::TempDir() + "/psl_snapshot_test.psnap";
  auto written = snapshot::write_file(path, fresh, meta);
  ASSERT_TRUE(written.ok()) << written.error().message;
  EXPECT_EQ(*written, bytes.size());
  auto from_file = snapshot::load_file(path);
  ASSERT_TRUE(from_file.ok()) << from_file.error().message;
  EXPECT_EQ(from_file->meta.rule_count, meta.rule_count);
  for (const auto& h : hosts) expect_identical_answers(fresh, from_file->matcher, h);
  std::remove(path.c_str());

  // The loaded arena re-serializes to the exact same bytes.
  EXPECT_EQ(snapshot::serialize(copied->matcher, copied->meta), bytes);
}

TEST(ServeSnapshotTest, MatcherCopySemanticsAfterLoad) {
  const List list = small_list();
  const CompiledMatcher fresh(list);
  const std::string bytes = snapshot::serialize(fresh, meta_for(list));

  auto loaded = snapshot::load_copy(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  ASSERT_TRUE(loaded.ok());

  // Copies and moves of a snapshot-backed matcher share the retained buffer.
  const CompiledMatcher copy(loaded->matcher);
  const CompiledMatcher moved(std::move(loaded->matcher));
  expect_identical_answers(fresh, copy, "a.b.co.uk");
  expect_identical_answers(fresh, moved, "a.b.co.uk");
}

TEST(ServeSnapshotTest, RoundTripPropertyOverGeneratedCorpus) {
  // Property test at scale: a full synthetic-history list, the generated
  // corpus's unique hosts, plus random hosts — the loaded-from-bytes matcher
  // must be indistinguishable from the fresh compile on every input.
  const auto history = history::generate_history(history::TimelineSpec{});
  const List list = history.snapshot(history.version_count() - 1);
  const CompiledMatcher fresh(list);

  snapshot::Metadata meta;
  meta.source_date = history.version_date(history.version_count() - 1);
  meta.rule_count = list.rules().size();
  const std::string bytes = snapshot::serialize(fresh, meta);
  auto loaded = snapshot::load_copy(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->meta.source_date, meta.source_date);

  const auto corpus = archive::generate_corpus(archive::CorpusSpec::tiny(), history);
  for (const std::string& host : corpus.hostnames()) {
    expect_identical_answers(fresh, loaded->matcher, host);
  }

  util::Rng rng(0xD15C);
  util::NameGen names{rng.fork(7)};
  for (int i = 0; i < 2000; ++i) {
    std::string host;
    const std::size_t labels = 1 + rng.below(4);
    for (std::size_t l = 0; l < labels; ++l) {
      if (!host.empty()) host.push_back('.');
      host += names.fresh(1);
    }
    if (rng.chance(0.05)) host.push_back('.');
    expect_identical_answers(fresh, loaded->matcher, host);
  }
}

TEST(ServeSnapshotTest, RejectsTruncationAtEveryLength) {
  const List list = small_list();
  const CompiledMatcher matcher(list);
  const std::string bytes = snapshot::serialize(matcher, meta_for(list));

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto result = load_bytes(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(result.ok()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(ServeSnapshotTest, RejectsEverySingleByteFlip) {
  // The format is canonical: every byte is either validated structure,
  // checksummed payload, or zero padding, so ANY single-bit corruption must
  // be rejected.
  const List list = small_list();
  const CompiledMatcher matcher(list);
  const std::string bytes = snapshot::serialize(matcher, meta_for(list));

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x41);
    auto result = load_bytes(mutated);
    ASSERT_FALSE(result.ok()) << "accepted a flip at byte " << i;
  }
}

TEST(ServeSnapshotTest, ErrorCodesAreSpecific) {
  const List list = small_list();
  const CompiledMatcher matcher(list);
  const auto meta = meta_for(list);
  const std::string bytes = snapshot::serialize(matcher, meta);

  auto load_mutated = [&](std::size_t offset, char value) {
    std::string mutated = bytes;
    mutated[offset] = value;
    return load_bytes(mutated);
  };

  EXPECT_EQ(load_mutated(0, 'X').error().code, "snapshot.bad-magic");
  EXPECT_EQ(load_mutated(8, 9).error().code, "snapshot.bad-version");
  EXPECT_EQ(load_mutated(12, 95).error().code, "snapshot.bad-header");

  // Zeroing the node count trips the count gate.
  {
    std::string mutated = bytes;
    for (int i = 0; i < 8; ++i) mutated[16 + i] = 0;
    EXPECT_EQ(load_bytes(mutated).error().code, "snapshot.bad-counts");
  }

  // Trailing garbage is a size mismatch.
  EXPECT_EQ(load_bytes(bytes + std::string(8, 'Z')).error().code, "snapshot.size-mismatch");

  EXPECT_EQ(snapshot::load_file("/nonexistent/psl.psnap").error().code, "snapshot.io");
}

// Hook for LoadFileRejectsConcurrentGrowth: a "concurrent writer" that
// appends one byte between load_file's size probe and its read.
void append_one_byte(const char* path) {
  std::FILE* f = std::fopen(path, "ab");
  ASSERT_NE(f, nullptr);
  std::fputc('Z', f);
  std::fclose(f);
}

TEST(ServeSnapshotTest, WriteFileFsyncFailureKeepsOldFileAndUnlinksTmp) {
  const List list = small_list();
  const CompiledMatcher matcher(list);
  const auto meta = meta_for(list);
  const std::string path = testing::TempDir() + "fsync_fail.psnap";
  const std::string tmp = path + ".tmp";

  // Seed a good published file.
  ASSERT_TRUE(snapshot::write_file(path, matcher, meta).ok());

  // The data fsync fails before rename: the publish must report snapshot.io,
  // the previous file must be untouched, and the tmp sibling unlinked —
  // fsync errors are data loss if swallowed (the old code never fsynced).
  snapshot::test_fail_next_fsyncs(1);
  auto failed = snapshot::write_file(path, matcher, meta);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, "snapshot.io");
  EXPECT_NE(failed.error().message.find("fsync"), std::string::npos)
      << failed.error().message;
  EXPECT_NE(::access(path.c_str(), F_OK), -1);
  EXPECT_EQ(::access(tmp.c_str(), F_OK), -1);
  auto survived = snapshot::load_file(path);
  ASSERT_TRUE(survived.ok()) << survived.error().message;
  EXPECT_EQ(survived->matcher.match_view("a.co.uk").registrable_domain, "a.co.uk");

  // With the countdown exhausted the same publish succeeds.
  auto retried = snapshot::write_file(path, matcher, meta);
  EXPECT_TRUE(retried.ok()) << (retried.ok() ? "" : retried.error().message);
  EXPECT_EQ(::access(tmp.c_str(), F_OK), -1);
}

TEST(ServeSnapshotTest, LoadFileRejectsConcurrentGrowth) {
  const List list = small_list();
  const CompiledMatcher matcher(list);
  const std::string path = testing::TempDir() + "grown.psnap";
  ASSERT_TRUE(snapshot::write_file(path, matcher, meta_for(list)).ok());

  // A file that GROWS between the size probe and the read used to pass
  // validation silently on the stale prefix; it must be rejected now.
  snapshot::test_set_load_file_hook(&append_one_byte);
  auto raced = snapshot::load_file(path);
  snapshot::test_set_load_file_hook(nullptr);
  ASSERT_FALSE(raced.ok());
  EXPECT_EQ(raced.error().code, "snapshot.io");
  EXPECT_NE(raced.error().message.find("size changed"), std::string::npos)
      << raced.error().message;

  // The grown file straightforwardly read end-to-end is a layout mismatch,
  // not an I/O race — and re-publishing fixes it.
  EXPECT_EQ(snapshot::load_file(path).error().code, "snapshot.size-mismatch");
  ASSERT_TRUE(snapshot::write_file(path, matcher, meta_for(list)).ok());
  EXPECT_TRUE(snapshot::load_file(path).ok());
}

TEST(ServeSnapshotTest, EmptyListRoundTrips) {
  const List list = List::from_rules({});
  const CompiledMatcher fresh(list);
  snapshot::Metadata meta;
  const std::string bytes = snapshot::serialize(fresh, meta);
  auto loaded = snapshot::load_copy(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  // Only the implicit "*" rule applies.
  EXPECT_EQ(loaded->matcher.match_view("a.b.example").public_suffix, "example");
}

}  // namespace
}  // namespace psl
