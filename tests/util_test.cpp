#include <gtest/gtest.h>

#include <map>

#include "util/bytes.hpp"
#include "util/hash.hpp"
#include "util/ip.hpp"
#include "util/log.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace dice::util {
namespace {

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = make_error("x.y", "boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "x.y");
  EXPECT_EQ(r.error().to_string(), "x.y: boom");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, StatusSuccessAndFailure) {
  Status ok = Status::success();
  EXPECT_TRUE(ok.ok());
  Status bad = make_error("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "nope");
}

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

TEST(BytesTest, WriteReadRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.str("hello");
  ByteReader r(w.span());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefU);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[1], 0x02);
}

TEST(BytesTest, ReaderTruncation) {
  const Bytes data{0x01};
  ByteReader r(data);
  EXPECT_FALSE(r.u16().ok());
  // Failed reads do not consume.
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_TRUE(r.u8().ok());
}

TEST(BytesTest, PlaceholderPatch) {
  ByteWriter w;
  const std::size_t at = w.placeholder(2);
  w.u8(0x77);
  w.patch_u16(at, 0xbeef);
  EXPECT_EQ(w.bytes()[0], 0xbe);
  EXPECT_EQ(w.bytes()[1], 0xef);
  EXPECT_EQ(w.bytes()[2], 0x77);
}

TEST(BytesTest, HexRoundTrip) {
  const Bytes data{0x00, 0xff, 0x1c, 0xa5};
  const std::string hex = to_hex(data);
  EXPECT_EQ(hex, "00ff1ca5");
  auto back = from_hex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(BytesTest, HexRejectsBadInput) {
  EXPECT_FALSE(from_hex("abc").ok());   // odd length
  EXPECT_FALSE(from_hex("zz").ok());    // bad digit
}

TEST(BytesTest, VarintRoundTrip) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  (1u << 14) - 1,
                                  1u << 14,
                                  0xdeadbeefULL,
                                  UINT32_MAX,
                                  (1ull << 35),
                                  UINT64_MAX};
  for (std::uint64_t v : values) {
    ByteWriter w;
    w.vu64(v);
    ByteReader r(w.span());
    EXPECT_EQ(r.vu64().value(), v) << v;
    EXPECT_TRUE(r.exhausted());
    if (v <= UINT32_MAX) {
      ByteWriter w32;
      w32.vu32(static_cast<std::uint32_t>(v));
      ByteReader r32(w32.span());
      EXPECT_EQ(r32.vu32().value(), static_cast<std::uint32_t>(v)) << v;
      EXPECT_TRUE(r32.exhausted());
    }
  }
}

TEST(BytesTest, VarintEncodedLengths) {
  const auto encoded_size = [](std::uint64_t v) {
    ByteWriter w;
    w.vu64(v);
    return w.size();
  };
  EXPECT_EQ(encoded_size(0), 1u);
  EXPECT_EQ(encoded_size(127), 1u);
  EXPECT_EQ(encoded_size(128), 2u);
  EXPECT_EQ(encoded_size((1u << 14) - 1), 2u);
  EXPECT_EQ(encoded_size(1u << 14), 3u);
  EXPECT_EQ(encoded_size(UINT32_MAX), 5u);
  EXPECT_EQ(encoded_size(UINT64_MAX), 10u);
}

TEST(BytesTest, ZigzagRoundTrip) {
  const std::int64_t values[] = {0, -1, 1, -2, 2, -64, 63, -65, 64,
                                 INT32_MIN, INT32_MAX, INT64_MIN, INT64_MAX};
  for (std::int64_t v : values) {
    ByteWriter w;
    w.vi64(v);
    ByteReader r(w.span());
    EXPECT_EQ(r.vi64().value(), v) << v;
    if (v >= INT32_MIN && v <= INT32_MAX) {
      ByteWriter w32;
      w32.vi32(static_cast<std::int32_t>(v));
      ByteReader r32(w32.span());
      EXPECT_EQ(r32.vi32().value(), static_cast<std::int32_t>(v)) << v;
    }
  }
  // Small magnitudes of either sign stay one byte on the wire.
  ByteWriter w;
  w.vi32(-1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(BytesTest, VarintTruncated) {
  // Every strict prefix of a multi-byte varint fails soft with
  // bytes.truncated and consumes nothing.
  ByteWriter w;
  w.vu64(UINT64_MAX);
  const Bytes full = std::move(w).take();
  for (std::size_t len = 0; len < full.size(); ++len) {
    const Bytes prefix(full.begin(), full.begin() + static_cast<long>(len));
    ByteReader r(prefix);
    auto v = r.vu64();
    ASSERT_FALSE(v.ok()) << len;
    EXPECT_EQ(v.error().code, "bytes.truncated");
    EXPECT_EQ(r.position(), 0u);
  }
}

TEST(BytesTest, VarintOverlongRejected) {
  // 11 continuation bytes: no terminator within the 10-byte u64 limit.
  const Bytes eleven(11, 0x80);
  ByteReader r(eleven);
  auto v = r.vu64();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, "bytes.varint.malformed");

  // 6-byte encoding overflows a u32 even if each byte is valid LEB128.
  const Bytes six{0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  ByteReader r32(six);
  EXPECT_EQ(r32.vu32().error().code, "bytes.varint.malformed");

  // Payload bits beyond the target width on the final byte are rejected:
  // 5th byte of a u32 varint may only carry 4 low bits.
  const Bytes wide{0xff, 0xff, 0xff, 0xff, 0x1f};
  ByteReader rw(wide);
  EXPECT_EQ(rw.vu32().error().code, "bytes.varint.malformed");
  // ...while 0x0f there still fits (UINT32_MAX).
  const Bytes max{0xff, 0xff, 0xff, 0xff, 0x0f};
  ByteReader rm(max);
  EXPECT_EQ(rm.vu32().value(), UINT32_MAX);
}

TEST(BytesTest, SkipBounds) {
  const Bytes data{1, 2, 3};
  ByteReader r(data);
  EXPECT_TRUE(r.skip(2).ok());
  EXPECT_FALSE(r.skip(2).ok());
  EXPECT_TRUE(r.skip(1).ok());
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringsTest, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, ParseU64) {
  EXPECT_EQ(parse_u64("0").value(), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616").ok());  // overflow
  EXPECT_FALSE(parse_u64("").ok());
  EXPECT_FALSE(parse_u64("12x").ok());
  EXPECT_FALSE(parse_u64("-1").ok());
}

TEST(StringsTest, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%s", std::string(300, 'a').c_str()).size(), 300u);
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(42);
  ZipfSampler zipf(100, 1.2);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[50]);
  EXPECT_GT(counts[0], 1000);  // rank 0 dominates
}

// ---------------------------------------------------------------------------
// Hash
// ---------------------------------------------------------------------------

TEST(HashTest, Fnv1aStable) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
}

TEST(HashTest, MixOrderSensitive) {
  const auto a = hash_mix(hash_mix(kFnvOffset, 1), 2);
  const auto b = hash_mix(hash_mix(kFnvOffset, 2), 1);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Ip
// ---------------------------------------------------------------------------

TEST(IpTest, ParseFormatAddress) {
  auto addr = IpAddress::parse("10.1.2.3");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value().to_string(), "10.1.2.3");
  EXPECT_EQ(addr.value().value(), 0x0a010203U);
}

TEST(IpTest, ParseRejectsBadAddress) {
  EXPECT_FALSE(IpAddress::parse("10.1.2").ok());
  EXPECT_FALSE(IpAddress::parse("10.1.2.256").ok());
  EXPECT_FALSE(IpAddress::parse("10.1.2.x").ok());
  EXPECT_FALSE(IpAddress::parse("").ok());
}

TEST(IpTest, PrefixMasksHostBits) {
  const IpPrefix p{IpAddress{10, 1, 2, 3}, 16};
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
  EXPECT_EQ(p.length(), 16);
}

TEST(IpTest, PrefixParse) {
  auto p = IpPrefix::parse("192.168.0.0/24");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().to_string(), "192.168.0.0/24");
  EXPECT_FALSE(IpPrefix::parse("192.168.0.0/33").ok());
  EXPECT_FALSE(IpPrefix::parse("192.168.0.0").ok());
}

TEST(IpTest, Containment) {
  const IpPrefix wide{IpAddress{10, 0, 0, 0}, 8};
  const IpPrefix narrow{IpAddress{10, 1, 0, 0}, 16};
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.contains(IpAddress{10, 200, 1, 1}));
  EXPECT_FALSE(wide.contains(IpAddress{11, 0, 0, 1}));
  const IpPrefix all{IpAddress{0}, 0};
  EXPECT_TRUE(all.contains(narrow));
}

TEST(IpTest, TrieInsertFindErase) {
  PrefixTrie<int> trie;
  const IpPrefix a{IpAddress{10, 0, 0, 0}, 8};
  const IpPrefix b{IpAddress{10, 1, 0, 0}, 16};
  EXPECT_TRUE(trie.insert(a, 1));
  EXPECT_TRUE(trie.insert(b, 2));
  EXPECT_FALSE(trie.insert(b, 3));  // overwrite
  EXPECT_EQ(trie.size(), 2u);
  ASSERT_NE(trie.find(b), nullptr);
  EXPECT_EQ(*trie.find(b), 3);
  EXPECT_EQ(trie.erase(b).value_or(-1), 3);
  EXPECT_EQ(trie.find(b), nullptr);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(IpTest, TrieLongestMatch) {
  PrefixTrie<int> trie;
  trie.insert(IpPrefix{IpAddress{10, 0, 0, 0}, 8}, 8);
  trie.insert(IpPrefix{IpAddress{10, 1, 0, 0}, 16}, 16);
  trie.insert(IpPrefix{IpAddress{10, 1, 2, 0}, 24}, 24);
  EXPECT_EQ(*trie.longest_match(IpAddress{10, 1, 2, 3}), 24);
  EXPECT_EQ(*trie.longest_match(IpAddress{10, 1, 9, 1}), 16);
  EXPECT_EQ(*trie.longest_match(IpAddress{10, 9, 9, 9}), 8);
  EXPECT_EQ(trie.longest_match(IpAddress{11, 0, 0, 1}), nullptr);
}

/// Property: trie longest-match agrees with a brute-force linear scan on
/// randomized prefix sets (the kind of invariant DESIGN.md calls for).
TEST(IpTest, TrieMatchesLinearScanProperty) {
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    PrefixTrie<std::size_t> trie;
    std::vector<IpPrefix> prefixes;
    for (int i = 0; i < 64; ++i) {
      const IpPrefix p{IpAddress{static_cast<std::uint32_t>(rng.next())},
                       static_cast<std::uint8_t>(rng.below(33))};
      if (trie.find(p) != nullptr) continue;  // duplicate after normalization
      ASSERT_TRUE(trie.insert(p, prefixes.size()));
      prefixes.push_back(p);
    }
    for (int probe = 0; probe < 200; ++probe) {
      const IpAddress addr{static_cast<std::uint32_t>(rng.next())};
      // Brute force: longest containing prefix.
      const IpPrefix* expect = nullptr;
      for (const IpPrefix& p : prefixes) {
        if (p.contains(addr) && (expect == nullptr || p.length() > expect->length())) {
          expect = &p;
        }
      }
      const std::size_t* got = trie.longest_match(addr);
      if (expect == nullptr) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(prefixes[*got], *expect);
      }
    }
  }
}

TEST(IpTest, TrieForEachVisitsAll) {
  PrefixTrie<int> trie;
  trie.insert(IpPrefix{IpAddress{10, 0, 0, 0}, 8}, 1);
  trie.insert(IpPrefix{IpAddress{192, 168, 0, 0}, 16}, 2);
  std::size_t visited = 0;
  trie.for_each([&](const IpPrefix& p, int v) {
    ++visited;
    EXPECT_TRUE((v == 1 && p.length() == 8) || (v == 2 && p.length() == 16));
  });
  EXPECT_EQ(visited, 2u);
}

// ---------------------------------------------------------------------------
// Log
// ---------------------------------------------------------------------------

TEST(LogTest, CaptureAndLevels) {
  LogCapture capture;
  Logger log("test");
  log.info() << "hello " << 42;
  EXPECT_TRUE(capture.contains("hello 42"));
  EXPECT_TRUE(capture.contains("INFO test"));
}

TEST(LogTest, LevelFilters) {
  LogCapture capture;
  Log::set_level(LogLevel::kError);
  Logger log("test");
  log.debug() << "invisible";
  log.error() << "visible";
  EXPECT_FALSE(capture.contains("invisible"));
  EXPECT_TRUE(capture.contains("visible"));
}

}  // namespace
}  // namespace dice::util
