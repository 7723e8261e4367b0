#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bgp/checkpoint_codec.hpp"
#include "bgp/rib.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/rng.hpp"

namespace dice::bgp {
namespace {

using util::IpAddress;
using util::IpPrefix;

[[nodiscard]] Route make_route(std::uint8_t octet, std::uint32_t local_pref = 100) {
  Route r;
  r.prefix = IpPrefix{IpAddress{10, octet, 0, 0}, 16};
  r.attrs.origin = Origin::kIgp;
  r.attrs.as_path = AsPath{{65001, 65002}};
  r.attrs.next_hop = IpAddress{10, 0, 0, 2};
  r.attrs.local_pref = local_pref;
  r.source.peer_node = 1;
  r.source.peer_asn = 65001;
  r.source.peer_router_id = 11;
  r.source.peer_address = IpAddress{10, 0, 0, 2};
  return r;
}

TEST(RibTest, UpsertReportsChanges) {
  Rib rib;
  EXPECT_TRUE(rib.upsert(make_route(1)));          // insert
  EXPECT_FALSE(rib.upsert(make_route(1)));         // identical: no change
  EXPECT_TRUE(rib.upsert(make_route(1, 200)));     // modified: change
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_TRUE(rib.upsert(make_route(2)));
  EXPECT_EQ(rib.size(), 2u);
}

TEST(RibTest, EraseAndFind) {
  Rib rib;
  const Route r = make_route(1);
  rib.upsert(r);
  ASSERT_NE(rib.find(r.prefix), nullptr);
  EXPECT_EQ(*rib.find(r.prefix), r);
  EXPECT_TRUE(rib.erase(r.prefix));
  EXPECT_FALSE(rib.erase(r.prefix));
  EXPECT_EQ(rib.find(r.prefix), nullptr);
}

TEST(RibTest, ContentHashTracksContent) {
  Rib a;
  Rib b;
  a.upsert(make_route(1));
  b.upsert(make_route(1));
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.upsert(make_route(2));
  EXPECT_NE(a.content_hash(), b.content_hash());
  b.erase(make_route(2).prefix);
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

// A Rib as the v2 checkpoint stream carries it: attribute pool section, then
// the pool-indexed route list.
[[nodiscard]] util::Bytes encode_rib_v2(const Rib& rib) {
  ckpt::AttrPoolEncoder pool;
  util::ByteWriter routes;
  ckpt::write_rib_v2(routes, rib, pool);
  util::ByteWriter writer;
  pool.emit(writer);
  writer.raw(routes.span());
  return writer.bytes();
}

[[nodiscard]] util::Result<Rib> decode_rib_v2(const util::Bytes& bytes) {
  util::ByteReader reader(bytes);
  auto tag = reader.u8();
  if (!tag || tag.value() != static_cast<std::uint8_t>(ckpt::Tag::kAttrPool)) {
    return util::make_error("test.rib.pool_tag");
  }
  auto pool = ckpt::AttrPoolDecoder::parse(reader);
  if (!pool) return pool.error();
  return ckpt::read_rib_v2(reader, pool.value());
}

TEST(RibTest, CheckpointCodecRoundTrip) {
  Rib rib;
  for (std::uint8_t i = 1; i <= 20; ++i) rib.upsert(make_route(i, 50u + i));
  auto restored = decode_rib_v2(encode_rib_v2(rib));
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(restored.value().size(), 20u);
  EXPECT_EQ(restored.value().content_hash(), rib.content_hash());
  EXPECT_EQ(restored.value().table(), rib.table());
}

TEST(RibTest, CheckpointCodecRejectsTruncation) {
  Rib rib;
  rib.upsert(make_route(1));
  util::Bytes bytes = encode_rib_v2(rib);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(decode_rib_v2(bytes).ok());
}

// ---------------------------------------------------------------------------
// Copy-on-write: copies share one table until the first write detaches
// ---------------------------------------------------------------------------

[[nodiscard]] Rib make_rib(std::uint8_t routes) {
  Rib rib;
  for (std::uint8_t i = 1; i <= routes; ++i) rib.upsert(make_route(i));
  return rib;
}

[[nodiscard]] std::uint64_t detaches() {
  return obs::MetricsRegistry::global().counter(obs::names::kRibDetaches).value();
}

/// The counter only moves when telemetry is compiled in.
[[nodiscard]] constexpr std::uint64_t counted(std::uint64_t n) {
  return obs::kEnabled ? n : 0;
}

TEST(RibCopyOnWriteTest, DefaultRibReadsAsEmpty) {
  const Rib rib;
  EXPECT_TRUE(rib.empty());
  EXPECT_EQ(rib.size(), 0u);
  EXPECT_TRUE(rib.table().empty());
  EXPECT_EQ(rib.find(make_route(1).prefix), nullptr);
  EXPECT_EQ(rib.content_hash(), Rib{}.content_hash());
  Rib copy = rib;
  EXPECT_FALSE(copy.erase(make_route(1).prefix));
  EXPECT_TRUE(copy.empty());
}

TEST(RibCopyOnWriteTest, UpsertOnCopyLeavesSourceUnchanged) {
  const Rib source = make_rib(8);
  const Rib::Table before = source.table();
  const std::uint64_t detaches_before = detaches();

  Rib copy = source;
  EXPECT_TRUE(copy.upsert(make_route(3, 300)));  // replace
  EXPECT_TRUE(copy.upsert(make_route(42)));      // insert
  EXPECT_EQ(detaches() - detaches_before, counted(1));  // one copy, then in place
  EXPECT_NE(&copy.table(), &source.table());
  EXPECT_EQ(source.table(), before);
  EXPECT_EQ(copy.size(), 9u);
  EXPECT_EQ(copy.find(make_route(3).prefix)->attrs.local_pref, 300u);
}

TEST(RibCopyOnWriteTest, EraseOnCopyLeavesSourceUnchanged) {
  const Rib source = make_rib(8);
  const Rib::Table before = source.table();
  Rib copy = source;
  EXPECT_TRUE(copy.erase(make_route(5).prefix));
  EXPECT_EQ(source.table(), before);
  EXPECT_EQ(copy.size(), 7u);
  EXPECT_EQ(copy.find(make_route(5).prefix), nullptr);
}

TEST(RibCopyOnWriteTest, ClearOnCopyLeavesSourceUnchanged) {
  const Rib source = make_rib(8);
  const Rib::Table before = source.table();
  const std::uint64_t detaches_before = detaches();
  Rib copy = source;
  copy.clear();
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(source.table(), before);
  EXPECT_EQ(detaches(), detaches_before);  // clear drops the reference, copies nothing
}

TEST(RibCopyOnWriteTest, NoOpWritesDoNotDetach) {
  const Rib source = make_rib(8);
  const std::uint64_t detaches_before = detaches();
  Rib copy = source;
  EXPECT_FALSE(copy.erase(make_route(99).prefix));  // absent prefix
  EXPECT_FALSE(copy.upsert(make_route(2)));         // identical route
  EXPECT_EQ(&copy.table(), &source.table());        // still the one shared table
  EXPECT_EQ(detaches(), detaches_before);
}

TEST(RibCopyOnWriteTest, SoleOwnerWritesInPlace) {
  Rib rib = make_rib(4);
  const std::uint64_t detaches_before = detaches();
  {
    const Rib copy = rib;  // shared for this scope only
  }
  const Rib::Table* table = &rib.table();
  EXPECT_TRUE(rib.upsert(make_route(7)));
  EXPECT_TRUE(rib.erase(make_route(1).prefix));
  EXPECT_EQ(&rib.table(), table);
  EXPECT_EQ(detaches(), detaches_before);
}

TEST(RibCopyOnWriteTest, ConcurrentDetachFromOneConstSource) {
  // Two threads copy one immutable source (a decoded checkpoint's table)
  // and write their copies at the same time: each must detach, and the
  // source must read unchanged afterwards. Run under TSan in CI.
  const Rib source = make_rib(32);
  const Rib::Table before = source.table();
  constexpr int kThreads = 2;
  constexpr int kRounds = 200;
  std::vector<std::uint64_t> hashes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&source, &hashes, t] {
      for (int round = 0; round < kRounds; ++round) {
        Rib copy = source;
        copy.upsert(make_route(static_cast<std::uint8_t>(100 + t), 7));
        copy.erase(make_route(static_cast<std::uint8_t>(1 + t)).prefix);
        hashes[t] = copy.content_hash();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(source.table(), before);
  for (int t = 0; t < kThreads; ++t) {
    Rib expected = source;
    expected.upsert(make_route(static_cast<std::uint8_t>(100 + t), 7));
    expected.erase(make_route(static_cast<std::uint8_t>(1 + t)).prefix);
    EXPECT_EQ(hashes[t], expected.content_hash()) << "thread " << t;
  }
}

/// Property: attribute serialization round-trips over randomized attrs.
class AttrSerializeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttrSerializeProperty, RoundTrip) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    PathAttributes attrs;
    attrs.origin = static_cast<Origin>(rng.below(3));
    if (rng.chance(0.8)) {
      AsSegment seg;
      seg.type = rng.chance(0.8) ? AsSegmentType::kSequence : AsSegmentType::kSet;
      for (std::size_t i = 0; i < 1 + rng.below(4); ++i) {
        seg.asns.push_back(static_cast<Asn>(rng.below(70000)));  // 4-byte ok internally
      }
      attrs.as_path.segments().push_back(std::move(seg));
    }
    attrs.next_hop = IpAddress{static_cast<std::uint32_t>(rng.next())};
    if (rng.chance(0.5)) attrs.med = static_cast<std::uint32_t>(rng.next());
    if (rng.chance(0.5)) attrs.local_pref = static_cast<std::uint32_t>(rng.next());
    attrs.atomic_aggregate = rng.chance(0.2);
    if (rng.chance(0.3)) {
      attrs.aggregator =
          Aggregator{static_cast<Asn>(rng.below(65536)),
                     IpAddress{static_cast<std::uint32_t>(rng.next())}};
    }
    for (std::size_t i = rng.below(4); i > 0; --i) {
      attrs.add_community(static_cast<Community>(rng.next()));
    }
    if (rng.chance(0.3)) {
      UnknownAttr ua;
      ua.flags = 0xc0;
      ua.type = static_cast<std::uint8_t>(128 + rng.below(100));
      for (std::size_t i = rng.below(8); i > 0; --i) ua.value.push_back(rng.byte());
      attrs.unknown.push_back(std::move(ua));
    }

    util::ByteWriter writer;
    ckpt::write_attrs_v2(writer, attrs);
    util::ByteReader reader(writer.bytes());
    auto restored = ckpt::read_attrs_v2(reader);
    ASSERT_TRUE(restored.ok()) << restored.error().to_string();
    EXPECT_EQ(restored.value(), attrs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttrSerializeProperty, ::testing::Values(3, 6, 9));

TEST(AttrTest, CommunitySetSemantics) {
  PathAttributes attrs;
  attrs.add_community(5);
  attrs.add_community(1);
  attrs.add_community(5);  // duplicate ignored
  attrs.add_community(3);
  EXPECT_EQ(attrs.communities, (std::vector<Community>{1, 3, 5}));  // sorted
  EXPECT_TRUE(attrs.has_community(3));
  attrs.remove_community(3);
  EXPECT_FALSE(attrs.has_community(3));
  attrs.remove_community(99);  // absent: no-op
  EXPECT_EQ(attrs.communities.size(), 2u);
}

TEST(AttrTest, EffectiveDefaults) {
  PathAttributes attrs;
  EXPECT_EQ(attrs.effective_local_pref(), PathAttributes::kDefaultLocalPref);
  EXPECT_EQ(attrs.effective_med(), 0u);
  attrs.local_pref = 7;
  attrs.med = 9;
  EXPECT_EQ(attrs.effective_local_pref(), 7u);
  EXPECT_EQ(attrs.effective_med(), 9u);
}

TEST(RouteTest, ToStringMentionsKeyFields) {
  const Route r = make_route(1);
  const std::string text = r.to_string();
  EXPECT_NE(text.find("10.1.0.0/16"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.2"), std::string::npos);
  EXPECT_NE(text.find("65001"), std::string::npos);
}

}  // namespace
}  // namespace dice::bgp
