// svc::ArtifactStore: the warm-start store's wire format. Roundtrip and
// canonicalization receipts, then the robustness contract the resident
// daemon stakes its uptime on — EVERY truncated prefix and EVERY
// single-byte corruption of a valid store decodes to a typed error (the
// checksum is verified before any payload parsing), never a crash, never a
// partial result.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "body_mutants.hpp"
#include "svc/artifact_store.hpp"
#include "util/envelope.hpp"
#include "util/hash.hpp"

namespace dice::svc {
namespace {

[[nodiscard]] snapshot::Snapshot make_snapshot(std::uint64_t id) {
  snapshot::Snapshot snap;
  snap.id = id;
  snap.baseline_id = 0;
  snap.taken_at = 12'345 + id;
  for (sim::NodeId node = 0; node < 3; ++node) {
    snapshot::Checkpoint checkpoint;
    checkpoint.node = node;
    // First byte deliberately != the delta sentinel (0x03).
    checkpoint.state = {0x01, static_cast<std::uint8_t>(0x10 + node), 0x7f,
                        static_cast<std::uint8_t>(id & 0xff)};
    checkpoint.hash = 0x1000 + node + id;
    snap.nodes.emplace(node, std::move(checkpoint));
  }
  snap.channels.emplace(snapshot::ChannelKey{0, 1},
                        std::vector<util::Bytes>{{0xaa, 0xbb}, {0xcc}});
  return snap;
}

[[nodiscard]] LiveStateArtifact make_artifact(const std::string& scenario,
                                              std::uint64_t seed) {
  LiveStateArtifact artifact;
  artifact.key = WarmKey{scenario, "", seed, 300'000, 40};
  artifact.resume_at = 98'765;
  artifact.bootstrap_executed = 4'242;
  artifact.quiesced = true;
  artifact.oscillation_exit = false;
  artifact.snap = make_snapshot(seed);
  artifact.cut_hash = artifact.snap.cut_hash();
  return artifact;
}

[[nodiscard]] StoreContents make_contents() {
  StoreContents contents;
  contents.live_states.push_back(make_artifact("ring6", 2));
  contents.live_states.push_back(make_artifact("internet9", 1));
  contents.unsat_keys = {7, 3, 3, 11};  // unsorted + dup: encode canonicalizes
  return contents;
}

TEST(ArtifactStoreTest, RoundtripPreservesEverything) {
  const StoreContents contents = make_contents();
  auto encoded = ArtifactStore::encode(contents);
  ASSERT_TRUE(encoded.ok());
  auto decoded = ArtifactStore::decode(encoded.value());
  ASSERT_TRUE(decoded.ok());

  const StoreContents& back = decoded.value();
  ASSERT_EQ(back.live_states.size(), 2u);
  // Canonical order: sorted by key, so "internet9" first.
  EXPECT_EQ(back.live_states[0].key.scenario, "internet9");
  EXPECT_EQ(back.live_states[1].key.scenario, "ring6");
  const LiveStateArtifact& artifact = back.live_states[0];
  EXPECT_EQ(artifact.key.seed, 1u);
  EXPECT_EQ(artifact.key.bootstrap_events, 300'000u);
  EXPECT_EQ(artifact.key.flip_exit, 40u);
  EXPECT_EQ(artifact.resume_at, 98'765u);
  EXPECT_EQ(artifact.bootstrap_executed, 4'242u);
  EXPECT_TRUE(artifact.quiesced);
  EXPECT_FALSE(artifact.oscillation_exit);
  EXPECT_EQ(artifact.snap.nodes.size(), 3u);
  EXPECT_EQ(artifact.snap.channels.size(), 1u);
  EXPECT_EQ(artifact.snap.cut_hash(), artifact.cut_hash);
  EXPECT_EQ(back.unsat_keys, (std::vector<std::uint64_t>{3, 7, 11}));
}

// Byte pin: FNV-1a over the encoded fixture store. Any change to the
// artifact's field order or primitives moves it.
TEST(ArtifactStoreTest, EncodedBytesArePinned) {
  auto encoded = ArtifactStore::encode(make_contents());
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(util::fnv1a(encoded.value()), 0xeb21e4df9fc6234bull);
  static_assert(ArtifactStore::kVersion == 1);
}

TEST(ArtifactStoreTest, EqualContentsEncodeToEqualBytes) {
  StoreContents a = make_contents();
  StoreContents b;  // same contents, different in-memory order
  b.live_states.push_back(make_artifact("internet9", 1));
  b.live_states.push_back(make_artifact("ring6", 2));
  b.unsat_keys = {11, 7, 3};
  auto ea = ArtifactStore::encode(a);
  auto eb = ArtifactStore::encode(b);
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  EXPECT_EQ(ea.value(), eb.value());
}

TEST(ArtifactStoreTest, RefusesDeltaSnapshots) {
  StoreContents contents = make_contents();
  contents.live_states[0].snap.baseline_id = 99;
  auto encoded = ArtifactStore::encode(contents);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.error().code, "svc.store.delta_snapshot");

  StoreContents enveloped = make_contents();
  enveloped.live_states[0].snap.nodes.at(0).state.front() =
      snapshot::kCheckpointSameAsBaseline;
  auto encoded2 = ArtifactStore::encode(enveloped);
  ASSERT_FALSE(encoded2.ok());
  EXPECT_EQ(encoded2.error().code, "svc.store.delta_snapshot");
}

TEST(ArtifactStoreTest, EveryTruncatedPrefixFailsTyped) {
  auto encoded = ArtifactStore::encode(make_contents());
  ASSERT_TRUE(encoded.ok());
  const util::Bytes& data = encoded.value();
  for (std::size_t len = 0; len < data.size(); ++len) {
    auto decoded = ArtifactStore::decode(
        std::span<const std::uint8_t>(data.data(), len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    ASSERT_FALSE(decoded.error().code.empty()) << "untagged error at " << len;
  }
}

TEST(ArtifactStoreTest, EverySingleByteCorruptionFailsTyped) {
  auto encoded = ArtifactStore::encode(make_contents());
  ASSERT_TRUE(encoded.ok());
  // FNV-1a over the payload: flipping any payload byte changes the chained
  // state at that position, and every subsequent step is bijective, so the
  // final checksum always moves. Envelope bytes are each validated
  // directly. Hence EVERY flip pattern at EVERY offset must fail typed.
  for (const std::uint8_t flip : {std::uint8_t{0xff}, std::uint8_t{0x80},
                                  std::uint8_t{0x01}}) {
    for (std::size_t i = 0; i < encoded.value().size(); ++i) {
      util::Bytes mutant = encoded.value();
      mutant[i] ^= flip;
      auto decoded = ArtifactStore::decode(mutant);
      ASSERT_FALSE(decoded.ok())
          << "byte " << i << " ^ " << static_cast<unsigned>(flip) << " decoded";
      ASSERT_FALSE(decoded.error().code.empty());
    }
  }
}

// Mutate-then-reseal: the checksum stops every corruption above before a
// field decoder runs. Here each mutated body is resealed under a valid
// FNV-1a checksum, so the field decoders themselves see hostile bytes. Each
// must decode to a value or fail with a typed code: never abort, throw or
// trip a sanitizer (this suite runs under ASan+UBSan in CI).
TEST(ArtifactStoreTest, ResealedBodyMutantsDecodeOrFailTyped) {
  const util::Envelope envelope{
      std::string_view(ArtifactStore::kMagic, sizeof(ArtifactStore::kMagic)),
      ArtifactStore::kVersion, "svc.store.bad_magic", "svc.store.bad_version",
      "svc.store.checksum_mismatch"};
  constexpr std::size_t kHeader = sizeof(ArtifactStore::kMagic) + 1 + 8;
  auto encoded = ArtifactStore::encode(make_contents());
  ASSERT_TRUE(encoded.ok());
  ASSERT_GT(encoded.value().size(), kHeader);
  const util::Bytes body(encoded.value().begin() + kHeader, encoded.value().end());
  ASSERT_EQ(envelope.seal(body), encoded.value())
      << "resealing an untouched body must be exact";
  std::size_t mutants = 0;
  std::size_t decoded = 0;
  const testutil::MutantCounts counts = testutil::for_each_body_mutant(
      body, [&](const util::Bytes& mutated, const std::string& what) {
        const util::Bytes mutant = envelope.seal(mutated);
        ++mutants;
        std::optional<util::Result<StoreContents>> result;
        EXPECT_NO_THROW(result.emplace(ArtifactStore::decode(mutant))) << what;
        if (!result.has_value()) return;
        if (result->ok()) {
          ++decoded;
        } else {
          EXPECT_FALSE(result->error().code.empty()) << "untyped error at " << what;
        }
      });
  EXPECT_EQ(counts.flips, body.size() * std::size(testutil::kByteFlips));
  EXPECT_GT(counts.varints, 0u);
  EXPECT_EQ(mutants, counts.flips + counts.varints);
  // Both outcomes occur: some fields accept any value, others reject.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, mutants);
}

TEST(ArtifactStoreTest, EnvelopeErrorsAreDistinguished) {
  auto encoded = ArtifactStore::encode(make_contents());
  ASSERT_TRUE(encoded.ok());

  util::Bytes bad_magic = encoded.value();
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(ArtifactStore::decode(bad_magic).error().code, "svc.store.bad_magic");

  util::Bytes bad_version = encoded.value();
  bad_version[4] ^= 0xff;
  EXPECT_EQ(ArtifactStore::decode(bad_version).error().code,
            "svc.store.bad_version");

  util::Bytes bad_payload = encoded.value();
  bad_payload.back() ^= 0x01;
  EXPECT_EQ(ArtifactStore::decode(bad_payload).error().code,
            "svc.store.checksum_mismatch");

  util::Bytes trailing = encoded.value();
  trailing.push_back(0x00);  // widens the checksummed span -> mismatch
  EXPECT_EQ(ArtifactStore::decode(trailing).error().code,
            "svc.store.checksum_mismatch");
}

// FNV-1a is not a MAC: a forged body with a valid checksum reaches the
// parser, whose counts must fail typed rather than drive an allocation.
[[nodiscard]] util::Bytes forge_store(const util::ByteWriter& body) {
  util::ByteWriter out;
  out.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(ArtifactStore::kMagic),
      sizeof(ArtifactStore::kMagic)));
  out.u8(ArtifactStore::kVersion);
  out.u64(util::fnv1a(body.span()));
  out.raw(body.span());
  return std::move(out).take();
}

TEST(ArtifactStoreTest, ForgedCountsFailTyped) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 61;
  util::ByteWriter unsat;
  unsat.vu64(0);      // artifacts
  unsat.vu64(kHuge);  // unsat keys
  auto decoded = ArtifactStore::decode(forge_store(unsat));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "bytes.truncated");

  util::ByteWriter frames;
  frames.vu64(1);       // artifacts
  frames.str("ring6");  // key.scenario
  frames.str("");       // key.implementation
  frames.u64(1);        // key.seed
  frames.vu64(1);       // key.bootstrap_events
  frames.vu32(0);       // key.flip_exit
  frames.vu64(0);       // resume_at
  frames.vu64(0);       // bootstrap_executed
  frames.u8(0);         // flags
  frames.u64(0);        // cut_hash
  frames.vu64(1);       // snap.id
  frames.vu64(0);       // snap.taken_at
  frames.vu64(0);       // nodes
  frames.vu64(1);       // channels
  frames.vu32(0);       // channel.from
  frames.vu32(1);       // channel.to
  frames.vu64(kHuge);   // frames on the channel
  decoded = ArtifactStore::decode(forge_store(frames));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "bytes.truncated");
}

TEST(ArtifactStoreTest, SaveLoadRoundtripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "svc_store_test.dsvc";
  std::remove(path.c_str());
  ArtifactStore store(path);

  auto missing = store.load();
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, "svc.store.missing");

  ASSERT_TRUE(store.save(make_contents()).ok());
  auto loaded = store.load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().live_states.size(), 2u);
  EXPECT_EQ(loaded.value().unsat_keys.size(), 3u);

  // No stale tmp file left behind by the atomic publish.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(ArtifactStoreTest, CorruptFileOnDiskFailsTyped) {
  const std::string path = ::testing::TempDir() + "svc_store_corrupt.dsvc";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is not a store file";
  }
  auto loaded = ArtifactStore(path).load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, "svc.store.bad_magic");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dice::svc
