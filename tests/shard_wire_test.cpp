// shard wire form (DSHD v4) receipts: codec round-trips for every message
// kind, canonical-bytes equality (equal values -> equal bytes), framing
// reassembly under adversarial chunking, and the svc_store-style robustness
// pass the coordinator stakes its uptime on — EVERY truncated prefix and
// EVERY single-byte corruption of a valid envelope decodes to a typed
// error (checksum verified before any payload parse), never a crash.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <variant>

#include "body_mutants.hpp"
#include "shard/scenario_set.hpp"
#include "shard/wire.hpp"
#include "util/envelope.hpp"
#include "util/hash.hpp"

namespace dice::shard {
namespace {

[[nodiscard]] JobSpec make_job() {
  JobSpec job;
  job.shard_id = 3;
  job.scenario_set = "topology27";
  explore::CampaignOptions& options = job.campaign;
  options.strategies = {explore::StrategyKind::kGrammar, explore::StrategyKind::kConcolic};
  options.determinism.seeds = {1, 7, 0xffff'ffff'ffff'ffffull};
  options.determinism.implementations = {"", "fsm"};
  options.determinism.strategy_seed = 0xf1f1;
  options.determinism.oscillation_threshold = 9;
  options.budgets.episodes_per_cell = 2;
  options.budgets.inputs_per_episode = 32;
  options.budgets.bootstrap_events = 2'000'000;
  options.budgets.clone_event_budget = 123'456;
  options.parallelism.workers = 4;
  options.parallelism.nested = false;
  job.cells = {0, 2, 4, 11};
  return job;
}

[[nodiscard]] CellResultMsg make_cell_result() {
  CellResultMsg message;
  message.index = 5;
  message.result.scenario = "topology27";
  message.result.strategy = explore::StrategyKind::kGrammarStrict;
  message.result.seed = 42;
  message.result.implementation = "fsm";
  message.result.started = true;
  message.result.completed = true;
  message.result.bootstrap_converged = true;
  message.result.bootstrap_from_cache = false;
  message.result.episodes = 2;
  message.result.clones_run = 66;
  message.result.inputs_subjected = 64;
  message.result.faults = 2;
  message.result.bootstrap_ms = 103.25;
  message.result.wall_ms = 220.5;
  core::FaultReport fault;
  fault.fault_class = core::FaultClass::kPolicyConflict;
  fault.check = "oscillation";
  fault.description = "prefix 10.0.0.0/8 flapped 9 times";
  fault.node = 12;
  fault.episode = 1;
  fault.explorer = 20;
  fault.input = {0xff, 0x00, 0x7f, 0x80};
  fault.potential = true;
  message.faults.push_back(fault);
  fault.fault_class = core::FaultClass::kImplementationDivergence;
  fault.check = "divergence";
  fault.description = "rib digest mismatch";
  fault.input.clear();
  fault.potential = false;
  message.faults.push_back(fault);
  return message;
}

TEST(ShardWire, JobRoundTripsAndIsCanonical) {
  const JobSpec job = make_job();
  const util::Bytes bytes = encode_job(job);
  auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().detail;
  auto* round = std::get_if<JobSpec>(&decoded.value());
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(*round, job);
  // Canonical bytes: re-encoding the decoded value reproduces the buffer.
  EXPECT_EQ(encode_job(*round), bytes);
}

TEST(ShardWire, JobLeavesProcessLocalFieldsUnset) {
  // Only the wire fields travel: a job built from options that point at
  // process-local objects decodes with those pointers null and no deadline.
  const std::vector<std::uint64_t> unsat_seed{1, 2};
  JobSpec job = make_job();
  job.campaign.caching.unsat_seed = &unsat_seed;
  job.campaign.deadline = explore::StopToken::Clock::now();
  const util::Bytes bytes = encode_job(job);
  EXPECT_EQ(bytes, encode_job(make_job()));
  auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().detail;
  EXPECT_EQ(std::get<JobSpec>(decoded.value()), make_job());
}

TEST(ShardWire, CellResultRoundTripsAndIsCanonical) {
  const CellResultMsg message = make_cell_result();
  const util::Bytes bytes = encode_cell_result(message);
  auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().detail;
  auto* round = std::get_if<CellResultMsg>(&decoded.value());
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->index, message.index);
  EXPECT_EQ(round->result.scenario, message.result.scenario);
  EXPECT_EQ(round->result.strategy, message.result.strategy);
  EXPECT_EQ(round->result.seed, message.result.seed);
  EXPECT_EQ(round->result.implementation, message.result.implementation);
  EXPECT_EQ(round->result.started, message.result.started);
  EXPECT_EQ(round->result.completed, message.result.completed);
  EXPECT_EQ(round->result.bootstrap_converged, message.result.bootstrap_converged);
  EXPECT_EQ(round->result.bootstrap_from_cache, message.result.bootstrap_from_cache);
  EXPECT_EQ(round->result.episodes, message.result.episodes);
  EXPECT_EQ(round->result.clones_run, message.result.clones_run);
  EXPECT_EQ(round->result.inputs_subjected, message.result.inputs_subjected);
  EXPECT_EQ(round->result.faults, message.result.faults);
  EXPECT_DOUBLE_EQ(round->result.bootstrap_ms, message.result.bootstrap_ms);
  EXPECT_DOUBLE_EQ(round->result.wall_ms, message.result.wall_ms);
  ASSERT_EQ(round->faults.size(), message.faults.size());
  for (std::size_t i = 0; i < message.faults.size(); ++i) {
    EXPECT_EQ(round->faults[i].to_string(), message.faults[i].to_string());
    EXPECT_EQ(round->faults[i].input, message.faults[i].input);
    EXPECT_EQ(round->faults[i].episode, message.faults[i].episode);
  }
  // The strongest canonicality receipt: decode -> encode is the identity
  // on bytes.
  EXPECT_EQ(encode_cell_result(*round), bytes);
}

TEST(ShardWire, ShardDoneAndDescriptorRoundTrip) {
  ShardDoneMsg done;
  done.shard_id = 2;
  done.cells_sent = 9;
  const util::Bytes done_bytes = encode_shard_done(done);
  auto done_decoded = decode_message(done_bytes);
  ASSERT_TRUE(done_decoded.ok());
  auto* done_round = std::get_if<ShardDoneMsg>(&done_decoded.value());
  ASSERT_NE(done_round, nullptr);
  EXPECT_EQ(*done_round, done);
  EXPECT_EQ(encode_shard_done(*done_round), done_bytes);

  const explore::CellDescriptor descriptor{7, "topology27", "grammar", 42, "fsm"};
  const WireCellDescriptor wire = WireCellDescriptor::from_descriptor(descriptor);
  const util::Bytes desc_bytes = encode_cell_descriptor(wire);
  auto desc_decoded = decode_message(desc_bytes);
  ASSERT_TRUE(desc_decoded.ok());
  auto* desc_round = std::get_if<WireCellDescriptor>(&desc_decoded.value());
  ASSERT_NE(desc_round, nullptr);
  EXPECT_EQ(*desc_round, wire);
  EXPECT_EQ(encode_cell_descriptor(*desc_round), desc_bytes);
}

// Byte pins: FNV-1a over one encoding of every message kind. Any change
// to a record's field order or primitive moves one of these. The version
// byte (offset 4) sits inside every frame. The records v3 and v4 left
// alone keep their v2 pins: each is hashed with that byte set back to 2,
// after the byte itself is checked against kVersion, so every byte stays
// pinned.
TEST(ShardWire, EncodedBytesArePinned) {
  const auto hash_as_v2 = [](util::Bytes frame) {
    EXPECT_EQ(frame[4], kVersion);
    frame[4] = 2;
    return util::fnv1a(frame);
  };
  EXPECT_EQ(util::fnv1a(encode_job(make_job())), 0x5a83287d8ae6bebcull);
  EXPECT_EQ(hash_as_v2(encode_cell_result(make_cell_result())), 0xb11f722c9773bb38ull);
  EXPECT_EQ(util::fnv1a(encode_shard_done({4, 2})), 0x8b98dbcaf7d1e286ull);
  EXPECT_EQ(hash_as_v2(encode_cell_descriptor(
                WireCellDescriptor{1, "ring6", "random", 3, ""})),
            0x73cf8c93cd7a0b50ull);
}

TEST(ShardWire, EqualValuesProduceEqualBytes) {
  EXPECT_EQ(encode_job(make_job()), encode_job(make_job()));
  EXPECT_EQ(encode_cell_result(make_cell_result()), encode_cell_result(make_cell_result()));
}

// The robustness pass: every truncation length and every single-byte flip
// of every message kind must decode to a TYPED error — exercised for all
// four tags so each payload parser sits behind the checksum.
/// One encoded frame of every message kind.
[[nodiscard]] std::vector<util::Bytes> every_message_kind() {
  std::vector<util::Bytes> messages;
  messages.push_back(encode_job(make_job()));
  messages.push_back(encode_cell_result(make_cell_result()));
  messages.push_back(encode_shard_done({4, 2}));
  messages.push_back(
      encode_cell_descriptor(WireCellDescriptor{1, "ring6", "random", 3, ""}));
  return messages;
}

TEST(ShardWire, EveryTruncationAndFlipFailsTyped) {
  for (const util::Bytes& bytes : every_message_kind()) {
    ASSERT_TRUE(decode_message(bytes).ok());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      auto truncated =
          decode_message(std::span<const std::uint8_t>(bytes.data(), len));
      EXPECT_FALSE(truncated.ok()) << "prefix of " << len << " bytes decoded";
      if (!truncated.ok()) {
        EXPECT_FALSE(truncated.error().code.empty());
      }
    }
    for (const std::uint8_t flip :
         {std::uint8_t{0xff}, std::uint8_t{0x80}, std::uint8_t{0x01}}) {
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        util::Bytes mutant = bytes;
        mutant[i] ^= flip;
        auto corrupt = decode_message(mutant);
        EXPECT_FALSE(corrupt.ok())
            << "byte " << i << " ^ " << static_cast<unsigned>(flip) << " decoded";
        if (!corrupt.ok()) {
          EXPECT_FALSE(corrupt.error().code.empty());
        }
      }
    }
    // Trailing garbage past a complete payload is typed, not ignored.
    util::Bytes extended = bytes;
    extended.push_back(0x00);
    auto trailing = decode_message(extended);
    ASSERT_FALSE(trailing.ok());
    // The appended byte lands inside the checksummed payload span, so
    // either guard may fire — but it must be one of these two.
    EXPECT_TRUE(trailing.error().code == "shard.wire.trailing" ||
                trailing.error().code == "shard.wire.checksum")
        << trailing.error().code;
  }
}

// Mutate-then-reseal: the checksum stops every corruption above before a
// field decoder runs. Here each mutated body is resealed under a valid
// FNV-1a checksum, so the field decoders themselves see hostile bytes. Each
// must decode to a value or fail with a typed code: never abort, throw or
// trip a sanitizer (this suite runs under ASan+UBSan in CI).
TEST(ShardWire, ResealedBodyMutantsDecodeOrFailTyped) {
  const util::Envelope envelope{std::string_view(kMagic, sizeof(kMagic)), kVersion,
                                "shard.wire.magic", "shard.wire.version",
                                "shard.wire.checksum"};
  constexpr std::size_t kHeader = sizeof(kMagic) + 1 + 8;  // magic | version | checksum
  std::size_t mutants = 0;
  std::size_t decoded = 0;
  std::size_t body_bytes = 0;
  std::size_t varint_mutants = 0;
  for (const util::Bytes& bytes : every_message_kind()) {
    ASSERT_GT(bytes.size(), kHeader);
    const util::Bytes body(bytes.begin() + kHeader, bytes.end());
    ASSERT_EQ(envelope.seal(body), bytes) << "resealing an untouched body must be exact";
    body_bytes += body.size();
    const testutil::MutantCounts counts = testutil::for_each_body_mutant(
        body, [&](const util::Bytes& mutated, const std::string& what) {
          const util::Bytes mutant = envelope.seal(mutated);
          ++mutants;
          std::optional<util::Result<Message>> result;
          EXPECT_NO_THROW(result.emplace(decode_message(mutant))) << what;
          if (!result.has_value()) return;
          if (result->ok()) {
            ++decoded;
          } else {
            EXPECT_FALSE(result->error().code.empty()) << "untyped error at " << what;
          }
        });
    EXPECT_EQ(counts.flips, body.size() * std::size(testutil::kByteFlips));
    varint_mutants += counts.varints;
  }
  EXPECT_GT(varint_mutants, 0u);
  EXPECT_EQ(mutants, body_bytes * std::size(testutil::kByteFlips) + varint_mutants);
  // Both outcomes occur: some fields accept any value, others reject.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, mutants);
}

TEST(ShardWire, SpecificCorruptionsYieldSpecificCodes) {
  const util::Bytes bytes = encode_shard_done({1, 1});
  util::Bytes bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_EQ(decode_message(bad_magic).error().code, "shard.wire.magic");
  util::Bytes bad_version = bytes;
  bad_version[4] = 0x7e;
  EXPECT_EQ(decode_message(bad_version).error().code, "shard.wire.version");
  util::Bytes bad_payload = bytes;
  bad_payload.back() ^= 0xff;
  EXPECT_EQ(decode_message(bad_payload).error().code, "shard.wire.checksum");
  // A merely-flipped tag fails the checksum (it sits inside the covered
  // span); an unknown tag with a VALID checksum — an adversarial or
  // future-version peer — must fail as shard.wire.tag.
  util::ByteWriter forged;
  forged.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
  forged.u8(kVersion);
  const std::uint8_t body[] = {0x66};
  forged.u64(util::fnv1a(std::span<const std::uint8_t>(body, 1)));
  forged.u8(0x66);
  EXPECT_EQ(decode_message(forged.span()).error().code, "shard.wire.tag");
}

TEST(ShardWire, ForgedJobCountFailsTyped) {
  // FNV-1a is not a MAC: a forged body with a valid checksum reaches the
  // field parser, whose counts must not drive an allocation.
  util::ByteWriter body;
  body.u8(static_cast<std::uint8_t>(FrameTag::kJob));
  body.u64(0);                       // shard id
  body.str("topology27");            // scenario set
  body.vu64(std::uint64_t{1} << 61);  // strategy count
  util::ByteWriter forged;
  forged.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
  forged.u8(kVersion);
  forged.u64(util::fnv1a(body.span()));
  forged.raw(body.span());
  auto decoded = decode_message(forged.span());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "bytes.truncated");
}

TEST(ShardWire, V3FrameFailsWithVersionCode) {
  // v4 dropped the UNSAT key sequences, so a v3 job's payload no longer
  // lines up field for field: a v3 peer must be refused at the version
  // byte, before any payload parse, even when its checksum is intact.
  static_assert(kVersion == 4);
  util::Bytes v3 = encode_job(make_job());
  ASSERT_EQ(v3[4], kVersion);
  v3[4] = 3;
  auto decoded = decode_message(v3);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "shard.wire.version");
}

TEST(ShardWire, FrameBufferReassemblesByteAtATime) {
  const util::Bytes first = encode_cell_result(make_cell_result());
  const util::Bytes second = encode_shard_done({0, 1});
  util::Bytes stream;
  append_frame(stream, first);
  append_frame(stream, second);

  // Feed one byte at a time — pipes may deliver any chunking.
  FrameBuffer frames;
  std::vector<util::Bytes> out;
  for (const std::uint8_t byte : stream) {
    frames.feed(std::span<const std::uint8_t>(&byte, 1));
    for (;;) {
      auto frame = frames.next_frame();
      ASSERT_TRUE(frame.ok());
      if (!frame.value().has_value()) break;
      out.push_back(*frame.value());
    }
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], first);
  EXPECT_EQ(out[1], second);
  EXPECT_EQ(frames.pending_bytes(), 0u);
}

TEST(ShardWire, OversizeFramePoisonsTheStream) {
  util::Bytes stream = {0xff, 0xff, 0xff, 0xff, 0x00};
  FrameBuffer frames;
  frames.feed(stream);
  auto frame = frames.next_frame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, "shard.wire.frame_oversize");
}

TEST(ShardScenarioSet, ResolvesNamedSetsAndRejectsUnknown) {
  for (const std::string& name : scenario_set_names()) {
    auto specs = resolve_scenario_set(name);
    ASSERT_TRUE(specs.ok()) << name;
    EXPECT_FALSE(specs.value().empty()) << name;
  }
  auto t27 = resolve_scenario_set("topology27");
  ASSERT_TRUE(t27.ok());
  ASSERT_EQ(t27.value().size(), 1u);
  EXPECT_EQ(t27.value()[0].name, "topology27");
  auto unknown = resolve_scenario_set("no-such-set");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, "shard.scenario_set.unknown");
}

}  // namespace
}  // namespace dice::shard
