#include "svc/artifact_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "snapshot/checkpoint.hpp"
#include "util/envelope.hpp"
#include "util/fields.hpp"

namespace dice::svc {

namespace {

using Clock = std::chrono::steady_clock;

struct StoreMetrics {
  obs::Histogram& save_ms;
  obs::Histogram& load_ms;
};

[[nodiscard]] StoreMetrics& store_metrics() {
  static StoreMetrics metrics{
      obs::MetricsRegistry::global().histogram(obs::names::kSvcStoreSaveMs),
      obs::MetricsRegistry::global().histogram(obs::names::kSvcStoreLoadMs)};
  return metrics;
}

constexpr util::Envelope kEnvelope{
    std::string_view(ArtifactStore::kMagic, sizeof(ArtifactStore::kMagic)),
    ArtifactStore::kVersion, "svc.store.bad_magic", "svc.store.bad_version",
    "svc.store.checksum_mismatch"};

template <class Io>
void fields(Io& io, util::IoRef<Io, LiveStateArtifact> artifact) {
  io.str(artifact.key.scenario);
  io.str(artifact.key.implementation);
  io.u64(artifact.key.seed);
  io.vu64(artifact.key.bootstrap_events);
  io.vu32(artifact.key.flip_exit);
  io.vu64(artifact.resume_at);
  io.vu64(artifact.bootstrap_executed);
  io.flags(artifact.quiesced, artifact.oscillation_exit);
  io.u64(artifact.cut_hash);
  // The snapshot is standalone by construction (encode refuses deltas), so
  // baseline_id does not travel and decodes as 0.
  io.vu64(artifact.snap.id);
  io.vu64(artifact.snap.taken_at);
  io.map(artifact.snap.nodes, [&](auto& node, auto& checkpoint) {
    io.vu32(node);
    io.u64(checkpoint.hash);
    io.bytes(checkpoint.state);
    if constexpr (Io::kDecoding) checkpoint.node = node;
  });
  io.map(artifact.snap.channels, [&](auto& channel, auto& frames) {
    io.vu32(channel.from);
    io.vu32(channel.to);
    io.seq(frames, [&](auto& frame) { io.bytes(frame); });
  });
}

// The file body. `Artifacts` is the decoded vector or, on encode, the
// canonical key-sorted view of the caller's artifacts.
template <class Io, class Artifacts, class Keys>
void body_fields(Io& io, Artifacts& live_states, Keys& unsat_keys) {
  io.seq(live_states, [&](auto& artifact) { fields(io, artifact); });
  io.seq(unsat_keys, [&](auto& key) { io.u64(key); });
}

}  // namespace

util::Result<util::Bytes> ArtifactStore::encode(const StoreContents& contents) {
  for (const LiveStateArtifact& artifact : contents.live_states) {
    if (artifact.snap.baseline_id != 0) {
      return util::make_error("svc.store.delta_snapshot",
                              "only standalone snapshots are persistable");
    }
    for (const auto& [node, checkpoint] : artifact.snap.nodes) {
      if (!checkpoint.state.empty() &&
          checkpoint.state.front() == snapshot::kCheckpointSameAsBaseline) {
        return util::make_error("svc.store.delta_snapshot",
                                "node " + std::to_string(node) +
                                    " rides a delta envelope");
      }
    }
  }

  // Canonicalize: equal contents must encode to equal bytes regardless of
  // harvest order (the cold-vs-warm receipt diffs store files).
  std::vector<std::reference_wrapper<const LiveStateArtifact>> ordered(
      contents.live_states.begin(), contents.live_states.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const LiveStateArtifact& a, const LiveStateArtifact& b) { return a.key < b.key; });
  std::vector<std::uint64_t> unsat = contents.unsat_keys;
  std::sort(unsat.begin(), unsat.end());
  unsat.erase(std::unique(unsat.begin(), unsat.end()), unsat.end());

  util::ByteWriter body;
  util::FieldEncoder io(body);
  body_fields(io, ordered, unsat);
  return kEnvelope.seal(body.span());
}

util::Result<StoreContents> ArtifactStore::decode(std::span<const std::uint8_t> data) {
  auto body = kEnvelope.open(data);
  if (!body) return body.error();
  util::ByteReader reader(body.value());
  util::FieldDecoder io(reader, "svc.store.malformed");
  StoreContents contents;
  body_fields(io, contents.live_states, contents.unsat_keys);
  if (const util::Status status = io.finish("svc.store.trailing_bytes"); !status.ok()) {
    return status.error();
  }
  // The checksum guards the bytes; this guards the semantics — a payload
  // regenerated inconsistently (right envelope, wrong snapshot) must fail
  // typed rather than resume a wrong live state.
  for (const LiveStateArtifact& artifact : contents.live_states) {
    if (artifact.snap.cut_hash() != artifact.cut_hash) {
      return util::make_error("svc.store.hash_mismatch",
                              "snapshot cut hash does not match the recorded one");
    }
  }
  return contents;
}

util::Status ArtifactStore::save(const StoreContents& contents) const {
  const auto start = Clock::now();
  auto encoded = encode(contents);
  if (!encoded) return encoded.error();
  // Atomic publish: a crash between write and rename leaves the previous
  // store intact; rename within one directory replaces it in one step.
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::make_error("svc.store.io", "cannot open " + tmp + " for writing");
    }
    out.write(reinterpret_cast<const char*>(encoded.value().data()),
              static_cast<std::streamsize>(encoded.value().size()));
    out.flush();
    if (!out) return util::make_error("svc.store.io", "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::make_error("svc.store.io", "cannot rename " + tmp + " over " + path_);
  }
  store_metrics().save_ms.observe(
      std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  return util::Status::success();
}

util::Result<StoreContents> ArtifactStore::load() const {
  const auto start = Clock::now();
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return util::make_error("svc.store.missing", path_ + " does not exist");
  }
  util::Bytes data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return util::make_error("svc.store.io", "read failure on " + path_);
  auto contents = decode(data);
  if (!contents) return contents.error();
  store_metrics().load_ms.observe(
      std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  return contents;
}

}  // namespace dice::svc
