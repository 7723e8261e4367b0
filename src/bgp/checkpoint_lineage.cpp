#include "bgp/checkpoint_lineage.hpp"

#include <span>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/hash.hpp"

namespace dice::bgp {

void CheckpointLineage::reset_flip_counters() {
  best_flips_.clear();
  max_best_flips_ = 0;
  const bool clean = applied_version_ == version_;
  ++version_;
  if (clean) applied_version_ = version_;
}

void CheckpointLineage::checkpoint(util::ByteWriter& writer) const {
  // Byte-coded v2 stream: version byte, attribute pool, tagged sections,
  // end tag. The pool is filled while the sections serialize into a scratch
  // writer, then emitted ahead of them (readers need the pool first).
  using ckpt::Tag;
  util::ByteWriter body;
  ckpt::AttrPoolEncoder pool;

  // Sessions (keyed by peer node id for stable identity across clones).
  body.u8(static_cast<std::uint8_t>(Tag::kSessions));
  write_sessions_(body);
  body.u8(static_cast<std::uint8_t>(Tag::kAdjIn));
  body.vu32(static_cast<std::uint32_t>(adj_in.size()));
  for (const auto& [peer, rib] : adj_in) {
    body.vu32(peer);
    ckpt::write_rib_v2(body, rib, pool);
  }
  body.u8(static_cast<std::uint8_t>(Tag::kLocRib));
  ckpt::write_rib_v2(body, loc_rib, pool);
  body.u8(static_cast<std::uint8_t>(Tag::kAdjOut));
  body.vu32(static_cast<std::uint32_t>(adj_out.size()));
  for (const auto& [peer, rib] : adj_out) {
    body.vu32(peer);
    ckpt::write_rib_v2(body, rib, pool);
  }
  // Flip counters travel with the snapshot so clone-side oscillation
  // detection starts from the live system's baseline.
  body.u8(static_cast<std::uint8_t>(Tag::kFlips));
  body.vu32(static_cast<std::uint32_t>(best_flips_.size()));
  for (const auto& [prefix, count] : best_flips_) {
    body.u32(prefix.address().value());
    body.u8(prefix.length());
    body.vu32(count);
  }

  writer.u8(ckpt::kFormatV2);
  pool.emit(writer);
  writer.raw(body.span());
  writer.u8(static_cast<std::uint8_t>(Tag::kEnd));
}

std::uint64_t CheckpointLineage::encode_checkpoint(util::ByteWriter& writer,
                                                   snapshot::SnapshotId this_snapshot,
                                                   snapshot::SnapshotId baseline) {
  if (baseline != 0 && last_checkpoint_.snapshot == baseline &&
      last_checkpoint_.version == version_) {
    // Nothing checkpointed changed since the baseline captured this node:
    // one byte replaces the whole stream, the recorded full-state hash keeps
    // the cut fingerprint identical to a full encode.
    writer.u8(snapshot::kCheckpointSameAsBaseline);
    last_checkpoint_.snapshot = this_snapshot;
    return last_checkpoint_.hash;
  }
  const std::size_t before = writer.size();
  checkpoint(writer);
  const std::uint64_t hash = util::fnv1a(std::span(writer.span()).subspan(before));
  last_checkpoint_ = {this_snapshot, version_, hash};
  return hash;
}

util::Result<std::shared_ptr<const snapshot::DecodedCheckpoint>> CheckpointLineage::parse(
    util::ByteReader& reader, const std::function<bool(sim::NodeId)>& known_peer) {
  static obs::Counter& decode_counter =
      obs::MetricsRegistry::global().counter(obs::names::kCheckpointDecodes);
  decode_counter.add();

  auto state = ckpt::read_router_v2(reader, known_peer);
  if (!state) return state.error();
  auto decoded = std::make_shared<RouterCheckpoint>();
  decoded->state = std::move(state).take();
  return std::shared_ptr<const snapshot::DecodedCheckpoint>(std::move(decoded));
}

util::Status CheckpointLineage::apply(const snapshot::DecodedCheckpoint& state,
                                      const SessionApplier& apply_sessions) {
  const auto* decoded = dynamic_cast<const RouterCheckpoint*>(&state);
  if (decoded == nullptr) return util::make_error("router.apply.wrong_type");
  ++version_;  // restore rewrites every piece of checkpointed state
  if (util::Status sessions = apply_sessions(decoded->state.sessions); !sessions.ok()) {
    return sessions;
  }

  // Rib copies share the decoded tables (copy-on-write, bgp/rib.hpp): the
  // restore is O(tables), and only the tables the engine later writes are
  // ever copied.
  adj_in.clear();
  for (const auto& [peer, rib] : decoded->state.adj_in) adj_in.emplace(peer, rib);
  loc_rib = decoded->state.loc_rib;
  adj_out.clear();
  for (const auto& [peer, rib] : decoded->state.adj_out) adj_out.emplace(peer, rib);

  best_flips_.clear();
  max_best_flips_ = 0;
  for (const auto& [prefix, count] : decoded->state.best_flips) {
    best_flips_[prefix] = count;
    max_best_flips_ = std::max(max_best_flips_, count);
  }
  applied_ = state.weak_from_this();
  applied_version_ = version_;
  return util::Status::success();
}

void CheckpointLineage::reset_for_reuse() {
  adj_in.clear();
  loc_rib.clear();
  adj_out.clear();
  best_flips_.clear();
  max_best_flips_ = 0;
  ++version_;
  last_checkpoint_ = {};  // arena reuse crosses snapshot lineages: no deltas
  applied_.reset();
}

}  // namespace dice::bgp
