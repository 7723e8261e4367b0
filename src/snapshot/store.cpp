#include "snapshot/store.hpp"

#include <mutex>

#include "snapshot/prepared.hpp"
#include "util/hash.hpp"

namespace dice::snapshot {

std::uint64_t Checkpointable::state_hash() const {
  util::ByteWriter writer;
  checkpoint(writer);
  return util::fnv1a(writer.span());
}

std::uint64_t Checkpointable::encode_checkpoint(util::ByteWriter& writer,
                                                SnapshotId /*this_snapshot*/,
                                                SnapshotId /*baseline*/) {
  const std::size_t before = writer.size();
  checkpoint(writer);
  return util::fnv1a(std::span(writer.span()).subspan(before));
}

std::size_t Snapshot::total_state_bytes() const {
  std::size_t total = 0;
  for (const auto& [node, cp] : nodes) total += cp.state.size();
  return total;
}

std::size_t Snapshot::total_in_flight() const {
  std::size_t total = 0;
  for (const auto& [key, frames] : channels) total += frames.size();
  return total;
}

std::uint64_t Snapshot::cut_hash() const {
  std::uint64_t h = util::kFnvOffset;
  for (const auto& [node, cp] : nodes) {
    h = util::hash_mix(h, node);
    h = util::hash_mix(h, cp.hash);
  }
  for (const auto& [key, frames] : channels) {
    h = util::hash_mix(h, key.from);
    h = util::hash_mix(h, key.to);
    for (const util::Bytes& payload : frames) h = util::hash_mix(h, util::fnv1a(payload));
  }
  return util::hash_finalize(h);
}

void SnapshotStore::put(Snapshot snapshot) {
  const SnapshotId id = snapshot.id;
  const std::unique_lock lock(mutex_);
  snapshots_.insert_or_assign(id, std::move(snapshot));
}

const Snapshot* SnapshotStore::find(SnapshotId id) const {
  const std::shared_lock lock(mutex_);
  auto it = snapshots_.find(id);
  return it == snapshots_.end() ? nullptr : &it->second;
}

std::size_t SnapshotStore::size() const {
  const std::shared_lock lock(mutex_);
  return snapshots_.size();
}

void SnapshotStore::erase(SnapshotId id) {
  const std::unique_lock lock(mutex_);
  snapshots_.erase(id);
  prepared_.erase(id);
}

void SnapshotStore::trim(std::size_t keep) {
  const std::unique_lock lock(mutex_);
  while (snapshots_.size() > keep) {
    prepared_.erase(snapshots_.begin()->first);
    snapshots_.erase(snapshots_.begin());
  }
  // Prepared entries can outnumber raw ones only if the raw snapshot was
  // erased first; apply the same bound to them directly.
  while (prepared_.size() > keep) prepared_.erase(prepared_.begin());
}

void SnapshotStore::put_prepared(std::shared_ptr<const PreparedSnapshot> prepared) {
  const SnapshotId id = prepared->id();
  const std::unique_lock lock(mutex_);
  prepared_.insert_or_assign(id, std::move(prepared));
}

std::shared_ptr<const PreparedSnapshot> SnapshotStore::find_prepared(SnapshotId id) const {
  const std::shared_lock lock(mutex_);
  auto it = prepared_.find(id);
  return it == prepared_.end() ? nullptr : it->second;
}

std::size_t SnapshotStore::prepared_size() const {
  const std::shared_lock lock(mutex_);
  return prepared_.size();
}

}  // namespace dice::snapshot
