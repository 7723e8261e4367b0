// svc::ArtifactStore — the persistent warm-start store of the resident soak
// daemon (docs/SERVICE.md).
//
// A restarted daemon used to pay the full cold-start bill: every
// (scenario, seed) live system re-bootstrapped from zero and every solver
// verdict re-derived, even though the previous process had already done
// both. The store closes that gap across PROCESS lifetimes the same way
// LiveStateCache closes it across cells: it serializes every harvested
// PreparedLiveState (as its raw, standalone snapshot plus the resume
// metadata) together with the SolverCache's proven-UNSAT memo, and a fresh
// daemon decodes each cut against its own routers on its first resume.
//
// Only artifacts that are sound to replay are persisted:
//  * live states are raw Chandy-Lamport cuts re-decoded through the exact
//    checkpoint codec a live capture uses — byte-identical resume;
//  * of the solver memo only proven-UNSAT keys travel (a seeded hit skips
//    solving with the verdict a fresh solve would reach; a replayed SAT
//    *model* could differ byte-wise and move fault bytes, so models never
//    travel).
//
// Robustness contract (mirrors bgp/checkpoint_codec): versioned magic
// envelope, whole-payload checksum, strict bounds-checked decode. A
// truncated, corrupted or alien file yields a typed error ("svc.store.*" /
// "bytes.*") and the caller cold-starts; it never crashes the daemon and
// never half-applies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/store.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace dice::svc {

/// Stable on-disk identity of one cached bootstrap. The in-memory
/// LiveStateCache keys by prototype POINTER identity, which cannot survive
/// a process; this is the same key projected onto names: the scenario and
/// implementation-axis entry select the prototype, the rest mirrors
/// explore::LiveStateCache::Key.
struct WarmKey {
  std::string scenario;
  std::string implementation;  ///< "" = blueprint as authored
  std::uint64_t seed = 0;
  std::uint64_t bootstrap_events = 0;
  std::uint32_t flip_exit = 0;  ///< bootstrap oscillation early-exit threshold

  [[nodiscard]] auto operator<=>(const WarmKey&) const = default;
};

/// One persisted bootstrap capture: the WarmKey plus everything
/// snapshot::PreparedLiveState carries, with the decoded cut replaced by
/// its raw (standalone) snapshot — the form that can travel between
/// processes and be re-decoded against the loading daemon's own routers.
struct LiveStateArtifact {
  WarmKey key;
  sim::Time resume_at = 0;
  std::uint64_t bootstrap_executed = 0;
  bool quiesced = false;
  bool oscillation_exit = false;
  /// snap.cut_hash() at save time; re-verified on decode so a store whose
  /// payload was regenerated inconsistently fails typed, never resumes a
  /// wrong state.
  std::uint64_t cut_hash = 0;
  snapshot::Snapshot snap;  ///< raw standalone cut (baseline_id must be 0)
};

/// Everything one store file holds. `live_states` is kept sorted by key and
/// `unsat_keys` ascending+deduplicated, so equal contents encode to equal
/// bytes (the cold-vs-warm byte-identity receipt diffs these files).
struct StoreContents {
  std::vector<LiveStateArtifact> live_states;
  std::vector<std::uint64_t> unsat_keys;
};

class ArtifactStore {
 public:
  /// v1 wire format: the sealed util::Envelope ("DSVC" magic, version
  /// byte, u64 FNV-1a checksum over the payload, payload). The checksum is
  /// verified BEFORE any payload parsing, so every single-byte corruption
  /// is detected deterministically.
  static constexpr char kMagic[4] = {'D', 'S', 'V', 'C'};
  static constexpr std::uint8_t kVersion = 1;

  explicit ArtifactStore(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Serializes `contents` (canonicalized: artifacts sorted by key, unsat
  /// keys ascending+deduplicated — equal contents always encode to equal
  /// bytes). Refuses artifacts that are not sound to persist: a snapshot
  /// with `baseline_id != 0` or a node checkpoint riding the delta envelope
  /// ("svc.store.delta_snapshot") — a standalone capture never has either,
  /// and a delta cut re-decoded without its baseline would be garbage.
  [[nodiscard]] static util::Result<util::Bytes> encode(const StoreContents& contents);

  /// Strict decode: bad magic ("svc.store.bad_magic"), unknown version
  /// ("svc.store.bad_version"), checksum mismatch — any corruption or
  /// truncation inside the payload — ("svc.store.checksum_mismatch"),
  /// bytes left over after the payload ("svc.store.trailing_bytes"),
  /// undefined flag bits ("svc.store.malformed"), a snapshot whose
  /// recomputed cut hash moved ("svc.store.hash_mismatch"), or the
  /// bounds-checked reader's own "bytes.*" errors on a file shorter than
  /// the envelope. Never crashes, never returns a partial result.
  [[nodiscard]] static util::Result<StoreContents> decode(
      std::span<const std::uint8_t> data);

  /// Atomic save: encode, write to `path() + ".tmp"`, rename over the
  /// target — a crash mid-save leaves the previous store intact, a reader
  /// never observes a half-written file. I/O failures are
  /// "svc.store.io".
  [[nodiscard]] util::Status save(const StoreContents& contents) const;

  /// Reads and decodes the store. A missing file is the distinguished
  /// "svc.store.missing" (the normal first-boot cold start); everything
  /// else decodes strictly per decode().
  [[nodiscard]] util::Result<StoreContents> load() const;

 private:
  std::string path_;
};

}  // namespace dice::svc
