// E9 — clone setup cost of the decode-once pipeline.
//
// A snapshot is decoded once (PreparedSnapshot); every clone then applies
// the typed state, either to a freshly constructed System or — the path
// exploration uses — to one reusable System per worker (CloneArena). This
// harness measures per-clone setup microseconds and checkpoint-decode
// counts for both on the 27-router Figure 1 topology and emits one JSON
// line (also written to BENCH_clone_restore.json). Exits nonzero if an
// arena reset decodes anything (the receipt is 0 decodes/clone).
#include <cstdio>

#include "bench_util.hpp"
#include "dice/system.hpp"
#include "explore/arena.hpp"

namespace {

using namespace dice;

struct Measurement {
  double us_per_clone = 0.0;
  double decodes_per_clone = 0.0;
};

constexpr std::size_t kClones = 64;

}  // namespace

int main() {
  using bench::fmt;

  std::puts("== E9: per-clone setup — fresh System vs arena reset ==\n");

  bgp::SystemBlueprint blueprint = bgp::make_internet();  // 27 routers
  bgp::inject_hijack(blueprint, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  auto prototype = std::make_shared<const core::SystemPrototype>(std::move(blueprint));

  core::System live(prototype);
  live.start();
  if (!live.converge()) {
    std::puts("live system failed to converge");
    return 1;
  }
  const snapshot::SnapshotId id = live.take_snapshot(0);
  if (id == 0) {
    std::puts("snapshot failed");
    return 1;
  }
  const snapshot::Snapshot* raw = live.snapshots().find(id);
  std::printf("snapshot: %zu nodes, %zu state bytes, %zu in flight\n\n", raw->nodes.size(),
              raw->total_state_bytes(), raw->total_in_flight());

  // Decode-once cost (amortized over every clone of the episode).
  const std::uint64_t decodes_prepare_before = bgp::checkpoint_decode_count();
  bench::Stopwatch prepare_watch;
  const auto prepared = live.prepare_snapshot(id);
  const double prepare_us = prepare_watch.ms() * 1000.0;
  const std::uint64_t prepare_decodes =
      bgp::checkpoint_decode_count() - decodes_prepare_before;
  if (prepared == nullptr) {
    std::puts("prepare_snapshot failed");
    return 1;
  }

  const auto measure = [](auto&& setup_one) {
    const std::uint64_t decodes_before = bgp::checkpoint_decode_count();
    bench::Stopwatch watch;
    for (std::size_t i = 0; i < kClones; ++i) setup_one();
    Measurement m;
    m.us_per_clone = watch.ms() * 1000.0 / static_cast<double>(kClones);
    m.decodes_per_clone =
        static_cast<double>(bgp::checkpoint_decode_count() - decodes_before) /
        static_cast<double>(kClones);
    return m;
  };

  const Measurement fresh = measure([&] {
    core::System clone(prototype);
    if (!clone.reset_from(*prepared).ok()) std::abort();
  });

  explore::CloneArena arena;
  const Measurement arena_reset = measure([&] {
    bool reused = false;
    if (!arena.acquire(prototype, *prepared, reused).ok()) std::abort();
  });

  bench::Table table({"path", "us/clone", "decodes/clone"});
  const auto row = [&](const char* name, const Measurement& m) {
    table.row({name, fmt(m.us_per_clone, 1), fmt(m.decodes_per_clone, 2)});
  };
  row("fresh System (construct + reset)", fresh);
  row("arena reset (reset only)", arena_reset);
  table.print();
  std::printf("\none-time prepare: %.1f us, %llu decode(s) — amortized over all clones\n",
              prepare_us, static_cast<unsigned long long>(prepare_decodes));
  const bool zero_decodes = arena_reset.decodes_per_clone == 0.0;
  std::printf("arena decodes/clone == 0: %s\n", zero_decodes ? "YES" : "NO");

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"clone_restore\",\"topology\":\"internet27\",\"clones\":%zu,"
                "\"fresh_us_per_clone\":%.2f,\"arena_us_per_clone\":%.2f,"
                "\"prepare_once_us\":%.2f,\"fresh_decodes_per_clone\":%.2f,"
                "\"arena_decodes_per_clone\":%.2f}",
                kClones, fresh.us_per_clone, arena_reset.us_per_clone, prepare_us,
                fresh.decodes_per_clone, arena_reset.decodes_per_clone);
  bench::emit_json("clone_restore", json);
  return zero_decodes ? 0 : 1;
}
