// Registry counter deltas for tests. The metrics registry is the one
// counter surface for pool, arena and live-cache events, so a test that
// asserts on those counts reads what the registry gained while it ran.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace dice::testutil {

/// Counter values relative to construction time. The registry is
/// process-wide; gtest runs one test at a time, so the delta is the work
/// of the running test.
class CounterDelta {
 public:
  CounterDelta() : before_(obs::MetricsRegistry::global().snapshot()) {}

  [[nodiscard]] std::uint64_t operator()(std::string_view name) const {
    return obs::MetricsRegistry::global().snapshot().counter_value(name) -
           before_.counter_value(name);
  }

 private:
  obs::MetricsSnapshot before_;
};

}  // namespace dice::testutil

/// Skips a test whose assertions are registry counts: in a -DDICE_OBS=OFF
/// build every record call is a no-op.
#define DICE_METRICS_REQUIRED()                                                \
  do {                                                                         \
    if (!::dice::obs::kEnabled) GTEST_SKIP() << "telemetry compiled out (DICE_OBS=OFF)"; \
  } while (0)
