// Shared helpers for the experiment harnesses: wall-clock timing and
// aligned table printing so every bench emits paper-style rows.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace dice::bench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    const auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < cells.size() ? cells[i] : std::string{};
        std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t w : widths) std::printf("%s|", std::string(w + 2, '-').c_str());
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// The machine-readable receipt every harness emits: prints the JSON line
/// to stdout and mirrors it to BENCH_<name>.json for the perf-trajectory
/// records (CI and later sessions diff these files, not the tables).
/// Every receipt gets a "metrics" section — the global registry snapshot
/// at emit time (empty `{}` sections in a -DDICE_OBS=OFF build) — so the
/// perf records carry the telemetry view of the same run for free.
inline void emit_json(const std::string& name, const std::string& json) {
  std::string line = json;
  const std::size_t close = line.rfind('}');
  if (close != std::string::npos) {
    line.insert(close,
                ",\"metrics\":" + obs::MetricsRegistry::global().snapshot().to_json());
  }
  std::printf("\n%s\n", line.c_str());
  const std::string path = "BENCH_" + name + ".json";
  if (FILE* out = std::fopen(path.c_str(), "w")) {
    std::fprintf(out, "%s\n", line.c_str());
    std::fclose(out);
  }
}

[[nodiscard]] inline std::string fmt(double value, int precision = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

[[nodiscard]] inline std::string fmt_count(std::uint64_t value) {
  return std::to_string(value);
}

}  // namespace dice::bench
