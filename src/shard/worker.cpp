#include "shard/worker.hpp"

#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "explore/matrix.hpp"
#include "explore/pool.hpp"
#include "shard/scenario_set.hpp"
#include "shard/wire.hpp"
#include "util/log.hpp"

namespace dice::shard {

namespace {

const util::Logger& logger() {
  static util::Logger instance("shard.worker");
  return instance;
}

/// write() the whole span, retrying short writes and EINTR. False on any
/// terminal error (EPIPE when the coordinator died — SIGPIPE is ignored).
[[nodiscard]] bool write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Streams kCellResult frames for executed cells as the canonical merge
/// flushes them. Runs under the merger's flush mutex — single-threaded by
/// construction, so the plain counters need no synchronization.
class StreamObserver final : public explore::CampaignObserver {
 public:
  StreamObserver(int out_fd, const WorkerChaos& chaos) : out_fd_(out_fd), chaos_(chaos) {}

  void on_fault(const explore::CellDescriptor& cell,
                const core::FaultReport& fault) override {
    (void)cell;
    faults_.push_back(fault);
  }

  void on_cell_done(const explore::CellDescriptor& cell,
                    const explore::CellResult& result) override {
    std::vector<core::FaultReport> faults;
    faults.swap(faults_);
    // started == false marks a cell outside this shard's subset — another
    // worker owns it; streaming it would double-merge coordinator-side.
    if (!result.started || failed_) return;
    CellResultMsg message;
    message.index = cell.index;
    message.result = result;
    message.faults = std::move(faults);
    util::Bytes frame;
    append_frame(frame, encode_cell_result(message));
    if (chaos_.corrupt_frame && sent_ == 0) {
      // Flip a payload byte (past the 4-byte length prefix and the
      // envelope header): framing stays intact, the checksum does not.
      frame.back() ^= 0xff;
    }
    if (!write_all(out_fd_, frame)) {
      failed_ = true;
      return;
    }
    ++sent_;
    if (chaos_.crash_after_cells && sent_ >= *chaos_.crash_after_cells) {
      _exit(2);  // the test seam's mid-shard crash: no flush, no goodbye
    }
    if (chaos_.stall_after_cells && sent_ >= *chaos_.stall_after_cells) {
      // Stall: stop producing bytes without exiting, until the
      // coordinator's inactivity deadline SIGKILLs us.
      for (;;) pause();
    }
  }

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  int out_fd_;
  WorkerChaos chaos_;
  std::vector<core::FaultReport> faults_;  ///< current cell, canonical order
  std::uint64_t sent_ = 0;
  bool failed_ = false;
};

[[nodiscard]] util::Result<JobSpec> read_job(int in_fd) {
  FrameBuffer frames;
  std::uint8_t chunk[4096];
  for (;;) {
    auto frame = frames.next_frame();
    if (!frame) return frame.error();
    if (frame.value().has_value()) {
      auto message = decode_message(*frame.value());
      if (!message) return message.error();
      if (auto* job = std::get_if<JobSpec>(&message.value())) return std::move(*job);
      return util::make_error("shard.worker.protocol", "first frame is not a job");
    }
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::make_error("shard.worker.io", std::strerror(errno));
    }
    if (n == 0) {
      return util::make_error("shard.worker.protocol", "pipe closed before a job frame");
    }
    frames.feed(std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(n)));
  }
}

}  // namespace

util::Result<WorkerChaos> parse_worker_args(int argc, char** argv) {
  WorkerChaos chaos;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto uint_flag = [&](std::string_view prefix) -> std::optional<std::uint64_t> {
      if (!arg.starts_with(prefix)) return std::nullopt;
      return std::strtoull(std::string(arg.substr(prefix.size())).c_str(), nullptr, 10);
    };
    if (const auto n = uint_flag("--test-crash-after-cells=")) {
      chaos.crash_after_cells = *n;
    } else if (const auto n = uint_flag("--test-stall-after-cells=")) {
      chaos.stall_after_cells = *n;
    } else if (arg == "--test-corrupt-frame") {
      chaos.corrupt_frame = true;
    } else {
      return util::make_error("shard.worker.args",
                              "unknown argument '" + std::string(arg) + "'");
    }
  }
  return chaos;
}

int worker_main(int in_fd, int out_fd, const WorkerChaos& chaos) {
  // A dead coordinator must surface as EPIPE from write(), not SIGPIPE
  // death: the exit path stays typed either way.
  std::signal(SIGPIPE, SIG_IGN);

  auto job = read_job(in_fd);
  if (!job) {
    logger().error() << "job read failed: " << job.error().detail;
    return 4;
  }
  auto scenarios = resolve_scenario_set(job.value().scenario_set);
  if (!scenarios) {
    logger().error() << scenarios.error().detail;
    return 5;
  }
  // A checksummed frame is not a validated one: reject the campaign here,
  // typed, instead of letting a bad knob throw inside a pool task.
  const explore::CampaignOptions& campaign = job.value().campaign;
  if (const util::Status status = campaign.validate(); !status.ok()) {
    logger().error() << "job campaign rejected: " << status.error().to_string();
    return 6;
  }

  explore::MatrixOptions options = campaign.to_matrix_options();
  options.cell_subset.emplace(job.value().cells.begin(), job.value().cells.end());
  // Warm-start seeding crosses the process boundary with the job; the
  // vector must outlive run().
  const std::vector<std::uint64_t> unsat_seed = job.value().unsat_seed;
  if (!unsat_seed.empty()) options.unsat_seed = &unsat_seed;

  explore::ExplorePool pool(campaign.parallelism.workers);
  explore::ScenarioMatrix matrix(std::move(scenarios).take(), options);
  StreamObserver observer(out_fd, chaos);
  explore::RunControl control;
  control.observer = &observer;
  const explore::MatrixResult result = matrix.run(pool, control);
  if (observer.failed()) return 3;

  ShardDoneMsg done;
  done.shard_id = job.value().shard_id;
  done.cells_sent = observer.sent();
  done.unsat_keys = result.unsat_keys;
  util::Bytes frame;
  append_frame(frame, encode_shard_done(done));
  if (!write_all(out_fd, frame)) return 3;
  logger().info() << "shard " << done.shard_id << " done: " << done.cells_sent
                  << " cell(s), " << result.faults.size() << " fault(s)";
  return 0;
}

}  // namespace dice::shard
