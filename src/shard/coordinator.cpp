#include "shard/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <unordered_set>

#include "explore/merge.hpp"
#include "shard/scenario_set.hpp"
#include "shard/wire.hpp"
#include "util/log.hpp"

namespace dice::shard {

namespace {

const util::Logger& logger() {
  static util::Logger instance("shard.coord");
  return instance;
}

using Clock = std::chrono::steady_clock;

/// One live worker process: the pipe end we read, its reassembly buffer,
/// and the attempt's BUFFERED results (committed only on a valid done).
struct WorkerProc {
  pid_t pid = -1;
  int out_fd = -1;
  FrameBuffer frames;
  std::vector<CellResultMsg> pending;
  std::unordered_set<std::uint64_t> seen;  ///< duplicate-index guard
  Clock::time_point last_activity;
};

struct Shard {
  std::size_t id = 0;
  std::vector<std::uint64_t> cells;
  std::unordered_set<std::uint64_t> assigned;
  std::size_t attempt = 0;
  bool live = false;      ///< a worker process is currently running it
  bool resolved = false;  ///< committed or lost
  WorkerProc proc;
  util::Bytes job_frame;  ///< prebuilt kJob frame (identical every attempt)
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Reaps `pid` (blocking) and renders its status for failure details.
[[nodiscard]] std::string reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

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

}  // namespace

util::Status ShardOptions::validate() const {
  if (processes == 0) {
    return util::make_error("shard.options.processes", "processes must be >= 1");
  }
  if (worker_path.empty()) {
    return util::make_error("shard.options.worker_path", "worker_path is empty");
  }
  if (auto scenarios = resolve_scenario_set(scenario_set); !scenarios) {
    return util::make_error("shard.options.scenario_set", scenarios.error().detail);
  }
  return util::Status::success();
}

ShardCoordinator::ShardCoordinator(explore::CampaignOptions campaign, ShardOptions options)
    : campaign_(std::move(campaign)), options_(std::move(options)) {}

util::Result<ShardRunResult> ShardCoordinator::run(
    explore::CampaignObserver* observer, const std::vector<std::uint64_t>* unsat_seed) {
  if (auto status = options_.validate(); !status.ok()) return status.error();
  if (auto status = campaign_.validate(); !status.ok()) return status.error();
  // A worker that died between poll() and our write must surface as EPIPE,
  // not SIGPIPE death of the coordinator.
  std::signal(SIGPIPE, SIG_IGN);

  auto scenarios = resolve_scenario_set(options_.scenario_set);
  if (!scenarios) return scenarios.error();
  const explore::MatrixOptions matrix_options = campaign_.to_matrix_options();
  const std::vector<explore::CellIdentity> cells =
      explore::enumerate_cells(scenarios.value().size(), matrix_options);

  ShardRunResult out;
  out.matrix.cells.resize(cells.size());
  // Identity prefill, exactly like the in-process matrix: lost cells must
  // still describe themselves in the partial result and observer stream.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.matrix.cells[i].scenario = scenarios.value()[cells[i].scenario].name;
    out.matrix.cells[i].strategy = cells[i].strategy;
    out.matrix.cells[i].seed = cells[i].seed;
    out.matrix.cells[i].implementation =
        matrix_options.implementations[cells[i].impl_pos];
  }

  explore::CellMerger::Options merge_options;
  merge_options.observer = observer;
  merge_options.progress_every_cells = campaign_.telemetry.progress_every_cells;
  explore::CellMerger merger(&out.matrix.cells, merge_options);

  // The deal: cell i -> shard i % processes. Deterministic, and it spreads
  // scenarios/bootstrap keys across workers the way the in-process
  // interleave spreads them across threads. Empty shards (more processes
  // than cells) resolve immediately without a spawn.
  std::vector<Shard> shards(options_.processes);
  for (std::size_t s = 0; s < shards.size(); ++s) shards[s].id = s;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    shards[i % shards.size()].cells.push_back(i);
  }
  std::size_t unresolved = 0;
  for (Shard& shard : shards) {
    shard.assigned.insert(shard.cells.begin(), shard.cells.end());
    JobSpec job;
    job.shard_id = shard.id;
    job.scenario_set = options_.scenario_set;
    job.campaign = campaign_;
    job.cells = shard.cells;
    if (unsat_seed != nullptr) job.unsat_seed = *unsat_seed;
    append_frame(shard.job_frame, encode_job(job));
    if (shard.cells.empty()) {
      shard.resolved = true;
    } else {
      ++unresolved;
    }
  }
  out.shards = unresolved;

  std::vector<std::uint64_t> unsat_union;
  if (unsat_seed != nullptr) {
    unsat_union.insert(unsat_union.end(), unsat_seed->begin(), unsat_seed->end());
  }

  // --- spawn ---------------------------------------------------------------
  const auto spawn = [&](Shard& shard) -> util::Status {
    int in_pipe[2];   // coordinator writes job -> worker stdin
    int out_pipe[2];  // worker stdout -> coordinator reads frames
    if (::pipe(in_pipe) != 0) {
      return util::make_error("shard.spawn.pipe", std::strerror(errno));
    }
    if (::pipe(out_pipe) != 0) {
      const int saved = errno;
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      return util::make_error("shard.spawn.pipe", std::strerror(saved));
    }
    std::vector<std::string> args;
    args.push_back(options_.worker_path);
    if (shard.attempt == 0) {
      // The chaos seam applies to the FIRST spawn only: a re-deal runs a
      // clean worker, so injected failures recover through the real path.
      args.insert(args.end(), options_.first_attempt_args.begin(),
                  options_.first_attempt_args.end());
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int saved = errno;
      for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) ::close(fd);
      return util::make_error("shard.spawn.fork", std::strerror(saved));
    }
    if (pid == 0) {
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) ::close(fd);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    // The job is small and the worker's first act is reading it; a worker
    // that dies first turns this into EPIPE, which the event loop observes
    // as EOF-before-done (a failed attempt).
    (void)write_all(in_pipe[1], shard.job_frame);
    ::close(in_pipe[1]);
    ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);
    shard.proc = WorkerProc{};
    shard.proc.pid = pid;
    shard.proc.out_fd = out_pipe[0];
    shard.proc.last_activity = Clock::now();
    shard.live = true;
    ++out.workers_spawned;
    return util::Status::success();
  };

  // --- attempt teardown ----------------------------------------------------
  // Rolls the attempt back (buffered results discarded), records the typed
  // failure, and either re-deals to a fresh worker or declares the loss.
  const auto fail_attempt = [&](Shard& shard, const std::string& code,
                                const std::string& detail, bool kill_first) {
    if (kill_first && shard.proc.pid > 0) ::kill(shard.proc.pid, SIGKILL);
    std::string exit_detail;
    if (shard.proc.pid > 0) exit_detail = reap(shard.proc.pid);
    close_fd(shard.proc.out_fd);
    shard.live = false;
    const std::string full_detail =
        detail + (exit_detail.empty() ? "" : " (worker " + exit_detail + ")");
    out.failures.push_back(ShardAttemptFailure{shard.id, shard.attempt, code, full_detail});
    logger().warn() << "shard " << shard.id << " attempt " << shard.attempt
                    << " failed [" << code << "]: " << full_detail;
    if (shard.attempt < options_.max_redeals) {
      ++shard.attempt;
      ++out.redeals;
      if (auto status = spawn(shard); !status.ok()) {
        // Could not even respawn (fd/process exhaustion): the shard is
        // lost with the spawn error, not crashed on.
        ShardLoss loss;
        loss.shard = shard.id;
        loss.cells.assign(shard.cells.begin(), shard.cells.end());
        loss.code = status.error().code;
        loss.detail = status.error().detail;
        out.losses.push_back(std::move(loss));
        shard.resolved = true;
        --unresolved;
      }
      return;
    }
    ShardLoss loss;
    loss.shard = shard.id;
    loss.cells.assign(shard.cells.begin(), shard.cells.end());
    loss.code = code;
    loss.detail = full_detail;
    out.losses.push_back(std::move(loss));
    shard.resolved = true;
    --unresolved;
  };

  // --- commit --------------------------------------------------------------
  const auto commit = [&](Shard& shard, const ShardDoneMsg& done) -> bool {
    if (done.shard_id != shard.id || done.cells_sent != shard.proc.pending.size() ||
        shard.proc.pending.size() != shard.cells.size()) {
      return false;  // short or mislabeled shard: caller fails the attempt
    }
    for (CellResultMsg& message : shard.proc.pending) {
      const std::size_t index = static_cast<std::size_t>(message.index);
      out.matrix.cells[index] = std::move(message.result);
      merger.record_faults(index, message.faults);
      merger.finish_cell(index);
    }
    unsat_union.insert(unsat_union.end(), done.unsat_keys.begin(),
                       done.unsat_keys.end());
    close_fd(shard.proc.out_fd);
    (void)reap(shard.proc.pid);  // worker exits right after its receipt
    shard.live = false;
    shard.resolved = true;
    --unresolved;
    return true;
  };

  // Drains complete frames from a shard's buffer. Returns false when the
  // attempt failed (the shard was torn down inside).
  const auto drain_frames = [&](Shard& shard) -> bool {
    for (;;) {
      auto frame = shard.proc.frames.next_frame();
      if (!frame) {
        fail_attempt(shard, frame.error().code, frame.error().detail, /*kill_first=*/true);
        return false;
      }
      if (!frame.value().has_value()) return true;
      auto message = decode_message(*frame.value());
      if (!message) {
        fail_attempt(shard, message.error().code, message.error().detail,
                     /*kill_first=*/true);
        return false;
      }
      if (auto* cell = std::get_if<CellResultMsg>(&message.value())) {
        if (!shard.assigned.contains(cell->index) ||
            !shard.proc.seen.insert(cell->index).second) {
          fail_attempt(shard, "shard.worker.protocol",
                       "unassigned or duplicate cell " + std::to_string(cell->index),
                       /*kill_first=*/true);
          return false;
        }
        shard.proc.pending.push_back(std::move(*cell));
        continue;
      }
      if (auto* done = std::get_if<ShardDoneMsg>(&message.value())) {
        if (!commit(shard, *done)) {
          fail_attempt(shard, "shard.worker.short",
                       "done receipt disagrees with the deal: sent=" +
                           std::to_string(done->cells_sent) + " buffered=" +
                           std::to_string(shard.proc.pending.size()) + " dealt=" +
                           std::to_string(shard.cells.size()),
                       /*kill_first=*/true);
          return false;
        }
        return true;
      }
      fail_attempt(shard, "shard.worker.protocol", "unexpected frame tag",
                   /*kill_first=*/true);
      return false;
    }
  };

  for (Shard& shard : shards) {
    if (shard.resolved) continue;
    if (auto status = spawn(shard); !status.ok()) return status.error();
  }

  // --- event loop ----------------------------------------------------------
  const auto inactivity = std::chrono::milliseconds(options_.inactivity_timeout_ms);
  std::vector<pollfd> fds;
  std::vector<Shard*> polled;
  while (unresolved > 0) {
    fds.clear();
    polled.clear();
    Clock::time_point next_deadline = Clock::time_point::max();
    for (Shard& shard : shards) {
      if (!shard.live) continue;
      fds.push_back(pollfd{shard.proc.out_fd, POLLIN, 0});
      polled.push_back(&shard);
      next_deadline = std::min(next_deadline, shard.proc.last_activity + inactivity);
    }
    if (fds.empty()) break;  // defensive: all live shards torn down above
    const auto now = Clock::now();
    const int timeout_ms =
        next_deadline <= now
            ? 0
            : static_cast<int>(std::min<std::int64_t>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(next_deadline -
                                                                        now)
                          .count() +
                      1,
                  60'000));
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      return util::make_error("shard.spawn.poll", std::strerror(errno));
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Shard& shard = *polled[i];
      if (!shard.live) continue;  // torn down earlier this sweep
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool eof = false;
      for (;;) {
        std::uint8_t chunk[16384];
        const ssize_t n = ::read(shard.proc.out_fd, chunk, sizeof(chunk));
        if (n > 0) {
          shard.proc.last_activity = Clock::now();
          shard.proc.frames.feed(
              std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(n)));
          continue;
        }
        if (n == 0) {
          eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        eof = true;  // unreadable pipe == connection gone
        break;
      }
      if (!drain_frames(shard)) continue;
      if (shard.live && eof) {
        // EOF before a committed done: the worker crashed (or exited
        // without its receipt). reap() inside fail_attempt records how.
        fail_attempt(shard, "shard.worker.crash", "pipe closed before shard done",
                     /*kill_first=*/false);
      }
    }
    const auto deadline_now = Clock::now();
    for (Shard& shard : shards) {
      if (!shard.live) continue;
      if (deadline_now - shard.proc.last_activity >= inactivity) {
        fail_attempt(shard, "shard.worker.stall",
                     "no frames for " + std::to_string(options_.inactivity_timeout_ms) +
                         "ms",
                     /*kill_first=*/true);
      }
    }
  }

  // Lost shards' cells flush as skipped: the observer stream covers every
  // cell exactly once and the partial result is well-formed, never short.
  merger.finish_remaining();
  out.matrix.faults = merger.canonical_faults();
  std::sort(unsat_union.begin(), unsat_union.end());
  unsat_union.erase(std::unique(unsat_union.begin(), unsat_union.end()),
                    unsat_union.end());
  out.matrix.unsat_keys = std::move(unsat_union);
  for (const explore::CellResult& cell : out.matrix.cells) {
    if (cell.completed) ++out.matrix.cells_completed;
  }
  out.matrix.stopped = out.matrix.cells_completed != out.matrix.cells.size();
  logger().info() << "merged " << out.matrix.cells_completed << "/"
                  << out.matrix.cells.size() << " cell(s) from " << out.shards
                  << " shard(s), " << out.redeals << " redeal(s), " << out.losses.size()
                  << " loss(es)";
  return out;
}

}  // namespace dice::shard
