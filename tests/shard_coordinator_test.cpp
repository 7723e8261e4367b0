// ShardCoordinator receipts: the cross-process determinism guarantee and
// the failure semantics, driven against the REAL dice_shard_worker binary
// (DICE_SHARD_WORKER_PATH, injected by the build).
//
// 1. Differential receipt — the sharded topology27 campaign's fault-set
//    hash is byte-identical to the single-process 63f680b04458c2a9 at
//    1/2/4 worker processes, nested scheduling on and off; a
//    multi-cell smoke campaign merges byte-identical to an in-process
//    explore::Campaign run, faults and observer stream included.
// 2. A campaign that fails CampaignOptions::validate() is refused typed on
//    both sides: by ShardCoordinator::run() before any spawn, and by a
//    worker handed such a job in a well-formed, checksummed frame.
// 3. Fault injection through the worker chaos seam — a worker killed
//    mid-shard, stalled past the inactivity deadline, or returning a
//    corrupt frame is re-dealt and converges to the identical hash; with
//    retries exhausted the shard becomes a TYPED loss and a well-formed
//    partial result. Never a coordinator crash, never a silently short
//    merge.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <vector>

#include "explore/campaign.hpp"
#include "shard/coordinator.hpp"
#include "shard/scenario_set.hpp"
#include "shard/wire.hpp"
#include "svc/soak_service.hpp"

namespace dice::shard {
namespace {

constexpr std::uint64_t kReceiptHash = 0x63f680b04458c2a9ull;

[[nodiscard]] std::string worker_path() { return DICE_SHARD_WORKER_PATH; }

/// The pinned receipt campaign (svc_soak_test's): one topology27 cell.
[[nodiscard]] explore::CampaignOptions receipt_campaign(bool nested) {
  auto built = explore::CampaignOptions::builder()
                   .strategies({explore::StrategyKind::kGrammar})
                   .seeds({1})
                   .episodes_per_cell(2)
                   .inputs_per_episode(32)
                   .bootstrap_events(2'000'000)
                   .strategy_seed(0xf1f1)
                   .parallelism(2)
                   .nested(nested)
                   .build();
  EXPECT_TRUE(built.ok());
  return std::move(built).take();
}

/// A fast multi-cell campaign over the "smoke" set: 2 scenarios x 2
/// strategies x 2 seeds = 8 cells.
[[nodiscard]] explore::CampaignOptions smoke_campaign() {
  auto built = explore::CampaignOptions::builder()
                   .strategies({explore::StrategyKind::kGrammar,
                                explore::StrategyKind::kRandom})
                   .seeds({1, 2})
                   .episodes_per_cell(1)
                   .inputs_per_episode(8)
                   .bootstrap_events(100'000)
                   .parallelism(2)
                   .build();
  EXPECT_TRUE(built.ok());
  return std::move(built).take();
}

[[nodiscard]] ShardOptions shard_options(std::size_t processes, std::string scenario_set) {
  ShardOptions options;
  options.processes = processes;
  options.worker_path = worker_path();
  options.scenario_set = std::move(scenario_set);
  return options;
}

/// Records the canonical observer stream compactly for stream equality.
class StreamRecorder final : public explore::CampaignObserver {
 public:
  void on_cell_start(const explore::CellDescriptor& cell) override {
    log_.push_back("start:" + std::to_string(cell.index));
  }
  void on_fault(const explore::CellDescriptor& cell,
                const core::FaultReport& fault) override {
    log_.push_back("fault:" + std::to_string(cell.index) + ":" + fault.to_string());
  }
  void on_cell_done(const explore::CellDescriptor& cell,
                    const explore::CellResult& result) override {
    log_.push_back("done:" + std::to_string(cell.index) + ":" +
                   (result.completed ? "c" : "-") + (result.started ? "s" : "-"));
  }
  [[nodiscard]] const std::vector<std::string>& log() const noexcept { return log_; }

 private:
  std::vector<std::string> log_;
};

TEST(ShardCoordinator, OptionsValidate) {
  ShardOptions options = shard_options(2, "smoke");
  EXPECT_TRUE(options.validate().ok());
  options.processes = 0;
  EXPECT_EQ(options.validate().error().code, "shard.options.processes");
  options = shard_options(2, "smoke");
  options.worker_path.clear();
  EXPECT_EQ(options.validate().error().code, "shard.options.worker_path");
  options = shard_options(2, "no-such-set");
  EXPECT_EQ(options.validate().error().code, "shard.options.scenario_set");
}

// The acceptance receipt: sharded topology27 == single-process
// 63f680b04458c2a9 at 1/2/4 worker processes, nested on and off.
TEST(ShardCoordinator, Topology27ReceiptHashAcrossProcessesAndNesting) {
  struct Case {
    std::size_t processes;
    bool nested;
  };
  const Case cases[] = {{1, true}, {2, true}, {4, true}, {2, false}};
  for (const Case& c : cases) {
    ShardCoordinator coordinator(receipt_campaign(c.nested),
                                 shard_options(c.processes, "topology27"));
    auto result = coordinator.run();
    ASSERT_TRUE(result.ok()) << result.error().detail;
    EXPECT_TRUE(result.value().complete());
    EXPECT_TRUE(result.value().failures.empty());
    EXPECT_EQ(result.value().matrix.cells_completed, 1u);
    EXPECT_EQ(svc::fault_set_hash(result.value().matrix.faults), kReceiptHash)
        << "processes=" << c.processes << " nested=" << c.nested;
  }
}

/// Options no builder would produce: an implementation-axis id no engine
/// registered. Constructing a System for it throws.
[[nodiscard]] explore::CampaignOptions unknown_engine_campaign() {
  explore::CampaignOptions options = smoke_campaign();
  options.determinism.implementations = {"nope"};
  return options;
}

TEST(ShardCoordinator, InvalidCampaignIsRefusedBeforeAnySpawn) {
  ShardCoordinator coordinator(unknown_engine_campaign(), shard_options(2, "smoke"));
  auto result = coordinator.run();
  ASSERT_FALSE(result.ok()) << "an invalid campaign reached the workers";
  EXPECT_EQ(result.error().code, "campaign.options.unknown_implementation");
}

// A hostile but checksummed job: the worker must exit with its typed
// status and log the campaign.options code, not abort on a throw from a
// pool task.
TEST(ShardWorker, InvalidCampaignJobExitsTypedAndLogged) {
  JobSpec job;
  job.scenario_set = "smoke";
  job.campaign = unknown_engine_campaign();
  job.cells = {0};
  util::Bytes frame;
  append_frame(frame, encode_job(job));

  const std::string path = worker_path();
  int in_pipe[2];
  int err_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(err_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    for (const int fd : {in_pipe[0], in_pipe[1], err_pipe[0], err_pipe[1], null_fd}) {
      ::close(fd);
    }
    ::execl(path.c_str(), path.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(in_pipe[0]);
  ::close(err_pipe[1]);
  EXPECT_EQ(::write(in_pipe[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  ::close(in_pipe[1]);
  std::string log;
  char chunk[512];
  for (ssize_t n; (n = ::read(err_pipe[0], chunk, sizeof(chunk))) != 0;) {
    if (n > 0) log.append(chunk, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  ::close(err_pipe[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ASSERT_TRUE(WIFEXITED(status)) << "worker died on a signal; stderr:\n" << log;
  EXPECT_EQ(WEXITSTATUS(status), 6) << log;
  EXPECT_NE(log.find("campaign.options.unknown_implementation"), std::string::npos) << log;
}

// Multi-cell differential: the sharded merge reproduces the in-process
// campaign byte for byte — merged fault list, per-cell results, and the
// canonical observer stream — at 1, 2 and 4 processes.
TEST(ShardCoordinator, SmokeCampaignMatchesInProcessByteForByte) {
  auto scenarios = resolve_scenario_set("smoke");
  ASSERT_TRUE(scenarios.ok());
  explore::Campaign campaign(std::move(scenarios).take(), smoke_campaign());
  StreamRecorder in_process_stream;
  const explore::CampaignResult in_process = campaign.run(&in_process_stream);
  ASSERT_EQ(in_process.cells_completed, in_process.cells.size());
  const std::uint64_t expected_hash = svc::fault_set_hash(in_process.faults);

  for (const std::size_t processes : {1u, 2u, 4u}) {
    ShardCoordinator coordinator(smoke_campaign(), shard_options(processes, "smoke"));
    StreamRecorder sharded_stream;
    auto sharded = coordinator.run(&sharded_stream);
    ASSERT_TRUE(sharded.ok()) << sharded.error().detail;
    EXPECT_TRUE(sharded.value().complete());
    EXPECT_EQ(sharded.value().matrix.cells_completed, in_process.cells_completed);
    EXPECT_EQ(svc::fault_set_hash(sharded.value().matrix.faults), expected_hash)
        << "processes=" << processes;
    ASSERT_EQ(sharded.value().matrix.faults.size(), in_process.faults.size());
    for (std::size_t i = 0; i < in_process.faults.size(); ++i) {
      EXPECT_EQ(sharded.value().matrix.faults[i].to_string(),
                in_process.faults[i].to_string());
    }
    // Per-cell scalar receipts travel intact.
    ASSERT_EQ(sharded.value().matrix.cells.size(), in_process.cells.size());
    for (std::size_t i = 0; i < in_process.cells.size(); ++i) {
      EXPECT_EQ(sharded.value().matrix.cells[i].faults, in_process.cells[i].faults) << i;
      EXPECT_EQ(sharded.value().matrix.cells[i].clones_run,
                in_process.cells[i].clones_run)
          << i;
      EXPECT_TRUE(sharded.value().matrix.cells[i].completed) << i;
    }
    // The canonical observer stream is worker-process-count-invariant.
    EXPECT_EQ(sharded_stream.log(), in_process_stream.log()) << "processes=" << processes;
    // Worker unsat keys merged (the warm-start path crosses back).
    EXPECT_EQ(sharded.value().matrix.unsat_keys, in_process.unsat_keys);
  }
}

// --- fault injection through the worker chaos seam -------------------------

[[nodiscard]] ShardOptions chaos_options(std::vector<std::string> first_attempt_args,
                                         std::uint64_t inactivity_ms = 60'000) {
  ShardOptions options = shard_options(2, "smoke");
  options.first_attempt_args = std::move(first_attempt_args);
  options.inactivity_timeout_ms = inactivity_ms;
  return options;
}

void expect_identical_after_redeal(const ShardRunResult& result,
                                   const std::string& expected_code) {
  EXPECT_TRUE(result.complete());
  EXPECT_GE(result.redeals, 1u);
  ASSERT_FALSE(result.failures.empty());
  for (const ShardAttemptFailure& failure : result.failures) {
    EXPECT_EQ(failure.code, expected_code) << failure.detail;
    EXPECT_EQ(failure.attempt, 0u) << "chaos must only hit first attempts";
  }
  EXPECT_EQ(result.matrix.cells_completed, result.matrix.cells.size());
}

TEST(ShardCoordinator, WorkerCrashMidShardIsRedealtToIdenticalHash) {
  ShardCoordinator baseline(smoke_campaign(), shard_options(2, "smoke"));
  auto clean = baseline.run();
  ASSERT_TRUE(clean.ok());
  const std::uint64_t expected = svc::fault_set_hash(clean.value().matrix.faults);

  ShardCoordinator coordinator(smoke_campaign(),
                               chaos_options({"--test-crash-after-cells=1"}));
  auto result = coordinator.run();
  ASSERT_TRUE(result.ok()) << result.error().detail;
  expect_identical_after_redeal(result.value(), "shard.worker.crash");
  EXPECT_EQ(svc::fault_set_hash(result.value().matrix.faults), expected);
}

TEST(ShardCoordinator, WorkerStallPastDeadlineIsKilledAndRedealt) {
  ShardCoordinator baseline(smoke_campaign(), shard_options(2, "smoke"));
  auto clean = baseline.run();
  ASSERT_TRUE(clean.ok());
  const std::uint64_t expected = svc::fault_set_hash(clean.value().matrix.faults);

  // The deadline must be generous enough that a HEALTHY re-dealt worker
  // never trips it on slow (sanitizer-instrumented) builds — the stalled
  // worker sends nothing forever, so detection stays deterministic and
  // only the wait gets longer.
  ShardCoordinator coordinator(
      smoke_campaign(),
      chaos_options({"--test-stall-after-cells=1"}, /*inactivity_ms=*/10'000));
  auto result = coordinator.run();
  ASSERT_TRUE(result.ok()) << result.error().detail;
  expect_identical_after_redeal(result.value(), "shard.worker.stall");
  EXPECT_EQ(svc::fault_set_hash(result.value().matrix.faults), expected);
}

TEST(ShardCoordinator, CorruptFrameFailsChecksumAndIsRedealt) {
  ShardCoordinator baseline(smoke_campaign(), shard_options(2, "smoke"));
  auto clean = baseline.run();
  ASSERT_TRUE(clean.ok());
  const std::uint64_t expected = svc::fault_set_hash(clean.value().matrix.faults);

  ShardCoordinator coordinator(smoke_campaign(),
                               chaos_options({"--test-corrupt-frame"}));
  auto result = coordinator.run();
  ASSERT_TRUE(result.ok()) << result.error().detail;
  expect_identical_after_redeal(result.value(), "shard.wire.checksum");
  EXPECT_EQ(svc::fault_set_hash(result.value().matrix.faults), expected);
}

// Retries exhausted: a typed loss and a well-formed partial result —
// never a coordinator crash, never a silently short merge.
TEST(ShardCoordinator, ExhaustedRetriesBecomeTypedLoss) {
  ShardOptions options = chaos_options({"--test-crash-after-cells=1"});
  options.max_redeals = 0;  // the chaotic first attempt is the only attempt
  ShardCoordinator coordinator(smoke_campaign(), options);
  StreamRecorder stream;
  auto result = coordinator.run(&stream);
  ASSERT_TRUE(result.ok()) << result.error().detail;
  EXPECT_FALSE(result.value().complete());
  ASSERT_EQ(result.value().losses.size(), 2u);  // both shards crashed
  std::size_t lost_cells = 0;
  for (const ShardLoss& loss : result.value().losses) {
    EXPECT_EQ(loss.code, "shard.worker.crash");
    EXPECT_FALSE(loss.cells.empty());
    lost_cells += loss.cells.size();
  }
  EXPECT_EQ(lost_cells, result.value().matrix.cells.size());
  // The merge is well-formed-partial: every cell present, flushed as
  // skipped, zero faults committed from rolled-back attempts.
  EXPECT_EQ(result.value().matrix.cells_completed, 0u);
  EXPECT_TRUE(result.value().matrix.stopped);
  EXPECT_TRUE(result.value().matrix.faults.empty());
  for (const explore::CellResult& cell : result.value().matrix.cells) {
    EXPECT_FALSE(cell.started);
    EXPECT_FALSE(cell.scenario.empty());  // identity prefill survives loss
  }
  // The observer stream still covers every cell exactly once.
  std::size_t done_events = 0;
  for (const std::string& event : stream.log()) {
    if (event.starts_with("done:")) ++done_events;
  }
  EXPECT_EQ(done_events, result.value().matrix.cells.size());
}

// A worker binary that cannot exec (exit 127 on spawn) is a typed loss
// after retries, not a coordinator error or crash.
TEST(ShardCoordinator, UnexecutableWorkerIsTypedLoss) {
  ShardOptions options = shard_options(1, "smoke");
  options.worker_path = "/nonexistent/dice_shard_worker";
  options.max_redeals = 1;
  ShardCoordinator coordinator(smoke_campaign(), options);
  auto result = coordinator.run();
  ASSERT_TRUE(result.ok()) << result.error().detail;
  EXPECT_FALSE(result.value().complete());
  ASSERT_EQ(result.value().losses.size(), 1u);
  EXPECT_EQ(result.value().losses[0].code, "shard.worker.crash");
  EXPECT_NE(result.value().losses[0].detail.find("exit 127"), std::string::npos)
      << result.value().losses[0].detail;
  EXPECT_EQ(result.value().failures.size(), 2u);  // first attempt + one redeal
}

}  // namespace
}  // namespace dice::shard
