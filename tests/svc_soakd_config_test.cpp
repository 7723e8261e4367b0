// dice_soakd's config parser: a malformed value exits 1 with
// "dice_soakd: <path>:<line>: bad value '<v>' for <key>" before anything is
// built, and the --example-config template parses and runs. Spawns the
// real daemon binary (DICE_SOAKD_PATH, set by CMake).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

namespace {

namespace fs = std::filesystem;

struct DaemonRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

[[nodiscard]] DaemonRun run_daemon(const std::string& args) {
  DaemonRun run;
  const std::string command = std::string(DICE_SOAKD_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) run.output += buffer;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

class SoakdConfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dice_soakd_config_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes a config whose first line is `first_line`. The lines after it
  /// bound the run (one round, one worker, files in the temp dir), so a
  /// value the parser wrongly accepted still ends promptly.
  [[nodiscard]] std::string write_config(const std::string& first_line) const {
    const fs::path path = dir_ / "soak.conf";
    std::ofstream out(path);
    out << first_line << "\n" << bounded_tail();
    return path.string();
  }

  [[nodiscard]] std::string bounded_tail() const {
    return "max_rounds = 1\n"
           "round_interval_ms = 0\n"
           "workers = 1\n"
           "episodes_per_cell = 1\n"
           "store = " + (dir_ / "soak.dsvc").string() + "\n" +
           "report = " + (dir_ / "report.json").string() + "\n" +
           "metrics = " + (dir_ / "metrics.prom").string() + "\n";
  }

  fs::path dir_;
};

TEST_F(SoakdConfigTest, MalformedValuesExitOneNamingTheLine) {
  const std::pair<std::string, std::string> cases[] = {
      // A prefix parse would read these as: 0 (run until signalled),
      // seeds {1, 0}, false, 2, and 2^64-1 workers.
      {"max_rounds", "two"},
      {"seeds", "1,x"},
      {"warm_start", "yes"},
      {"episodes_per_cell", "2.5"},
      {"workers", "-1"},
      {"round_interval_ms", "-5"},
      {"inputs_per_episode", "+4"},
      {"bootstrap_events", ""},
  };
  for (const auto& [key, value] : cases) {
    const std::string path = write_config(key + " = " + value);
    const DaemonRun run = run_daemon(path);
    EXPECT_EQ(run.exit_code, 1) << key << " = " << value << "\n" << run.output;
    EXPECT_EQ(run.output,
              "dice_soakd: " + path + ":1: bad value '" + value + "' for " + key + "\n")
        << key << " = " << value;
  }
}

TEST_F(SoakdConfigTest, WellFormedValuesAreAccepted) {
  const DaemonRun run = run_daemon(write_config("seeds = 3, 18446744073709551615"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("soak done: 1 round(s)"), std::string::npos) << run.output;
}

TEST_F(SoakdConfigTest, ExampleConfigParsesAndRuns) {
  // The CI smoke runs the template; every line of it must parse.
  const DaemonRun example = run_daemon("--example-config");
  ASSERT_EQ(example.exit_code, 0);
  const fs::path path = dir_ / "example.conf";
  {
    std::ofstream out(path);
    out << example.output << bounded_tail();
  }
  const DaemonRun run = run_daemon(path.string());
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("soak done: 1 round(s)"), std::string::npos) << run.output;
}

}  // namespace
