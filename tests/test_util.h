#pragma once

/// \file test_util.h
/// A scratch directory per test. gtest_discover_tests runs every TEST as its
/// own process and `ctest -j` runs those processes side by side, so a file
/// path that two tests share is a race between them (two fixtures writing
/// one WAL file, say). TestTempDir gives the running test a directory of its
/// own, named after the process id and the test, and removes it with
/// everything in it on destruction. Declare it before anything that keeps
/// files open inside it (a Database with a WAL there, for instance), so it
/// outlives them.

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

#include "gtest/gtest.h"

namespace mb2 {

class TestTempDir {
 public:
  TestTempDir() {
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr
                           ? std::string("no_test")
                           : std::string(info->test_suite_name()) + "." +
                                 info->name();
    // Parameterized names carry '/'; keep the name one path component.
    for (char &c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' &&
          c != '-') {
        c = '_';
      }
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("mb2_" + std::to_string(getpid()) + "_" + name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TestTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  TestTempDir(const TestTempDir &) = delete;
  TestTempDir &operator=(const TestTempDir &) = delete;

  /// The directory itself.
  std::string dir() const { return dir_.string(); }
  /// `name` inside the directory (not created).
  std::string Path(const std::string &name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace mb2
