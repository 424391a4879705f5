// A temporary directory private to one test process. Suites that write files
// (model checkpoints, vocabularies, reload donors) name them through
// TempPath, so two processes running the same suite at once (a parallel
// ctest, two build trees, a before/after benchmark pair) never share a
// path and never delete each other's files.
#ifndef PREQR_TESTS_TEST_TEMP_DIR_H_
#define PREQR_TESTS_TEST_TEMP_DIR_H_

#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace preqr::test {

// Made with mkdtemp under testing::TempDir() on first use, and removed with
// whatever is left in it when the process exits.
inline const std::string& ProcessTempDir() {
  struct Dir {
    std::string path;
    pid_t owner = getpid();
    Dir() {
      std::string tmpl = testing::TempDir();
      if (tmpl.empty() || tmpl.back() != '/') tmpl += '/';
      tmpl += "preqr_test_XXXXXX";
      if (mkdtemp(tmpl.data()) == nullptr) {
        std::perror(("mkdtemp " + tmpl).c_str());
        std::abort();
      }
      path = tmpl;
    }
    // A forked child (a death test) exits without removing its parent's
    // directory.
    ~Dir() {
      if (getpid() != owner) return;
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

// `name` inside this process's directory.
inline std::string TempPath(const std::string& name) {
  return ProcessTempDir() + "/" + name;
}

}  // namespace preqr::test

#endif  // PREQR_TESTS_TEST_TEMP_DIR_H_
