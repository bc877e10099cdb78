// ulba_bench — the benchmark's own binary (see perfbench/README.md).
//
//   ulba_bench setup     <ulba_cli erosion flags>
//   ulba_bench trace     <ulba_cli erosion flags> [--spans FILE]
//   ulba_bench serve     <serve-mix flags> [--trace] [--spans FILE]
//   ulba_bench serve-reference <serve-mix flags>
//   ulba_bench build-info
//   ulba_bench exec --usage FILE -- PROGRAM ARGS...
//
// Every subcommand but `exec` prints one JSON object on one
// line. `exec` runs PROGRAM as a child, exits with its exit code, and writes
// the child's wall time, user+sys CPU time and peak RSS to FILE. Forking
// from this small process keeps the caller's memory out of the child's peak
// RSS (Linux carries the pre-exec image's high-water mark into ru_maxrss).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "subcommands.hpp"

namespace {

int exec_measured(int argc, char** argv) {
  if (argc < 6 || std::string(argv[2]) != "--usage" ||
      std::string(argv[4]) != "--") {
    std::cerr << "usage: ulba_bench exec --usage FILE -- PROGRAM ARGS...\n";
    return 2;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("ulba_bench exec: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[5], argv + 5);
    std::perror("ulba_bench exec: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("ulba_bench exec: wait4");
    return 2;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::ofstream out(argv[3]);
  out << std::setprecision(17) << "{\"wall_s\": " << wall
      << ", \"cpu_s\": " << seconds(usage.ru_utime) + seconds(usage.ru_stime)
      << ", \"maxrss_kb\": " << usage.ru_maxrss << ", \"code\": " << code
      << "}\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "exec")
    return exec_measured(argc, argv);
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "usage: ulba_bench <setup|trace|serve|"
                 "serve-reference|build-info|exec> [flags]\n";
    return 2;
  }
  const std::string command = args.front();
  args.erase(args.begin());
  std::string spans_path;
  bool trace = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--spans" && it + 1 != args.end()) {
      spans_path = *(it + 1);
      it = args.erase(it, it + 2);
    } else if (*it == "--trace") {
      trace = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  try {
    const ulba::cli::FlagMap flags(args, {});
    if (command == "setup") return perfbench::erosion_setup(flags, std::cout);
    if (command == "trace")
      return perfbench::erosion_trace(flags, spans_path, std::cout);
    if (command == "serve")
      return perfbench::serve_session(flags, trace, spans_path, std::cout);
    if (command == "serve-reference")
      return perfbench::serve_reference(flags, std::cout);
    if (command == "build-info") {
      std::cout << "{\"build_type\": \"" << ULBA_BENCH_BUILD_TYPE
                << "\", \"compiler\": \"" << ULBA_BENCH_COMPILER
                << "\", \"ndebug\": "
#ifdef NDEBUG
                << "true"
#else
                << "false"
#endif
                << "}\n";
      return 0;
    }
    std::cerr << "ulba_bench: unknown subcommand '" << command << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ulba_bench " << command << ": " << e.what() << "\n";
    return 3;
  }
}
