#include "exp/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "exp/batch_runner.hpp"

namespace rthv::exp {

namespace {

[[noreturn]] void usage_error(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N|auto] [--trace-out PATH] [--metrics-out PATH] "
               "[--fault-plan PATH] [--chunk N] [positional args...]\n",
               argv0);
  std::exit(2);
}

std::size_t require(std::optional<std::size_t> value, const char* argv0) {
  if (!value) usage_error(argv0);
  return *value;
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view value, std::uint64_t min,
                                        std::uint64_t max) {
  if (value.empty()) return std::nullopt;
  std::uint64_t n = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || n > (max - digit) / 10) return std::nullopt;  // n*10+digit > max
    n = n * 10 + digit;
  }
  if (n < min) return std::nullopt;
  return n;
}

std::optional<std::size_t> parse_count(std::string_view value) {
  return parse_uint(value, 1, std::numeric_limits<std::size_t>::max());
}

std::optional<std::size_t> parse_jobs(std::string_view value) {
  if (value == "auto") return hardware_jobs();
  return parse_count(value);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs") {
      if (i + 1 >= argc) usage_error(argv[0]);
      options.jobs = require(parse_jobs(argv[++i]), argv[0]);
    } else if (arg.starts_with("--jobs=")) {
      options.jobs = require(parse_jobs(arg.substr(7)), argv[0]);
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) usage_error(argv[0]);
      options.trace_out = argv[++i];
    } else if (arg.starts_with("--trace-out=")) {
      options.trace_out = arg.substr(12);
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) usage_error(argv[0]);
      options.metrics_out = argv[++i];
    } else if (arg.starts_with("--metrics-out=")) {
      options.metrics_out = arg.substr(14);
    } else if (arg == "--fault-plan") {
      if (i + 1 >= argc) usage_error(argv[0]);
      options.fault_plan = argv[++i];
    } else if (arg.starts_with("--fault-plan=")) {
      options.fault_plan = arg.substr(13);
    } else if (arg == "--chunk") {
      if (i + 1 >= argc) usage_error(argv[0]);
      options.chunk = require(parse_count(argv[++i]), argv[0]);
    } else if (arg.starts_with("--chunk=")) {
      options.chunk = require(parse_count(arg.substr(8)), argv[0]);
    } else {
      options.positional.emplace_back(arg);
    }
  }
  return options;
}

}  // namespace rthv::exp
