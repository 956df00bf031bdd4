// SageBench entry point. Usage:
//   sagebench --workload traverse|serve-hot|serve-cold --seed N --seconds S
//             --trace 0|1 [--workdir DIR] [--corrupt-digest]
// Prints notes, then one "metric <name> <value> <unit>" line per metric,
// then the result as one JSON line. Exits 1 when an output check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

using sagebench::Result;

void Usage() {
  std::fprintf(stderr,
               "usage: sagebench --workload traverse|serve-hot|serve-cold "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--corrupt-digest]\n");
  std::exit(2);
}

void PrintJsonMetrics(const std::vector<sagebench::Metric>& metrics) {
  bool first = true;
  for (const auto& m : metrics) {
    // JSON has no NaN or infinity; an undefined ratio is reported as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                first ? "" : ",", m.name.c_str(), v, m.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  sagebench::Settings settings;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      settings.workload = value();
    } else if (arg == "--seed") {
      settings.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      settings.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      settings.trace = value() == "1";
    } else if (arg == "--workdir") {
      settings.workdir = value();
    } else if (arg == "--corrupt-digest") {
      settings.corrupt_digest = true;
    } else {
      Usage();
    }
  }
  if (!have_seconds || settings.seconds <= 0) Usage();

  Result result;
  try {
    if (settings.workload == "traverse") {
      result = sagebench::RunTraverse(settings);
    } else if (settings.workload == "serve-hot") {
      result = sagebench::RunServeHot(settings);
    } else if (settings.workload == "serve-cold") {
      result = sagebench::RunServeCold(settings);
    } else {
      Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sagebench: %s\n", e.what());
    return 3;
  }

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const auto* metrics : {&result.end_to_end, &result.per_layer}) {
    for (const auto& m : *metrics) {
      std::printf("metric %s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
      if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
      std::printf("\n");
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  PrintJsonMetrics(settings.trace ? result.per_layer : result.end_to_end);
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
