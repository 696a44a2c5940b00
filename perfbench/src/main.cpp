// zipflm_perfbench — the repository benchmark's binary.
//
//   zipflm_perfbench --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] [--trace-out <file>]
//                    [--smoke] [--adam-lr <rate>]
//
// Runs one workload, checks its outputs, and prints the host
// fingerprint, free-form notes, and as its last line
//
//   PERFBENCH {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//
// perfbench/run.py turns that line into the benchmark's result record.
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on bad arguments.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/tensor/simd.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "zipflm_perfbench: %s\n"
               "usage: zipflm_perfbench --workload <name> --seed <n> "
               "--seconds <s> [--trace 0|1] [--trace-out <file>] [--smoke] "
               "[--adam-lr <rate>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else if (flag == "--adam-lr") {
      args.adam_lr = std::strtod(value, &end);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) == 0 ||
      regs[0] < 0x80000004u) {
    return "unknown";
  }
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    unsigned* r = regs + 4 * leaf;
    __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

/// The instruction set the kernels actually dispatch to.
std::string isa() {
  if (zipflm::simd::active_backend() == zipflm::simd::Backend::kScalar) {
    return "scalar";
  }
  std::string name = zipflm::simd::native_isa();
#if defined(__F16C__)
  name += "+f16c";
#endif
  return name;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_result(const Result& r) {
  std::string line = "PERFBENCH {\"correct\":";
  line += r.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(r.attempted);
  line += ",\"failed\":" + std::to_string(r.failed);
  line += ",\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : r.metrics) {
    // JSON has no NaN or infinity; a non-finite metric reads as null
    // and fails the run downstream.
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    if (!first) line += ',';
    first = false;
    line += json_string(name);
    line += ':';
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // A traced pass emits more spans per lane than the default ring keeps
  // (pool chunks, every serve step); rings allocate on a lane's first
  // span, so an untraced run pays nothing for this.
  zipflm::obs::trace_set_buffer_capacity(std::size_t{1} << 17);
  std::printf(
      "FINGERPRINT {\"cores\":%u,\"cpu\":%s,\"isa\":%s,\"build_type\":%s,"
      "\"compiler\":%s}\n",
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      json_string(isa()).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(compiler()).c_str());

  Result result;
  try {
    if (args.workload.rfind("train_", 0) == 0) {
      result = run_train(args);
    } else if (args.workload.rfind("serve_", 0) == 0) {
      result = run_serve(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zipflm_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
