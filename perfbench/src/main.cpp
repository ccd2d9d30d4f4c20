// perfbench: one command, three seeded closed-loop workloads, every metric
// by name with its unit, and a correctness gate on the simulated outputs.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|small] [--expected FILE] [--spans FILE]
//             [--revision STR]
//
// A run sets up the workload several times, each in a fresh child process
// (setup_s is the median of these cold set-ups), runs one untimed warm-up
// pass, then timed passes until --seconds have gone by.  --trace 0 reports
// the end-to-end metrics; --trace 1 alternates untraced and traced passes
// and reports the per-layer metrics, writing the recorded spans to --spans.  The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  Any fingerprint
// mismatch or exception is a failed operation and the exit code is 1.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "support/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---- spans -------------------------------------------------------------------

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int Tracer::open(std::string name, int parent, double start) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lk(mu_);
  const int pass = parent >= 0 ? spans_[static_cast<std::size_t>(parent)].pass
                               : nextPass_++;
  spans_.push_back(SpanRecord{std::move(name), start, -1.0, parent, pass});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id, double end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

Span::Span(Tracer& tracer, std::string name, int parent)
    : tracer_(tracer), id_(-1), start_(tracer.now()) {
  id_ = tracer_.open(std::move(name), parent, start_);
}

double Span::stop() {
  if (seconds_ < 0) {
    const double end = tracer_.now();
    seconds_ = end - start_;
    tracer_.close(id_, end);
  }
  return seconds_;
}

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupSamples = 15;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},   {"events_per_s", "1/s"},
    {"scenario_p50_ms", "ms"}, {"scenario_p90_ms", "ms"},
};

const Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.peak_pending", "count"},
    {"sim.ns_per_event", "ns"},
    {"smpi.sends", "count"},
    {"smpi.collectives", "count"},
    {"smpi.bytes_sent", "B"},
    {"smpi.ctor_s", "s"},
    {"smpi.run_s", "s"},
    {"smpi.dtor_s", "s"},
    {"smpi.bytes_per_rank", "B"},
    {"net.route_cache_hits", "count"},
    {"net.route_cache_misses", "count"},
    {"net.route_cache_hit_rate", "ratio"},
    {"net.bytes_routed", "B"},
    {"net.link_claims", "count"},
    {"net.link_queued_s", "s"},
    {"core.scenarios", "count"},
    {"core.scenario_max_s", "s"},
    {"support.pool.threads", "count"},
    {"support.pool.busy_frac", "ratio"},
    {"obs.overhead_x", "ratio"},
    {"obs.truncated", "count"},
    {"obs.critical_path_segments", "count"},
    {"obs.export_s", "s"},
    {"obs.export_bytes", "B"},
    {"obs.selfcheck_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::Full;
  std::string expected;
  std::string spans;
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|small] "
               "[--expected FILE] [--spans FILE] [--revision STR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--size") {
        if (v != "full" && v != "small") usage("--size is full or small");
        o.size = v == "full" ? Size::Full : Size::Small;
      } else if (flag == "--expected") o.expected = v;
      else if (flag == "--spans") o.spans = v;
      else if (flag == "--revision") o.revision = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double maxRssKiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// Sets the scenario pool's size before anything creates it and returns
/// its executing threads: min(3, nproc) counting the calling thread,
/// which runs scenarios alongside the workers.  Three, not four, leave one
/// core free for the rest of the host.
unsigned configurePool() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned want = std::min(3u, hw);
  setenv("BGP_THREADS", std::to_string(want >= 3 ? want - 1 : 1).c_str(), 1);
  return want >= 3 ? want : 1;  // one worker: parallelFor runs inline
}

/// Executing threads of the started pool, as configurePool() counts them.
unsigned startedPoolThreads() {
  const unsigned workers = bgp::support::ThreadPool::global().threadCount();
  return workers >= 2 ? workers + 1 : 1;
}

/// One set-up in a forked child, so every sample starts cold: its pages
/// are faulted in afresh and no allocator holds memory an earlier set-up
/// freed.  Call it only while the process has one thread.
SetupSample coldSetup(Workload& workload) {
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("set-up: pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("set-up: fork failed");
  if (pid == 0) {
    close(fd[0]);
    SetupSample s{-1.0, -1.0};
    try {
      s = workload.setup();
    } catch (...) {
    }
    const bool sent = write(fd[1], &s, sizeof s) == sizeof s;
    _exit(sent ? 0 : 1);
  }
  close(fd[1]);
  SetupSample s{-1.0, -1.0};
  const ssize_t got = read(fd[0], &s, sizeof s);
  close(fd[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof s) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || s.ctor < 0)
    throw std::runtime_error("set-up failed in its child process");
  return s;
}

/// `q`-quantile by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Recorded fingerprints: lines of "<size> <workload> <fingerprint>".
std::string recordedFingerprint(const std::string& path, Size size,
                                const std::string& workload) {
  std::ifstream in(path);
  const std::string key =
      std::string(size == Size::Full ? "full" : "small") + " " + workload +
      " ";
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) return line.substr(key.size());
  return "";
}

std::string fullFingerprint(const PassResult& r) {
  return r.observed.empty() ? r.fingerprint
                            : r.fingerprint + " " + r.observed;
}

const char* modeName(PassMode m) {
  switch (m) {
    case PassMode::Plain: return "plain";
    case PassMode::Traced: return "traced";
    case PassMode::Unobserved: return "unobserved";
  }
  return "?";
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children can overlap: pool threads).
std::vector<double> selfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0.0, curB = 0.0, curE = -1.0;
    for (const auto& [b, e] : k) {
      if (b > curE) {
        if (curE > curB) covered += curE - curB;
        curB = b;
        curE = e;
      } else {
        curE = std::max(curE, e);
      }
    }
    if (curE > curB) covered += curE - curB;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

void writeSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::vector<double>& self) {
  std::ofstream out(path);
  out << "[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %d, \"pass\": %d, "
                  "\"self\": %.9f}%s\n",
                  i, s.name.c_str(), s.start, s.end, s.parent, s.pass,
                  self[i], i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Options& opt) {
  const unsigned pool = configurePool();
  auto workload = makeWorkload(opt.workload, opt.seed, opt.size, pool);
  if (!workload) usage("unknown workload " + opt.workload);

  // ---- set-up: several cold samples, median; before any thread starts -----
  std::vector<SetupSample> setups;
  std::vector<double> setupTimes;
  for (int i = 0; i < kSetupSamples; ++i) {
    setups.push_back(coldSetup(*workload));
    setupTimes.push_back(setups.back().ctor);
  }
  const double setupS = median(setupTimes);
  if (startedPoolThreads() != pool)
    throw std::runtime_error("scenario pool did not start with " +
                             std::to_string(pool) + " threads");

  std::printf("# perfbench workload=%s size=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), opt.size == Size::Full ? "full" : "small",
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("# host nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
              "pool_threads=%u seed=%llu revision=%s\n",
              std::thread::hardware_concurrency(), cpuModel().c_str(),
#if defined(__clang__)
              "clang " __clang_version__,
#elif defined(__GNUC__)
              "g++ " __VERSION__,
#else
              "unknown",
#endif
              PERFBENCH_BUILD_TYPE, pool,
              static_cast<unsigned long long>(opt.seed),
              opt.revision.c_str());

  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  auto fail = [&](const std::string& what, std::uint64_t ops) {
    std::printf("FAIL: %s\n", what.c_str());
    failed += ops;
    correct = false;
  };

  Tracer off(false);
  Tracer tracer(opt.trace);

  std::printf("setup: %d cold samples, median %.6f s (min %.6f, max %.6f)\n",
              kSetupSamples, setupS,
              *std::min_element(setupTimes.begin(), setupTimes.end()),
              *std::max_element(setupTimes.begin(), setupTimes.end()));
  const double rssBase = maxRssKiB();

  // ---- untimed warm-up: fills the arena's pages and the pool ---------------
  PassResult warm;
  std::string warmBad;
  try {
    warm = workload->pass(off, PassMode::Plain);
    warmBad = warm.error;
  } catch (const std::exception& e) {
    warmBad = std::string("threw: ") + e.what();
  }
  const std::size_t warmOps = std::max<std::size_t>(1, warm.scenarios.size());
  attempted += warmOps;
  const std::string reference = fullFingerprint(warm);
  std::printf("warm-up: wall_s=%.6f fingerprint: %s\n", warm.wall,
              reference.c_str());
  if (warmBad.empty() && opt.seed == kDefaultSeed) {
    const std::string want =
        recordedFingerprint(opt.expected, opt.size, opt.workload);
    if (want.empty())
      warmBad = "no fingerprint recorded for the default seed in '" +
                opt.expected + "'";
    else if (want != reference)
      warmBad = "default-seed fingerprint differs from the recorded " + want;
    else
      std::printf("fingerprint matches the recorded default-seed value\n");
  }
  if (!warmBad.empty()) fail("warm-up pass: " + warmBad, warmOps);
  const double bytesPerRank =
      workload->ranks() > 0
          ? (maxRssKiB() - rssBase) * 1024.0 /
                static_cast<double>(workload->ranks())
          : 0.0;

  // ---- timed passes --------------------------------------------------------
  const std::vector<PassMode> modes =
      opt.trace ? workload->tracedModes() : std::vector<PassMode>{PassMode::Plain};
  std::vector<PassResult> passes;
  // Passes run until the next one would end past --seconds (by the
  // median pass so far), so a run measures for about --seconds.
  const auto t0 = Clock::now();
  auto elapsed = [](Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
  };
  std::vector<double> passSeconds;
  for (std::size_t k = 0; k < modes.size() ||
                          elapsed(t0) + median(passSeconds) <= opt.seconds;
       ++k) {
    const PassMode mode = modes[k % modes.size()];
    const auto p0 = Clock::now();
    PassResult r;
    std::string bad;
    try {
      r = workload->pass(mode == PassMode::Plain ? off : tracer, mode);
      bad = r.error;
    } catch (const std::exception& e) {
      bad = std::string("pass threw: ") + e.what();
    }
    passSeconds.push_back(elapsed(p0));
    const std::size_t ops = std::max<std::size_t>(1, r.scenarios.size());
    attempted += ops;
    if (bad.empty() && r.fingerprint != warm.fingerprint)
      bad = "fingerprint " + r.fingerprint + " differs from the warm-up's";
    if (bad.empty() && mode != PassMode::Unobserved &&
        r.observed != warm.observed)
      bad = "observer fingerprint " + r.observed + " differs";
    std::printf("pass %zu %s wall_s=%.6f %s\n", k + 1, modeName(mode),
                r.wall, bad.empty() ? "fingerprint ok" : "FAILED");
    if (!bad.empty()) {
      fail(bad, ops);
      continue;
    }
    passes.push_back(std::move(r));
  }
  const double peakRssMiB = maxRssKiB() / 1024.0;

  // ---- counts the timed passes cannot see ----------------------------------
  std::map<std::string, double> layer;
  std::uint64_t eventsPerPass = 0;
  try {
    const std::string err = workload->census(layer, eventsPerPass);
    if (!err.empty()) {
      ++attempted;
      fail(err, 1);
    }
  } catch (const std::exception& e) {
    ++attempted;
    fail(std::string("census threw: ") + e.what(), 1);
  }

  std::vector<double> plainWall, rate, scenarios;
  for (const auto& p : passes) {
    if (p.mode != PassMode::Plain) continue;
    plainWall.push_back(p.wall);
    const std::uint64_t ev = p.events > 0 ? p.events : eventsPerPass;
    if (p.wall > 0) rate.push_back(static_cast<double>(ev) / p.wall);
    scenarios.insert(scenarios.end(), p.scenarios.begin(), p.scenarios.end());
  }

  std::vector<std::pair<const Metric*, double>> report;
  if (!opt.trace) {
    // Tail latency: p90 only with ten samples beyond it, else the highest
    // percentile that has ten (the median when fewer than 20 samples).
    const double n = static_cast<double>(scenarios.size());
    const double qTail = std::max(0.5, std::min(0.9, 1.0 - 10.0 / n));
    std::printf("scenario latency: %zu samples; scenario_p90_ms reports "
                "p%.1f\n",
                scenarios.size(), qTail * 100.0);
    const double values[] = {median(plainWall),
                             setupS,
                             peakRssMiB,
                             median(rate),
                             quantile(scenarios, 0.5) * 1e3,
                             quantile(scenarios, qTail) * 1e3};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      report.emplace_back(&kEndToEnd[i], values[i]);
  } else {
    workload->layerMetrics(passes, setups, layer);
    layer["smpi.bytes_per_rank"] = bytesPerRank;
    std::vector<double> tracedWall;
    for (const auto& p : passes)
      if (p.mode == PassMode::Traced) tracedWall.push_back(p.wall);
    const double base = median(plainWall);
    layer["trace.overhead_frac"] =
        base > 0 ? (median(tracedWall) - base) / base : 0.0;
    for (const Metric& m : kPerLayer) {
      const auto it = layer.find(m.name);
      report.emplace_back(&m, it == layer.end() ? 0.0 : it->second);
    }

    const std::vector<SpanRecord> spans = tracer.spans();
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, std::pair<double, double>> byName;
    std::map<std::string, int> count;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      auto& agg = byName[spans[i].name];
      agg.first += spans[i].end - spans[i].start;
      agg.second += self[i];
      ++count[spans[i].name];
    }
    std::printf("spans: %zu recorded\n", spans.size());
    for (const auto& [name, agg] : byName)
      std::printf("  span %-28s n=%-4d total_s=%.6f self_s=%.6f\n",
                  name.c_str(), count[name], agg.first, agg.second);
    if (!opt.spans.empty()) {
      writeSpans(opt.spans, spans, self);
      std::printf("spans written to %s\n", opt.spans.c_str());
    }
  }

  for (const auto& [m, v] : report)
    std::printf("metric %-28s %.6g %s\n", m->name, v, m->unit);
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i)
    js << (i ? ", " : "") << "\"" << report[i].first->name
       << "\": {\"value\": " << jsonNumber(report[i].second)
       << ", \"unit\": \"" << report[i].first->unit << "\"}";
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
