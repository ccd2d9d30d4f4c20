// The three perfbench workloads.  Each draws its inputs from the seed once,
// at construction, and every pass replays exactly those inputs, so the
// simulated results (the fingerprint) repeat bit for bit across passes.
//
//   halo_world        fig2's two-phase ISEND/IRECV halo, 131,072 VN ranks
//   paper_sweep       seeded sample of the paper's figure points, pooled
//   observed_world    a profiled + verified halo under the 2^20-op budget
//
// The layers are driven only through their public APIs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <sstream>

#include "apps/pop.hpp"
#include "apps/s3d.hpp"
#include "arch/machines.hpp"
#include "bench.hpp"
#include "core/evaluation.hpp"
#include "hpcc/hpl_sim.hpp"
#include "microbench/halo.hpp"
#include "microbench/imb.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "smpi/analysis/capture.hpp"
#include "smpi/simulation.hpp"
#include "support/rng.hpp"
#include "topo/mapping.hpp"
#include "topo/process_grid.hpp"

namespace perfbench {

using namespace bgp;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Independent input stream per workload: the same --seed never feeds
/// two workloads correlated draws.
Rng inputRng(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  return Rng(splitmix64(s));
}

/// Log-uniform integer in [lo, hi].
int logUniform(Rng& rng, int lo, int hi) {
  const double x = std::exp(rng.uniform(std::log(lo), std::log(hi + 1.0)));
  return std::clamp(static_cast<int>(x), lo, hi);
}

template <typename T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng() % i)]);
}

/// `count` draws from `options` with every option used equally often
/// (up to one extra), in seeded order: a seeded sample whose make-up, and
/// so whose host cost, barely depends on the seed.
template <typename T>
std::vector<T> balanced(Rng& rng, const std::vector<T>& options, int count) {
  std::vector<T> pool = options;
  shuffle(rng, pool);
  std::vector<T> out;
  for (int i = 0; i < count; ++i)
    out.push_back(pool[static_cast<std::size_t>(i) % pool.size()]);
  shuffle(rng, out);
  return out;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// Counts torus link claims and their contention delay, forwarding each
/// callback to the observer that was attached before it (the profiler on
/// observed_world), so the benchmark never hides a claim from it.
class CountingLinks final : public net::TorusNetwork::LinkObserver {
 public:
  net::TorusNetwork::LinkObserver* next = nullptr;
  std::uint64_t claims = 0;
  double queuedSeconds = 0.0;

  void onLinkClaim(topo::LinkId link, sim::SimTime claim, double serSeconds,
                   double bytes, double queued) override {
    ++claims;
    queuedSeconds += queued;
    if (next) next->onLinkClaim(link, claim, serSeconds, bytes, queued);
  }
  void onShmTransfer(double bytes, sim::SimTime start) override {
    if (next) next->onShmTransfer(bytes, start);
  }
};

/// Median over the passes of `mode` of one per-layer reading.
double medianOf(const std::vector<PassResult>& passes, PassMode mode,
                const std::string& key) {
  std::vector<double> v;
  for (const auto& p : passes)
    if (p.mode == mode) {
      const auto it = p.layer.find(key);
      if (it != p.layer.end()) v.push_back(it->second);
    }
  return median(std::move(v));
}

// ---- world workloads ---------------------------------------------------------

net::SystemOptions vnOptions() {
  net::SystemOptions o;
  o.mode = arch::ExecMode::VN;
  return o;
}

/// A workload that builds one world per pass and runs a benchmark-written
/// rank program on it.
class WorldWorkload : public Workload {
 public:
  WorldWorkload(std::string name, std::int64_t nranks, bool observed)
      : name_(std::move(name)), nranks_(nranks), observed_(observed) {}

  std::int64_t ranks() const override { return nranks_; }

  /// Construction, plus attaching the verifier and profiler when the
  /// workload observes its world.
  SetupSample setup() override {
    const auto t0 = Clock::now();
    auto sim = makeSim();
    if (observed_) {
      sim->enableVerifier();
      sim->enableProfile();
    }
    const auto t1 = Clock::now();
    sim.reset();
    return {seconds(t0, t1), seconds(t1, Clock::now())};
  }

  std::vector<PassMode> tracedModes() const override {
    if (observed_)
      return {PassMode::Plain, PassMode::Traced, PassMode::Unobserved};
    return Workload::tracedModes();
  }

  PassResult pass(Tracer& tracer, PassMode mode) override {
    PassResult out;
    out.mode = mode;
    const bool observe = observed_ && mode != PassMode::Unobserved;
    CountingLinks links;  // outlives the Simulation that points at it
    Span whole(tracer, name_ + ".pass");
    Span ctor(tracer, "smpi.ctor", whole.id());
    auto sim = makeSim();
    const double ctorS = ctor.stop();
    if (observe) {
      sim->enableVerifier();
      sim->enableProfile();
    }
    auto& net = sim->system().torusNetwork();
    if (mode != PassMode::Plain) {
      links.next = net.observer();
      net.attachObserver(&links);
    }

    const auto t0 = Clock::now();
    Span run(tracer, "smpi.run", whole.id());
    const smpi::RunResult r = sim->run(program());
    const double runS = run.stop();
    if (observe) {
      const obs::RunProfile& prof = sim->profiler()->profile();
      Span ex(tracer, "obs.export", whole.id());
      std::ostringstream json;
      obs::writeJson(json, prof, name_);
      const std::string doc = json.str();
      const double exportS = ex.stop();
      Span sc(tracer, "obs.selfcheck", whole.id());
      const std::vector<std::string> violations = obs::selfCheck(prof);
      const double selfS = sc.stop();
      if (!violations.empty())
        out.error = "selfCheck: " + violations.front();
      else if (prof.truncated)
        out.error = "profile truncated (op budget exceeded)";
      else if (!prof.critical.complete)
        out.error = "critical path incomplete";
      out.observed = "selfcheck=clean critical_path=" +
                 std::string(prof.critical.complete ? "complete" : "partial") +
                 " segments=" + std::to_string(prof.critical.segments.size());
      out.layer["obs.truncated"] = prof.truncated ? 1.0 : 0.0;
      out.layer["obs.critical_path_segments"] =
          static_cast<double>(prof.critical.segments.size());
      out.layer["obs.export_s"] = exportS;
      out.layer["obs.export_bytes"] = static_cast<double>(doc.size());
      out.layer["obs.selfcheck_s"] = selfS;
    }
    out.wall = seconds(t0, Clock::now());
    out.events = r.events;

    const smpi::Simulation::Profile p = sim->profile();
    out.fingerprint = "makespan=" + fmt("%.17g", r.makespan) +
                      " events=" + std::to_string(r.events) +
                      " sends=" + std::to_string(p.sends) +
                      " bytes_sent=" + fmt("%.17g", p.bytesSent);
    out.layer["sim.events"] = static_cast<double>(r.events);
    out.layer["sim.peak_pending"] =
        static_cast<double>(sim->engine().peakPending());
    out.layer["smpi.sends"] = static_cast<double>(p.sends);
    out.layer["smpi.collectives"] = static_cast<double>(p.collectives);
    out.layer["smpi.bytes_sent"] = p.bytesSent;
    out.layer["smpi.ctor_s"] = ctorS;
    out.layer["smpi.run_s"] = runS;
    out.layer["net.route_cache_hits"] =
        static_cast<double>(net.routeCacheHits());
    out.layer["net.route_cache_misses"] =
        static_cast<double>(net.routeCacheMisses());
    out.layer["net.bytes_routed"] = net.bytesRouted();
    out.layer["net.link_claims"] = static_cast<double>(links.claims);
    out.layer["net.link_queued_s"] = links.queuedSeconds;

    Span dtor(tracer, "smpi.dtor", whole.id());
    sim.reset();
    out.layer["smpi.dtor_s"] = dtor.stop();
    out.scenarios.push_back(whole.stop());
    // A pass is one scenario, so it is also the pass's slowest.
    out.layer["core.scenarios"] = 1.0;
    out.layer["core.scenario_max_s"] = out.scenarios.back();
    return out;
  }

  void layerMetrics(const std::vector<PassResult>& traced,
                    const std::vector<SetupSample>&,
                    std::map<std::string, double>& out) const override {
    for (const char* key :
         {"sim.events", "sim.peak_pending", "smpi.sends", "smpi.collectives",
          "smpi.bytes_sent", "smpi.ctor_s", "smpi.run_s", "smpi.dtor_s",
          "net.route_cache_hits", "net.route_cache_misses",
          "net.bytes_routed", "net.link_claims", "net.link_queued_s",
          "core.scenarios", "core.scenario_max_s"})
      out[key] = medianOf(traced, PassMode::Traced, key);
    const double events = out["sim.events"];
    out["sim.ns_per_event"] = events > 0 ? out["smpi.run_s"] / events * 1e9
                                         : 0.0;
    const double lookups =
        out["net.route_cache_hits"] + out["net.route_cache_misses"];
    out["net.route_cache_hit_rate"] =
        lookups > 0 ? out["net.route_cache_hits"] / lookups : 0.0;
    if (observed_) {
      for (const char* key :
           {"obs.truncated", "obs.critical_path_segments", "obs.export_s",
            "obs.export_bytes", "obs.selfcheck_s"})
        out[key] = medianOf(traced, PassMode::Traced, key);
      const double off =
          medianOf(traced, PassMode::Unobserved, "smpi.run_s");
      out["obs.overhead_x"] = off > 0 ? out["smpi.run_s"] / off : 0.0;
    }
  }

 protected:
  virtual smpi::RankProgram program() const = 0;

  std::unique_ptr<smpi::Simulation> makeSim() const {
    return std::make_unique<smpi::Simulation>(arch::machineByName("BG/P"),
                                              nranks_, vnOptions());
  }

  std::string name_;
  std::int64_t nranks_;
  bool observed_;
};

/// fig2's exchange (N words north/west, 2N south/east, ISEND/IRECV in two
/// phases, a pack/unpack compute slice per rep), one halo width per rep.
class HaloWorld final : public WorldWorkload {
 public:
  HaloWorld(std::string name, int rows, int cols, std::vector<int> widths,
            bool observed)
      : WorldWorkload(std::move(name), std::int64_t{rows} * cols, observed),
        grid_(rows, cols),
        widths_(std::move(widths)) {}

 protected:
  smpi::RankProgram program() const override {
    return [this](smpi::Rank& self) -> sim::Task {
      const auto north = static_cast<int>(grid_.north(self.id()));
      const auto south = static_cast<int>(grid_.south(self.id()));
      const auto west = static_cast<int>(grid_.west(self.id()));
      const auto east = static_cast<int>(grid_.east(self.id()));
      co_await self.barrier();
      for (const int words : widths_) {
        const double n1 = words * 4.0;
        const double n2 = 2.0 * n1;
        co_await self.compute(arch::Work{0.0, 2.0 * (n1 + n2), 1.0});
        std::vector<smpi::Request> ns;
        ns.push_back(self.irecv(south, 10));
        ns.push_back(self.irecv(north, 11));
        ns.push_back(self.isend(north, n1, 10));
        ns.push_back(self.isend(south, n2, 11));
        co_await self.waitAll(std::move(ns));
        std::vector<smpi::Request> ew;
        ew.push_back(self.irecv(east, 12));
        ew.push_back(self.irecv(west, 13));
        ew.push_back(self.isend(west, n1, 12));
        ew.push_back(self.isend(east, n2, 13));
        co_await self.waitAll(std::move(ew));
      }
    };
  }

 private:
  topo::ProcessGrid2D grid_;
  std::vector<int> widths_;
};

/// Halo widths: `perBand` reps in each protocol band, in seeded order.
/// With the BG/P eager limit of 1200 B, widths of 48-96 words send both
/// messages eagerly and widths of 768-1536 words send both by rendezvous,
/// so every seed has the same event count.  The bands are narrow because
/// the host cost per event depends on the simulated message times: with
/// bands as wide as fig2's (2-20000 words), the pass time moved ~15%
/// from seed to seed.
std::vector<int> haloWidths(Rng& rng, int perBand) {
  std::vector<int> w;
  for (int i = 0; i < perBand; ++i) {
    w.push_back(logUniform(rng, 48, 96));
    w.push_back(logUniform(rng, 768, 1536));
  }
  shuffle(rng, w);
  return w;
}

// ---- paper_sweep ---------------------------------------------------------------

/// One figure point, run through its public driver.
struct Scenario {
  std::string family;
  std::function<double()> run;
};

/// A world a stratum's scenarios build: constructed cold by set-up.
struct WorldSpec {
  std::string machine;
  int nranks;
  arch::ExecMode mode;
};

class PaperSweep final : public Workload {
 public:
  PaperSweep(Rng& rng, Size size, unsigned poolThreads)
      : poolThreads_(poolThreads) {
    const bool full = size == Size::Full;
    const std::vector<int> words = {2, 8, 32, 128, 512, 2000, 8000, 20000};
    const std::vector<microbench::HaloProtocol> protocols = {
        microbench::HaloProtocol::IsendIrecv,
        microbench::HaloProtocol::Sendrecv,
        microbench::HaloProtocol::Persistent,
        microbench::HaloProtocol::Bsend};
    const auto& orders = topo::Mapping::paperOrders();
    const std::vector<std::string> mappings(orders.begin(), orders.end());

    // fig2 (a,c,d): VN halos with seeded width, protocol and mapping;
    // fig2 (b): SMP halos on XYZT with the three MPI-1 protocols.
    auto halo = [&](int nranks, int rows, arch::ExecMode mode, int count,
                    bool smp) {
      worlds_.push_back({"BG/P", nranks, mode});
      const auto w = balanced(rng, words, count);
      const auto proto = balanced(
          rng, smp ? std::vector(protocols.begin(), protocols.end() - 1)
                   : protocols,
          count);
      const auto map = balanced(rng, mappings, count);
      for (int k = 0; k < count; ++k) {
        microbench::HaloConfig c;
        c.machine = arch::machineByName("BG/P");
        c.nranks = nranks;
        c.gridRows = rows;
        c.gridCols = nranks / rows;
        c.mode = mode;
        c.reps = 2;
        c.mapping = smp ? "XYZT" : map[k];
        c.protocol = proto[k];
        const int words = w[k];
        add("fig2_halo", [c, words] { return microbench::runHalo(c, words); });
      }
    };
    // fig3: IMB allreduce (double or float) and bcast.
    auto imb = [&](int nranks, int count) {
      const std::vector<double> sizes = {8,     64,     512,    4096,
                                         32768, 262144, 1048576};
      const std::vector<std::string> machines = {"BG/P", "XT4/QC"};
      for (const auto& m : machines)
        worlds_.push_back({m, nranks, arch::ExecMode::VN});
      const auto size = balanced(rng, sizes, count);
      const auto machine = balanced(rng, machines, count);
      const auto op = balanced(rng, std::vector<int>{0, 1, 2}, count);
      for (int k = 0; k < count; ++k) {
        microbench::ImbConfig c;
        c.machine = arch::machineByName(machine[k]);
        c.nranks = nranks;
        c.reps = 2;
        const double bytes = size[k];
        switch (op[k]) {
          case 0:
            add("fig3_imb", [c, bytes] {
              return microbench::imbAllreduce(c, bytes, net::Dtype::Double);
            });
            break;
          case 1:
            add("fig3_imb", [c, bytes] {
              return microbench::imbAllreduce(c, bytes, net::Dtype::Float);
            });
            break;
          default:
            add("fig3_imb",
                [c, bytes] { return microbench::imbBcast(c, bytes); });
        }
      }
    };
    // fig4: POP in VN mode with a seeded solver.
    auto pop = [&](int nranks, int count) {
      worlds_.push_back({"BG/P", nranks, arch::ExecMode::VN});
      const auto solver = balanced(
          rng,
          std::vector{apps::PopSolver::ChronopoulosGear,
                      apps::PopSolver::StandardCG},
          count);
      for (int k = 0; k < count; ++k) {
        apps::PopConfig c{arch::machineByName("BG/P"), nranks};
        c.solver = solver[k];
        add("fig4_pop", [c] { return apps::runPop(c).syd; });
      }
    };
    // fig6: S3D weak scaling on a seeded platform.
    auto s3d = [&](int nranks, int count) {
      worlds_.push_back({"BG/P", nranks, arch::ExecMode::VN});
      const auto machine =
          balanced(rng,
                   std::vector<std::string>{"BG/P", "BG/L", "XT3", "XT4/DC",
                                            "XT4/QC"},
                   count);
      for (int k = 0; k < count; ++k) {
        apps::S3dConfig c{arch::machineByName(machine[k]), nranks};
        c.steps = 2;
        add("fig6_s3d",
            [c] { return apps::runS3d(c).coreHoursPerPointStep; });
      }
    };
    // HPL: a P x Q grid in seeded orientation.
    auto hpl = [&](int p, int q, std::int64_t n, int count) {
      worlds_.push_back({"BG/P", p * q, arch::ExecMode::VN});
      const auto flip = balanced(rng, std::vector<int>{0, 1}, count);
      for (int k = 0; k < count; ++k) {
        const hpcc::HplSimConfig c{arch::machineByName("BG/P"), n, 96,
                                   flip[k] != 0 ? q : p, flip[k] != 0 ? p : q};
        add("hpl", [c] { return hpcc::runHplSimulation(c).seconds; });
      }
    };

    if (full) {
      halo(8192, 128, arch::ExecMode::VN, 8, false);
      halo(4096, 64, arch::ExecMode::VN, 8, false);
      halo(2048, 64, arch::ExecMode::SMP, 8, true);
      imb(8192, 16);
      pop(8000, 4);
      pop(22500, 4);
      s3d(512, 8);
      s3d(1024, 4);
      hpl(8, 16, 7680, 4);
      hpl(16, 16, 12288, 1);
    } else {
      halo(512, 32, arch::ExecMode::VN, 2, false);
      imb(512, 2);
      pop(2000, 1);
      s3d(64, 2);
      hpl(4, 8, 3840, 1);
    }
  }

  std::int64_t ranks() const override { return 0; }

  /// Construction of every stratum's world, serially: the
  /// net::System, torus tables and rank state the sweep's scenarios
  /// build.  The strata are fixed, so this does not depend on the seed.
  SetupSample setup() override {
    SetupSample s;
    for (const WorldSpec& w : worlds_) {
      net::SystemOptions o;
      o.mode = w.mode;
      const auto t0 = Clock::now();
      auto sim = std::make_unique<smpi::Simulation>(
          arch::machineByName(w.machine), w.nranks, o);
      const auto t1 = Clock::now();
      sim.reset();
      s.ctor += seconds(t0, t1);
      s.dtor += seconds(t1, Clock::now());
    }
    return s;
  }

  PassResult pass(Tracer& tracer, PassMode mode) override {
    PassResult out;
    out.mode = mode;
    Span whole(tracer, "paper_sweep.pass");
    std::vector<double> xs(scenarios_.size());
    std::iota(xs.begin(), xs.end(), 0.0);
    std::vector<double> spans(scenarios_.size(), 0.0);
    core::Series series;
    Span sweep(tracer, "core.sweep", whole.id());
    const int sweepId = sweep.id();
    core::sweep(series, xs, [&](double x) {
      const auto i = static_cast<std::size_t>(x);
      Span s(tracer, "core.scenario:" + scenarios_[i].family, sweepId);
      const double y = scenarios_[i].run();
      spans[i] = s.stop();
      return y;
    });
    out.wall = sweep.stop();
    out.scenarios = spans;

    std::vector<double> results;
    for (const auto& pt : series.points) results.push_back(pt.y);
    if (results.size() != scenarios_.size())
      out.error = std::to_string(scenarios_.size() - results.size()) +
                  " scenario(s) threw or returned a non-finite value";
    out.fingerprint = digest(results);
    lastDigest_ = out.fingerprint;

    const double busy = std::accumulate(spans.begin(), spans.end(), 0.0);
    out.layer["core.scenarios"] = static_cast<double>(scenarios_.size());
    out.layer["core.scenario_max_s"] =
        *std::max_element(spans.begin(), spans.end());
    out.layer["support.pool.busy_frac"] =
        out.wall > 0 ? busy / (poolThreads_ * out.wall) : 0.0;
    out.layer["scenario_sum_s"] = busy;
    return out;
  }

  /// Re-runs every scenario once on the pool with a counting profiler
  /// attached (detail budget 0, so only counters are kept) to count the
  /// simulated events, sends and link claims the drivers' own Simulations
  /// produce.  The results must equal the unprofiled ones.
  std::string census(std::map<std::string, double>& layer,
                     std::uint64_t& eventsPerPass) override {
    std::vector<double> results;
    std::uint64_t events = 0, sends = 0, collectives = 0, claims = 0,
                  peak = 0;
    double bytes = 0.0;
    {
      obs::ProfileOptions po;
      po.maxOps = 0;
      obs::ProfileScope profile(po);
      // Profiling implies capture; a per-thread scope with a one-node
      // budget keeps each capture from recording the op graph.
      results = core::parallelMap<double>(scenarios_.size(), [&](std::size_t i) {
        smpi::analysis::CaptureScope capture(
            smpi::analysis::CaptureOptions{1});
        return scenarios_[i].run();
      });
      for (const auto& prof : profile.profilers()) {
        const obs::RunProfile& p = prof->profile();
        events += p.engine.events;
        peak = std::max<std::uint64_t>(peak, p.engine.peakPending);
        sends += p.sends;
        collectives += p.collectives;
        bytes += p.bytesSent;
        claims += p.net.linkClaims;
      }
    }
    eventsPerPass = events;
    layer["sim.events"] = static_cast<double>(events);
    layer["sim.peak_pending"] = static_cast<double>(peak);
    layer["smpi.sends"] = static_cast<double>(sends);
    layer["smpi.collectives"] = static_cast<double>(collectives);
    layer["smpi.bytes_sent"] = bytes;
    layer["net.link_claims"] = static_cast<double>(claims);
    if (digest(results) != lastDigest_)
      return "profiled census results differ from the timed passes";
    return "";
  }

  void layerMetrics(const std::vector<PassResult>& traced,
                    const std::vector<SetupSample>& setups,
                    std::map<std::string, double>& out) const override {
    for (const char* key : {"core.scenarios", "core.scenario_max_s",
                            "support.pool.busy_frac"})
      out[key] = medianOf(traced, PassMode::Traced, key);
    out["support.pool.threads"] = poolThreads_;
    // The drivers own their Simulations, so construction and teardown are
    // timed on the set-up worlds, and run() cannot be timed apart:
    // host ns per event here spans whole scenarios, set-up included.
    const double events = out.count("sim.events") ? out["sim.events"] : 0.0;
    const double sum = medianOf(traced, PassMode::Traced, "scenario_sum_s");
    out["sim.ns_per_event"] = events > 0 ? sum / events * 1e9 : 0.0;
    std::vector<double> ctor, dtor;
    for (const SetupSample& s : setups) {
      ctor.push_back(s.ctor);
      dtor.push_back(s.dtor);
    }
    out["smpi.ctor_s"] = median(ctor);
    out["smpi.dtor_s"] = median(dtor);
  }

 private:
  void add(std::string family, std::function<double()> run) {
    scenarios_.push_back(Scenario{std::move(family), std::move(run)});
  }

  /// "scenarios=N results=<FNV-1a of the %.17g results>".
  static std::string digest(const std::vector<double>& results) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (double r : results)
      for (char c : fmt("%.17g;", r)) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
      }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return "scenarios=" + std::to_string(results.size()) + " results=" + buf;
  }

  unsigned poolThreads_;
  std::vector<Scenario> scenarios_;
  std::vector<WorldSpec> worlds_;
  std::string lastDigest_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, Size size,
                                       unsigned poolThreads) {
  const bool full = size == Size::Full;
  if (name == "halo_world") {
    Rng rng = inputRng(seed, 1);
    return std::make_unique<HaloWorld>(name, full ? 256 : 64,
                                       full ? 512 : 64, haloWidths(rng, 1),
                                       false);
  }
  if (name == "paper_sweep") {
    Rng rng = inputRng(seed, 3);
    return std::make_unique<PaperSweep>(rng, size, poolThreads);
  }
  if (name == "observed_world") {
    Rng rng = inputRng(seed, 4);
    return std::make_unique<HaloWorld>(name, full ? 64 : 16, full ? 64 : 16,
                                       haloWidths(rng, full ? 4 : 2), true);
  }
  return nullptr;
}

}  // namespace perfbench
