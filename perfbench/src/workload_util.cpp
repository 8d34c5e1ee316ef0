#include "workload_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace perfbench {

namespace pe = phmse::engine;

PlanShape plan_shape(const pe::Plan& plan) {
  PlanShape shape;
  shape.batch_size = static_cast<long>(plan.options().batch_size);
  plan.hierarchy().for_each_post_order([&](const phmse::core::HierNode& n) {
    shape.nodes.push_back({static_cast<long>(n.dim()),
                           static_cast<long>(n.constraints.size())});
  });
  return shape;
}

void Record::check(const std::string& name, bool ok,
                   const std::string& detail) {
  CheckTally& t = checks_[name];
  if (ok) {
    ++t.passed;
    return;
  }
  if (t.failed++ == 0) t.first_failure = detail;
}

void Record::add_solve(const std::string& shape, const std::string& kind,
                       const pe::Result& result, double wall_ms) {
  SolveSample s;
  s.shape = shape;
  s.kind = kind;
  s.wall_ms = wall_ms;
  for (const phmse::perf::Category c : phmse::perf::all_categories()) {
    s.cat_ms[static_cast<std::size_t>(c)] = result.breakdown.time(c) * 1e3;
  }
  s.batches = result.report.batches;
  s.nodes_recomputed = result.report.nodes_recomputed;
  s.nodes_reused = result.report.nodes_reused;
  solves.push_back(std::move(s));
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += ' ';
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

// Every number keeps all its digits; non-finite values (which JSON cannot
// carry) become null and fail the metric that reads them.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_numbers(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(v[i]);
  }
  return out + "]";
}

}  // namespace

void Record::write_json(const std::string& path) const {
  std::ostringstream o;
  o << "{\"workload\": " << json_string(options.workload)
    << ", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
    << ",\n \"setup_s\": " << json_numbers(setup_s)
    << ",\n \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"rejected\": " << rejected << ", \"expired\": " << expired;
  o << ",\n \"samples\": {";
  bool first = true;
  for (const auto& [name, v] : samples) {
    o << (first ? "" : ",\n  ") << json_string(name) << ": " << json_numbers(v);
    first = false;
  }
  o << "},\n \"values\": {";
  first = true;
  for (const auto& [name, v] : values) {
    o << (first ? "" : ", ") << json_string(name) << ": " << json_number(v);
    first = false;
  }
  o << "},\n \"shapes\": {";
  first = true;
  for (const auto& [name, shape] : shapes) {
    o << (first ? "" : ", ") << json_string(name)
      << ": {\"batch_size\": " << shape.batch_size << ", \"nodes\": [";
    for (std::size_t i = 0; i < shape.nodes.size(); ++i) {
      o << (i > 0 ? "," : "") << '[' << shape.nodes[i][0] << ','
        << shape.nodes[i][1] << ']';
    }
    o << "]}";
    first = false;
  }
  o << "},\n \"solves\": [";
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const SolveSample& s = solves[i];
    o << (i > 0 ? ",\n  " : "") << "{\"shape\": " << json_string(s.shape)
      << ", \"kind\": " << json_string(s.kind)
      << ", \"wall_ms\": " << json_number(s.wall_ms) << ", \"cat_ms\": "
      << json_numbers(std::vector<double>(s.cat_ms.begin(), s.cat_ms.end()))
      << ", \"batches\": " << s.batches
      << ", \"nodes_recomputed\": " << s.nodes_recomputed
      << ", \"nodes_reused\": " << s.nodes_reused << '}';
  }
  o << "],\n \"compiles\": [";
  for (std::size_t i = 0; i < compiles.size(); ++i) {
    const pe::CompileTimings& t = compiles[i];
    o << (i > 0 ? ", " : "") << "{\"total_ms\": "
      << json_number(t.total_seconds * 1e3)
      << ", \"decompose_ms\": " << json_number(t.decompose_seconds * 1e3)
      << ", \"assign_ms\": " << json_number(t.assign_seconds * 1e3)
      << ", \"schedule_ms\": " << json_number(t.schedule_seconds * 1e3)
      << ", \"workspace_ms\": " << json_number(t.workspace_seconds * 1e3)
      << '}';
  }
  o << "],\n \"checks\": {";
  first = true;
  for (const auto& [name, t] : checks_) {
    o << (first ? "" : ",\n  ") << json_string(name)
      << ": {\"passed\": " << t.passed << ", \"failed\": " << t.failed
      << ", \"first_failure\": " << json_string(t.first_failure) << '}';
    first = false;
  }
  o << "}}\n";

  std::ofstream f(path);
  f << o.str();
  f.close();
  PHMSE_CHECK(f.good(), "record: write failed for " + path);
}

phmse::Rng seeded_rng(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): nearby seeds give unrelated streams.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    stream * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return phmse::Rng(z ^ (z >> 31));
}

std::vector<double> observed_values(const phmse::cons::ConstraintSet& set) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(set.size()));
  for (const phmse::cons::Constraint& c : set.all()) v.push_back(c.observed);
  return v;
}

std::vector<double> noisy(const std::vector<double>& base, double sigma,
                          phmse::Rng& rng) {
  std::vector<double> v(base);
  for (double& x : v) x += rng.gaussian(0.0, sigma);
  return v;
}

Vector initial_estimate(const Vector& truth, double sigma) {
  phmse::Rng rng(0x1234);
  Vector x(truth);
  for (double& v : x) v += rng.gaussian(0.0, sigma);
  return x;
}

double rmsd(const Vector& a, const Vector& b) {
  PHMSE_CHECK(a.size() == b.size() && a.size() % 3 == 0 && !a.empty(),
              "rmsd: coordinate vectors differ in size");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size() / 3));
}

namespace {

/// Largest eigenvalue of a symmetric 4x4 matrix (cyclic Jacobi sweeps).
double largest_eigenvalue(std::array<std::array<double, 4>, 4> m) {
  for (int sweep = 0; sweep < 50; ++sweep) {
    double off = 0.0;
    double diag = 0.0;
    for (int p = 0; p < 4; ++p) {
      diag += m[p][p] * m[p][p];
      for (int q = p + 1; q < 4; ++q) off += m[p][q] * m[p][q];
    }
    if (off <= 1e-30 * diag) break;
    for (int p = 0; p < 4; ++p) {
      for (int q = p + 1; q < 4; ++q) {
        if (m[p][q] == 0.0) continue;
        const double theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int k = 0; k < 4; ++k) {  // m <- m J (columns p, q)
          const double kp = m[k][p];
          const double kq = m[k][q];
          m[k][p] = c * kp - s * kq;
          m[k][q] = s * kp + c * kq;
        }
        for (int k = 0; k < 4; ++k) {  // m <- J^T m (rows p, q)
          const double pk = m[p][k];
          const double qk = m[q][k];
          m[p][k] = c * pk - s * qk;
          m[q][k] = s * pk + c * qk;
        }
      }
    }
  }
  return std::max({m[0][0], m[1][1], m[2][2], m[3][3]});
}

}  // namespace

double superposed_rmsd(const Vector& a, const Vector& b) {
  PHMSE_CHECK(a.size() == b.size() && a.size() % 3 == 0 && !a.empty(),
              "superposed_rmsd: coordinate vectors differ in size");
  const std::size_t n = a.size() / 3;
  double ca[3] = {};
  double cb[3] = {};
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d) {
      ca[d] += a[3 * i + d];
      cb[d] += b[3 * i + d];
    }
  }
  for (int d = 0; d < 3; ++d) {
    ca[d] /= static_cast<double>(n);
    cb[d] /= static_cast<double>(n);
  }
  // s[j][k] = sum over atoms of centred a_j times centred b_k; g = the
  // summed squared norms of both centred sets.
  double s[3][3] = {};
  double g = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double pa[3];
    double pb[3];
    for (int d = 0; d < 3; ++d) {
      pa[d] = a[3 * i + d] - ca[d];
      pb[d] = b[3 * i + d] - cb[d];
      g += pa[d] * pa[d] + pb[d] * pb[d];
    }
    for (int j = 0; j < 3; ++j) {
      for (int k = 0; k < 3; ++k) s[j][k] += pa[j] * pb[k];
    }
  }
  const double xx = s[0][0], xy = s[0][1], xz = s[0][2];
  const double yx = s[1][0], yy = s[1][1], yz = s[1][2];
  const double zx = s[2][0], zy = s[2][1], zz = s[2][2];
  const std::array<std::array<double, 4>, 4> k = {{
      {xx + yy + zz, yz - zy, zx - xz, xy - yx},
      {yz - zy, xx - yy - zz, xy + yx, zx + xz},
      {zx - xz, xy + yx, -xx + yy - zz, yz + zy},
      {xy - yx, zx + xz, yz + zy, -xx - yy + zz},
  }};
  // The best rotation leaves g - 2 * lambda_max of squared distance.
  const double residual = g - 2.0 * largest_eigenvalue(k);
  return std::sqrt(std::max(0.0, residual) / static_cast<double>(n));
}

Vector rigidly_moved(const Vector& x) {
  // Rotation by 0.7 rad about the unit axis (2, -1, 2) / 3 (Rodrigues).
  const double u[3] = {2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0};
  const double c = std::cos(0.7);
  const double s = std::sin(0.7);
  const double shift[3] = {3.0, -1.5, 0.25};
  Vector y(x);
  for (std::size_t i = 0; i + 2 < x.size(); i += 3) {
    const double* p = &x[i];
    const double dot = u[0] * p[0] + u[1] * p[1] + u[2] * p[2];
    const double cross[3] = {u[1] * p[2] - u[2] * p[1],
                             u[2] * p[0] - u[0] * p[2],
                             u[0] * p[1] - u[1] * p[0]};
    for (int d = 0; d < 3; ++d) {
      y[i + d] = p[d] * c + cross[d] * s + u[d] * dot * (1.0 - c) + shift[d];
    }
  }
  return y;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bitwise_equal(const phmse::est::NodeState& a,
                   const phmse::est::NodeState& b) {
  const auto entries = static_cast<std::size_t>(a.c.rows() * a.c.cols());
  return bitwise_equal(a.x, b.x) && a.c.rows() == b.c.rows() &&
         a.c.cols() == b.c.cols() &&
         (entries == 0 ||
          std::memcmp(a.c.data(), b.c.data(), entries * sizeof(double)) == 0);
}

std::uint64_t posterior_digest(const phmse::est::NodeState& state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const double* data, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t word = 0;
      std::memcpy(&word, data + i, sizeof word);
      h = (h ^ word) * 0x100000001b3ULL;
    }
  };
  mix(state.x.data(), state.x.size());
  mix(state.c.data(),
      static_cast<std::size_t>(state.c.rows() * state.c.cols()));
  return h;
}

double host_steal_seconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  // cpu  user nice system idle iowait irq softirq steal ...
  double fields[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return 0.0;
  for (double& v : fields) {
    if (!(f >> v)) return 0.0;
  }
  return fields[7] / 100.0;  // USER_HZ
}

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

void trace_breakdown(Tracer* tracer, const phmse::perf::Profile& breakdown,
                     Clock::time_point begin, std::uint32_t parent,
                     std::uint32_t op) {
  if (tracer == nullptr) return;
  static constexpr std::array<const char*, phmse::perf::kNumCategories> kNames =
      {"d-s", "chol", "sys", "m-m", "m-v", "vec", "other"};
  Clock::time_point t = begin;
  for (const phmse::perf::Category c : phmse::perf::all_categories()) {
    const Clock::time_point end = t + seconds_to_duration(breakdown.time(c));
    tracer->record(kNames[static_cast<std::size_t>(c)], "estimation", t, end,
                   parent, op);
    t = end;
  }
}

pe::Plan traced_compile(Record& record, Tracer* tracer,
                        const pe::Problem& problem,
                        const pe::CompileOptions& options) {
  const Clock::time_point t0 = Clock::now();
  pe::Plan plan = pe::Engine::compile(problem, options);
  const Clock::time_point t1 = Clock::now();
  const pe::CompileTimings& t = plan.timings();
  record.compiles.push_back(t);
  const std::uint32_t id = trace_span(tracer, "compile", "engine", t0, t1);
  if (tracer != nullptr) {
    Clock::time_point p = t0;
    const std::pair<const char*, double> phases[] = {
        {"decompose", t.decompose_seconds},
        {"assign", t.assign_seconds},
        {"schedule", t.schedule_seconds},
        {"workspace", t.workspace_seconds}};
    for (const auto& [name, secs] : phases) {
      const Clock::time_point e = p + seconds_to_duration(secs);
      tracer->record(name, "core", p, e, id, 0);
      p = e;
    }
  }
  return plan;
}

}  // namespace perfbench
