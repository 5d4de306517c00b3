#include "traffic/workload.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace vaq {
namespace traffic {
namespace {

// Salt for deriving per-tenant generator streams from the master seed.
constexpr uint64_t kTrafficSalt = 0x9bd1c4f2a75e3068ULL;

constexpr double kTwoPi = 6.283185307179586476925286766559;

// Burst windows for one tenant: Poisson window starts, fixed length,
// non-overlapping (the next draw starts after the previous window ends).
std::vector<std::pair<double, double>> DrawBursts(Rng& rng,
                                                  const WorkloadSpec& spec) {
  std::vector<std::pair<double, double>> windows;
  if (spec.bursts_per_min <= 0.0 || spec.burst_len_ms <= 0.0 ||
      spec.burst_factor <= 1.0) {
    return windows;
  }
  const double starts_per_ms = spec.bursts_per_min / 60'000.0;
  double t = 0.0;
  while (true) {
    t += rng.Exponential(starts_per_ms);
    if (t >= spec.duration_ms) break;
    windows.emplace_back(t, t + spec.burst_len_ms);
    t += spec.burst_len_ms;
  }
  return windows;
}

}  // namespace

std::vector<TenantSpec> MakeTenants(const WorkloadSpec& spec) {
  VAQ_CHECK_GT(spec.num_tenants, 0);
  std::vector<TenantSpec> tenants;
  tenants.reserve(static_cast<size_t>(spec.num_tenants));
  for (int i = 0; i < spec.num_tenants; ++i) {
    TenantSpec tenant;
    tenant.name = std::string("t").append(std::to_string(i));
    tenant.weight = 1;
    tenant.queue_quota = spec.queue_quota;
    tenant.rate_qps = spec.base_qps;
    tenant.slo_ms = spec.slo_ms;
    tenant.hotspot = spec.hotspot_every > 0 && i % spec.hotspot_every == 0;
    tenant.abusive = i == spec.abusive_tenant;
    if (tenant.hotspot) tenant.rate_qps *= spec.hotspot_factor;
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

std::vector<Arrival> GenerateArrivals(const WorkloadSpec& spec,
                                      bool* truncated) {
  VAQ_CHECK_GT(spec.num_presets, 0);
  VAQ_CHECK_GE(spec.diurnal_amplitude, 0.0);
  VAQ_CHECK_LE(spec.diurnal_amplitude, 1.0);
  const std::vector<TenantSpec> tenants = MakeTenants(spec);
  std::vector<Arrival> arrivals;
  if (truncated != nullptr) *truncated = false;

  const StreamFamily tenant_streams(spec.seed, kTrafficSalt);
  for (int i = 0; i < spec.num_tenants; ++i) {
    // Independent stream per tenant: tenant j's timeline never moves when
    // tenant k is added, removed, or turned abusive.
    Rng rng = tenant_streams.Stream(static_cast<uint64_t>(i));
    const std::vector<std::pair<double, double>> bursts =
        DrawBursts(rng, spec);
    const double abusive_mult = tenants[static_cast<size_t>(i)].abusive
                                    ? spec.abusive_factor
                                    : 1.0;
    const double flat_per_ms =
        tenants[static_cast<size_t>(i)].rate_qps * abusive_mult / 1'000.0;
    if (flat_per_ms <= 0.0) continue;
    const double burst_mult = spec.burst_factor > 1.0 ? spec.burst_factor
                                                      : 1.0;
    // Thinning: draw at the all-factors-on peak, accept at rate(t)/peak.
    const double peak_per_ms =
        flat_per_ms * (1.0 + spec.diurnal_amplitude) * burst_mult;
    size_t burst_cursor = 0;
    double t = 0.0;
    while (true) {
      t += rng.Exponential(peak_per_ms);
      if (t >= spec.duration_ms) break;
      while (burst_cursor < bursts.size() &&
             bursts[burst_cursor].second <= t) {
        ++burst_cursor;
      }
      const bool in_burst = burst_cursor < bursts.size() &&
                            bursts[burst_cursor].first <= t;
      double rate = flat_per_ms *
                    (1.0 + spec.diurnal_amplitude *
                               std::sin(kTwoPi * t / spec.diurnal_period_ms));
      if (in_burst) rate *= burst_mult;
      // The preset draw happens even for thinned-out points so the kept
      // arrivals' mix is independent of the acceptance pattern.
      const int preset =
          static_cast<int>(rng.UniformInt(
              static_cast<uint64_t>(spec.num_presets)));
      if (!rng.Bernoulli(rate / peak_per_ms)) continue;
      arrivals.push_back(Arrival{t, i, preset});
      if (arrivals.size() >= spec.max_arrivals) {
        if (truncated != nullptr) *truncated = true;
        break;
      }
    }
    if (arrivals.size() >= spec.max_arrivals) break;
  }

  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
              return a.tenant < b.tenant;
            });
  return arrivals;
}

}  // namespace traffic
}  // namespace vaq
