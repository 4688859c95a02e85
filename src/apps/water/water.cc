#include "apps/water/water.h"

#include <vector>

#include "apps/water/water_common.h"
#include "runtime/aggregate.h"
#include "runtime/system.h"

namespace presto::apps {
namespace {

using runtime::Aggregate1D;
using runtime::NodeCtx;
using namespace water_detail;

constexpr int kPhaseForces = 0;
constexpr int kPhaseAdvance = 1;

}  // namespace

AppResult run_water(const WaterParams& params,
                    const runtime::MachineConfig& machine,
                    runtime::ProtocolKind kind, bool directives) {
  runtime::System sys(machine, kind);
  const std::size_t n = params.molecules;
  const Box box = make_box(n, params.density);

  // Positions are the only shared state; velocities and forces are private
  // (forces are combined with the control-network vector reduction).
  auto pos = Aggregate1D<Vec3>::create(sys.space(), n);
  double checksum = 0.0;

  sys.run([&](NodeCtx& c) {
    const auto [lo, hi] = pos.range(c.id());
    std::vector<Vec3> vel(hi - lo);
    std::vector<double> force(3 * n, 0.0);  // private accumulation, all n
    // Under write-update, publish each owner-write phase to its recorded
    // readers before they consume it.
    const auto publish = [&] { c.publish(0, c.space().size_bytes()); };

    for (std::size_t i = lo; i < hi; ++i) {
      pos.set(c, i, lattice_position(i, n, box.length));
      vel[i - lo] = thermal_velocity(i, c.machine().seed);
    }
    publish();
    c.barrier();

    double energy_trace = 0.0;
    for (int step = 0; step < params.steps; ++step) {
      // ---- Interaction phase: static repetitive producer-consumer ---------
      if (directives) c.phase(kPhaseForces);
      std::fill(force.begin(), force.end(), 0.0);
      double pe = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        const Vec3 pi = pos.get(c, i);
        for (std::size_t k = 1; k <= n / 2; ++k) {
          const std::size_t j = (i + k) % n;
          if (2 * k == n && i > j) continue;  // antipodal pair counted once
          const Vec3 pj = pos.get(c, j);
          const double dx = min_image(pi.x - pj.x, box.length);
          const double dy = min_image(pi.y - pj.y, box.length);
          const double dz = min_image(pi.z - pj.z, box.length);
          const double r2 = dx * dx + dy * dy + dz * dz;
          c.charge_flops(11);
          if (r2 >= box.cutoff2 || r2 == 0.0) continue;
          const double f = lj_pair(r2, pe);
          c.charge_flops(20);
          force[3 * i + 0] += f * dx;
          force[3 * i + 1] += f * dy;
          force[3 * i + 2] += f * dz;
          force[3 * j + 0] -= f * dx;
          force[3 * j + 1] -= f * dy;
          force[3 * j + 2] -= f * dz;
        }
      }
      // C** reduction support combines the private force arrays.
      c.reduce_vec_sum(force);

      // ---- Advance phase: owner writes invalidate cached readers -----------
      if (directives) c.phase(kPhaseAdvance);
      double ke = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        Vec3 p = pos.get(c, i);
        Vec3& v = vel[i - lo];
        v.x += force[3 * i + 0] * params.dt;
        v.y += force[3 * i + 1] * params.dt;
        v.z += force[3 * i + 2] * params.dt;
        auto wrap = [&](double x) {
          if (x < 0) return x + box.length;
          if (x >= box.length) return x - box.length;
          return x;
        };
        p.x = wrap(p.x + v.x * params.dt);
        p.y = wrap(p.y + v.y * params.dt);
        p.z = wrap(p.z + v.z * params.dt);
        c.charge_flops(15);
        pos.set(c, i, p);
        ke += 0.5 * (v.x * v.x + v.y * v.y + v.z * v.z);
      }
      publish();
      const double total_ke = c.reduce_sum(ke);
      const double total_pe = c.reduce_sum(pe);
      energy_trace += total_ke + total_pe;
      c.barrier();
    }

    if (c.id() == 0) checksum = energy_trace;
  });

  AppResult result;
  result.report = sys.report("");
  result.checksum = checksum;
  return result;
}

}  // namespace presto::apps
