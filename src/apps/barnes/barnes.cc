#include "apps/barnes/barnes.h"

#include <cmath>
#include <vector>

#include "runtime/aggregate.h"
#include "runtime/system.h"
#include "util/check.h"
#include "util/rng.h"

namespace presto::apps {
namespace {

using runtime::Aggregate1D;
using runtime::NodeCtx;

struct Vec3 {
  double x = 0, y = 0, z = 0;
};
static_assert(sizeof(Vec3) == 24);

constexpr double kBox = 2.0;  // simulation cube [0, kBox)^3
constexpr int kLeafCap = 4;
constexpr int kMaxDepth = 24;

// Oct-tree cell. The header (read on every visit) is laid out first so a
// traversal that rejects a distant cell touches only its leading blocks;
// child pointers and leaf body copies follow and are read only when the
// cell is opened.
struct CellHeader {
  Vec3 com;
  double mass = 0;
  Vec3 center;
  double half = 0;          // half-width of the cube this cell covers
  std::int32_t nbodies = 0;  // -1 = internal node, >= 0 = leaf count
  std::int32_t pad = 0;
};
static_assert(sizeof(CellHeader) == 72);

struct CellChildren {
  mem::Addr child[8] = {0, 0, 0, 0, 0, 0, 0, 0};
};
struct CellBodies {
  Vec3 pos[kLeafCap];
  double mass[kLeafCap] = {0, 0, 0, 0};
};
struct Cell {
  CellHeader h;
  CellChildren c;
  CellBodies b;
};
constexpr mem::Addr kChildrenOff = sizeof(CellHeader);
constexpr mem::Addr kBodiesOff = sizeof(CellHeader) + sizeof(CellChildren);

constexpr int kPhaseBuild = 0;
constexpr int kPhaseForce = 1;
constexpr int kPhaseAdvance = 2;

mem::Addr alloc_cell(NodeCtx& c, const Vec3& center, double half) {
  const mem::Addr a = c.galloc(sizeof(Cell), 8);
  Cell cell;
  cell.h.center = center;
  cell.h.half = half;
  cell.h.nbodies = 0;
  c.write<Cell>(a, cell);
  return a;
}

int octant(const Vec3& center, const Vec3& p) {
  return (p.x >= center.x ? 1 : 0) | (p.y >= center.y ? 2 : 0) |
         (p.z >= center.z ? 4 : 0);
}

Vec3 child_center(const Vec3& center, double half, int q) {
  const double h = half * 0.5;
  return Vec3{center.x + ((q & 1) ? h : -h), center.y + ((q & 2) ? h : -h),
              center.z + ((q & 4) ? h : -h)};
}

// Inserts a body into the subtree rooted at `a`. All accesses are homed at
// the calling node (cells are arena-allocated locally; bodies are copies).
void insert_body(NodeCtx& c, mem::Addr a, const Vec3& p, double m,
                 int depth) {
  CellHeader h = c.read<CellHeader>(a);
  if (h.nbodies >= 0) {  // leaf
    if (h.nbodies < kLeafCap || depth >= kMaxDepth) {
      PRESTO_CHECK(h.nbodies < kLeafCap, "coincident bodies overflow leaf");
      CellBodies b = c.read<CellBodies>(a + kBodiesOff);
      b.pos[h.nbodies] = p;
      b.mass[h.nbodies] = m;
      ++h.nbodies;
      c.write<CellBodies>(a + kBodiesOff, b);
      c.write<CellHeader>(a, h);
      return;
    }
    // Split: convert to internal and reinsert the resident bodies.
    CellBodies b = c.read<CellBodies>(a + kBodiesOff);
    const int resident = h.nbodies;
    h.nbodies = -1;
    c.write<CellHeader>(a, h);
    for (int k = 0; k < resident; ++k)
      insert_body(c, a, b.pos[k], b.mass[k], depth);
    insert_body(c, a, p, m, depth);
    return;
  }
  // Internal: descend into (or create) the right octant.
  const int q = octant(h.center, p);
  CellChildren ch = c.read<CellChildren>(a + kChildrenOff);
  if (ch.child[q] == 0) {
    const mem::Addr sub =
        alloc_cell(c, child_center(h.center, h.half, q), h.half * 0.5);
    CellHeader sh = c.read<CellHeader>(sub);
    CellBodies sb;
    sb.pos[0] = p;
    sb.mass[0] = m;
    sh.nbodies = 1;
    c.write<CellBodies>(sub + kBodiesOff, sb);
    c.write<CellHeader>(sub, sh);
    ch.child[q] = sub;
    c.write<CellChildren>(a + kChildrenOff, ch);
    return;
  }
  c.charge_ops(6);
  insert_body(c, ch.child[q], p, m, depth + 1);
}

// Upward center-of-mass pass (home accesses only — the hoisted loop).
void center_of_mass(NodeCtx& c, mem::Addr a) {
  CellHeader h = c.read<CellHeader>(a);
  Vec3 com;
  double mass = 0;
  if (h.nbodies >= 0) {
    const CellBodies b = c.read<CellBodies>(a + kBodiesOff);
    for (int k = 0; k < h.nbodies; ++k) {
      com.x += b.pos[k].x * b.mass[k];
      com.y += b.pos[k].y * b.mass[k];
      com.z += b.pos[k].z * b.mass[k];
      mass += b.mass[k];
    }
    c.charge_flops(7 * h.nbodies);
  } else {
    const CellChildren ch = c.read<CellChildren>(a + kChildrenOff);
    for (const mem::Addr sub : ch.child) {
      if (sub == 0) continue;
      center_of_mass(c, sub);
      const CellHeader sh = c.read<CellHeader>(sub);
      com.x += sh.com.x * sh.mass;
      com.y += sh.com.y * sh.mass;
      com.z += sh.com.z * sh.mass;
      mass += sh.mass;
      c.charge_flops(7);
    }
  }
  if (mass > 0) {
    com.x /= mass;
    com.y /= mass;
    com.z /= mass;
  }
  h.com = com;
  h.mass = mass;
  c.write<CellHeader>(a, h);
}

// Gravitational acceleration on `p` from the subtree at `a` (remote,
// unstructured reads — the presend target).
Vec3 traverse(NodeCtx& c, mem::Addr a, const Vec3& p, double theta2,
              double eps2) {
  const CellHeader h = c.read<CellHeader>(a);
  const double dx = h.com.x - p.x, dy = h.com.y - p.y, dz = h.com.z - p.z;
  const double d2 = dx * dx + dy * dy + dz * dz;
  c.charge_flops(10);
  const double width = 2.0 * h.half;
  Vec3 acc;
  if (h.nbodies < 0 && width * width >= theta2 * d2) {
    // Too close: open the cell.
    const CellChildren ch = c.read<CellChildren>(a + kChildrenOff);
    for (const mem::Addr sub : ch.child) {
      if (sub == 0) continue;
      const Vec3 sa = traverse(c, sub, p, theta2, eps2);
      acc.x += sa.x;
      acc.y += sa.y;
      acc.z += sa.z;
    }
    return acc;
  }
  if (h.nbodies >= 0) {
    // Leaf: direct interactions with resident bodies.
    const CellBodies b = c.read<CellBodies>(a + kBodiesOff);
    for (int k = 0; k < h.nbodies; ++k) {
      const double bx = b.pos[k].x - p.x, by = b.pos[k].y - p.y,
                   bz = b.pos[k].z - p.z;
      const double r2 = bx * bx + by * by + bz * bz + eps2;
      if (r2 <= eps2) continue;  // self
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      acc.x += b.mass[k] * bx * inv;
      acc.y += b.mass[k] * by * inv;
      acc.z += b.mass[k] * bz * inv;
      c.charge_flops(18);
    }
    return acc;
  }
  // Far enough: use the aggregate center of mass.
  const double r2 = d2 + eps2;
  const double inv = 1.0 / (r2 * std::sqrt(r2));
  acc.x = h.mass * dx * inv;
  acc.y = h.mass * dy * inv;
  acc.z = h.mass * dz * inv;
  c.charge_flops(12);
  return acc;
}

// Deterministic, spatially coherent initial condition: body i sits near the
// i-th point of a Morton curve through a 32^3 lattice, with seeded jitter.
Vec3 initial_position(std::size_t i, std::uint64_t seed) {
  std::uint32_t x = 0, y = 0, z = 0;
  for (int b = 0; b < 10; ++b) {
    x |= static_cast<std::uint32_t>((i >> (3 * b + 0)) & 1) << b;
    y |= static_cast<std::uint32_t>((i >> (3 * b + 1)) & 1) << b;
    z |= static_cast<std::uint32_t>((i >> (3 * b + 2)) & 1) << b;
  }
  util::Rng rng(seed ^ (0xB0D1E5ULL * (i + 1)));
  const double cell = kBox / 32.0;
  auto jitter = [&] { return (rng.next_double() - 0.5) * 0.8 * cell; };
  return Vec3{(x % 32 + 0.5) * cell + jitter(), (y % 32 + 0.5) * cell + jitter(),
              (z % 32 + 0.5) * cell + jitter()};
}

Vec3 clamp_to_box(Vec3 p) {
  auto clamp = [](double v) {
    if (v < 0.0) return 0.0;
    if (v >= kBox) return kBox * (1.0 - 1e-12);
    return v;
  };
  return Vec3{clamp(p.x), clamp(p.y), clamp(p.z)};
}

}  // namespace

AppResult run_barnes(const BarnesParams& params,
                     const runtime::MachineConfig& machine,
                     runtime::ProtocolKind kind, bool directives) {
  runtime::System sys(machine, kind);
  const std::size_t n = params.bodies;

  auto pos = Aggregate1D<Vec3>::create(sys.space(), n);
  auto roots = Aggregate1D<mem::Addr>::create(
      sys.space(), static_cast<std::size_t>(machine.nodes));

  const double theta2 = params.theta * params.theta;
  const double eps2 = params.eps * params.eps;
  const double body_mass = 1.0 / static_cast<double>(n);
  double checksum = 0.0;

  sys.run([&](NodeCtx& c) {
    const auto [lo, hi] = pos.range(c.id());
    const std::size_t own = hi - lo;

    std::vector<Vec3> vel(own), acc(own);
    for (std::size_t i = lo; i < hi; ++i)
      pos.set(c, i, initial_position(i, c.machine().seed));
    c.barrier();

    const std::size_t arena0 = c.arena_mark();
    for (int step = 0; step < params.steps; ++step) {
      // ---- Phase 1: tree build (+ center of mass, hoisted) ----------------
      if (directives) c.phase(kPhaseBuild);
      c.arena_reset(arena0);
      const mem::Addr root = c.galloc(sizeof(Cell), 8);
      {
        Cell rc;
        rc.h.center = Vec3{kBox / 2, kBox / 2, kBox / 2};
        rc.h.half = kBox / 2;
        rc.h.nbodies = 0;
        c.write<Cell>(root, rc);
      }
      for (std::size_t i = lo; i < hi; ++i)
        insert_body(c, root, clamp_to_box(pos.get(c, i)), body_mass, 0);
      center_of_mass(c, root);
      roots.set(c, static_cast<std::size_t>(c.id()), root);
      // Hand-optimized SPMD under write-update: publish the rebuilt subtree
      // (and root slot) to every consumer the update protocol recorded.
      c.publish(0, c.space().size_bytes());
      c.barrier();

      // ---- Phase 3: force computation -------------------------------------
      if (directives) c.phase(kPhaseForce);
      for (std::size_t i = lo; i < hi; ++i) {
        const Vec3 p = pos.get(c, i);
        Vec3 a;
        for (int r = 0; r < c.nodes(); ++r) {
          const mem::Addr ra =
              roots.get(c, static_cast<std::size_t>(r));
          const Vec3 ra_acc = traverse(c, ra, p, theta2, eps2);
          a.x += ra_acc.x;
          a.y += ra_acc.y;
          a.z += ra_acc.z;
        }
        acc[i - lo] = a;
      }
      c.barrier();

      // ---- Phase 4: advance ------------------------------------------------
      if (directives) c.phase(kPhaseAdvance);
      for (std::size_t i = lo; i < hi; ++i) {
        Vec3 p = pos.get(c, i);
        Vec3& v = vel[i - lo];
        v.x += acc[i - lo].x * params.dt;
        v.y += acc[i - lo].y * params.dt;
        v.z += acc[i - lo].z * params.dt;
        p.x += v.x * params.dt;
        p.y += v.y * params.dt;
        p.z += v.z * params.dt;
        c.charge_flops(12);
        pos.set(c, i, clamp_to_box(p));
      }
      c.barrier();
    }

    // Checksum: kinetic energy plus a position fingerprint.
    double local = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      const Vec3& v = vel[i - lo];
      const Vec3 p = pos.get(c, i);
      local += 0.5 * body_mass * (v.x * v.x + v.y * v.y + v.z * v.z);
      local += 1e-3 * (p.x + 2 * p.y + 3 * p.z);
    }
    const double total = c.reduce_sum(local);
    if (c.id() == 0) checksum = total;
  });

  AppResult result;
  result.report = sys.report("");
  result.checksum = checksum;
  return result;
}

}  // namespace presto::apps
