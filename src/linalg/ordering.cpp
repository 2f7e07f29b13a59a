#include "linalg/ordering.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::linalg {

namespace {

/// Node degree from CSR structure (self-loops excluded).
Index degree(const CsrMatrix& a, Index v) {
  Index d = 0;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (Index k = rp[static_cast<std::size_t>(v)];
       k < rp[static_cast<std::size_t>(v) + 1]; ++k) {
    if (ci[static_cast<std::size_t>(k)] != v) {
      ++d;
    }
  }
  return d;
}

/// BFS from `start`; returns the last-discovered minimum-degree node of the
/// deepest level (pseudo-peripheral heuristic) and marks visited nodes.
Index pseudo_peripheral(const CsrMatrix& a, Index start,
                        const std::vector<bool>& assigned) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  Index current = start;
  Index last_depth = -1;
  for (int pass = 0; pass < 4; ++pass) {
    std::vector<Index> depth(static_cast<std::size_t>(a.rows()), -1);
    std::queue<Index> queue;
    depth[static_cast<std::size_t>(current)] = 0;
    queue.push(current);
    Index deepest = current;
    while (!queue.empty()) {
      const Index v = queue.front();
      queue.pop();
      for (Index k = rp[static_cast<std::size_t>(v)];
           k < rp[static_cast<std::size_t>(v) + 1]; ++k) {
        const Index u = ci[static_cast<std::size_t>(k)];
        if (u == v || assigned[static_cast<std::size_t>(u)] ||
            depth[static_cast<std::size_t>(u)] >= 0) {
          continue;
        }
        depth[static_cast<std::size_t>(u)] =
            depth[static_cast<std::size_t>(v)] + 1;
        queue.push(u);
        if (depth[static_cast<std::size_t>(u)] >
                depth[static_cast<std::size_t>(deepest)] ||
            (depth[static_cast<std::size_t>(u)] ==
                 depth[static_cast<std::size_t>(deepest)] &&
             degree(a, u) < degree(a, deepest))) {
          deepest = u;
        }
      }
    }
    if (depth[static_cast<std::size_t>(deepest)] <= last_depth) {
      break;
    }
    last_depth = depth[static_cast<std::size_t>(deepest)];
    current = deepest;
  }
  return current;
}

}  // namespace

std::vector<Index> rcm_ordering(const CsrMatrix& a) {
  PPDL_REQUIRE(a.rows() == a.cols(), "RCM needs a square matrix");
  const Index n = a.rows();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();

  std::vector<Index> order;  // Cuthill–McKee order (to be reversed).
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> assigned(static_cast<std::size_t>(n), false);

  for (Index seed = 0; seed < n; ++seed) {
    if (assigned[static_cast<std::size_t>(seed)]) {
      continue;
    }
    const Index start = pseudo_peripheral(a, seed, assigned);
    std::queue<Index> queue;
    queue.push(start);
    assigned[static_cast<std::size_t>(start)] = true;
    while (!queue.empty()) {
      const Index v = queue.front();
      queue.pop();
      order.push_back(v);
      std::vector<Index> nbrs;
      for (Index k = rp[static_cast<std::size_t>(v)];
           k < rp[static_cast<std::size_t>(v) + 1]; ++k) {
        const Index u = ci[static_cast<std::size_t>(k)];
        if (u != v && !assigned[static_cast<std::size_t>(u)]) {
          nbrs.push_back(u);
          assigned[static_cast<std::size_t>(u)] = true;
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](Index x, Index y) {
        return degree(a, x) < degree(a, y);
      });
      for (const Index u : nbrs) {
        queue.push(u);
      }
    }
  }

  PPDL_ENSURE(static_cast<Index>(order.size()) == n,
              "RCM did not visit every node");
  // Reverse, then express as perm[old] = new.
  std::vector<Index> perm(static_cast<std::size_t>(n));
  for (Index pos = 0; pos < n; ++pos) {
    const Index old = order[static_cast<std::size_t>(n - 1 - pos)];
    perm[static_cast<std::size_t>(old)] = pos;
  }
  return perm;
}

namespace {

/// One nested-dissection subproblem: `nodes` owns the new index range
/// ending (exclusive) at `hi` in elimination order.
struct NdTask {
  std::vector<Index> nodes;
  Index hi = 0;
};

/// Nested-dissection state shared by all tasks. The two parts of a split
/// share no edge (their BFS levels differ by at least 2; unreached nodes
/// have no edge into the reached set), so by induction a task's nodes are
/// adjacent only to each other and to separators numbered before the task
/// was created. A task therefore reads and writes `perm`, `in_task` and
/// `level` entries of its own nodes only, reads nothing else but those
/// separators' entries, and disjoint tasks can run concurrently.
class NestedDissection {
 public:
  explicit NestedDissection(const CsrMatrix& a)
      : rp_(a.row_ptr()),
        ci_(a.col_idx()),
        perm_(static_cast<std::size_t>(a.rows()), -1),
        in_task_(static_cast<std::size_t>(a.rows()), 0),
        level_(static_cast<std::size_t>(a.rows()), -1) {}

  /// Numbers `task` as a leaf or splits it: numbers its separator,
  /// appends the two halves to `subtasks` and the split to `splits` (when
  /// given). `stamp` is the caller's membership stamp counter; it must
  /// exceed every stamp already stored on the task's nodes and their
  /// neighbours.
  void process(const NdTask& task, Index& stamp,
               std::vector<NdTask>& subtasks, std::vector<NdSplit>* splits);

  /// Runs `task` and everything below it to completion.
  void run(NdTask task, Index stamp, std::vector<NdSplit>* splits) {
    std::vector<NdTask> tasks;
    tasks.push_back(std::move(task));
    while (!tasks.empty()) {
      const NdTask next = std::move(tasks.back());
      tasks.pop_back();
      process(next, stamp, tasks, splits);
    }
  }

  std::vector<Index>& perm() { return perm_; }

 private:
  // Below this size a separator no longer pays for itself; BFS-order the
  // block instead (locality is all that is left to win).
  static constexpr Index kLeaf = 48;

  void order_leaf(const std::vector<Index>& nodes, Index hi, Index& stamp);

  std::span<const Index> rp_;
  std::span<const Index> ci_;
  std::vector<Index> perm_;
  // Subgraph membership via stamps: in_task[v] == stamp ⇔ v belongs to the
  // task being processed (O(1) reset between tasks).
  std::vector<Index> in_task_;
  std::vector<Index> level_;
};

// Orders `nodes` into new indices [hi - |nodes|, hi) by BFS within the
// subgraph — every node gets a number, disconnected pieces included.
void NestedDissection::order_leaf(const std::vector<Index>& nodes, Index hi,
                                  Index& stamp) {
  ++stamp;
  for (const Index v : nodes) {
    in_task_[static_cast<std::size_t>(v)] = stamp;
  }
  Index next = hi - static_cast<Index>(nodes.size());
  std::vector<Index> queue;
  for (const Index seed : nodes) {
    if (perm_[static_cast<std::size_t>(seed)] >= 0 ||
        in_task_[static_cast<std::size_t>(seed)] != stamp) {
      continue;
    }
    queue.clear();
    queue.push_back(seed);
    in_task_[static_cast<std::size_t>(seed)] = stamp - 1;  // dequeued mark
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Index v = queue[head];
      perm_[static_cast<std::size_t>(v)] = next++;
      for (Index k = rp_[static_cast<std::size_t>(v)];
           k < rp_[static_cast<std::size_t>(v) + 1]; ++k) {
        const Index u = ci_[static_cast<std::size_t>(k)];
        if (u != v && in_task_[static_cast<std::size_t>(u)] == stamp) {
          in_task_[static_cast<std::size_t>(u)] = stamp - 1;
          queue.push_back(u);
        }
      }
    }
  }
}

void NestedDissection::process(const NdTask& task, Index& stamp,
                               std::vector<NdTask>& subtasks,
                               std::vector<NdSplit>* splits) {
  const Index m = static_cast<Index>(task.nodes.size());
  if (m == 0) {
    return;
  }
  if (m <= kLeaf) {
    order_leaf(task.nodes, task.hi, stamp);
    return;
  }

  // BFS level structure within the subgraph. Two passes: the deepest
  // node of the first BFS is a pseudo-peripheral start for the second,
  // which stretches the level structure along the subgraph's diameter so
  // individual levels (the separator candidates) are thin. `reached` is
  // the BFS queue itself (discovery order).
  ++stamp;
  for (const Index v : task.nodes) {
    in_task_[static_cast<std::size_t>(v)] = stamp;
  }
  std::vector<Index> reached;
  reached.reserve(static_cast<std::size_t>(m));
  Index max_level = 0;
  Index start = task.nodes.front();
  for (int pass = 0; pass < 2; ++pass) {
    reached.clear();
    max_level = 0;
    for (const Index v : task.nodes) {
      level_[static_cast<std::size_t>(v)] = -1;
    }
    level_[static_cast<std::size_t>(start)] = 0;
    reached.push_back(start);
    for (std::size_t head = 0; head < reached.size(); ++head) {
      const Index v = reached[head];
      for (Index k = rp_[static_cast<std::size_t>(v)];
           k < rp_[static_cast<std::size_t>(v) + 1]; ++k) {
        const Index u = ci_[static_cast<std::size_t>(k)];
        if (u == v || in_task_[static_cast<std::size_t>(u)] != stamp ||
            level_[static_cast<std::size_t>(u)] >= 0) {
          continue;
        }
        level_[static_cast<std::size_t>(u)] =
            level_[static_cast<std::size_t>(v)] + 1;
        max_level = std::max(max_level, level_[static_cast<std::size_t>(u)]);
        reached.push_back(u);
      }
    }
    start = reached.back();  // deepest-discovered node
  }

  if (max_level < 2) {
    // Too shallow to cut (clique-ish or tiny diameter): no separator
    // smaller than a level exists along this structure.
    order_leaf(task.nodes, task.hi, stamp);
    return;
  }

  // Separator: the thinnest level inside the middle band of the
  // structure (split balance is secondary to separator size — fill grows
  // with the square of the separator). Everything shallower is part A,
  // deeper is part B. Unreached nodes (disconnected pieces) have no
  // edges into the reached set, so they join part B freely.
  std::vector<Index> level_count(static_cast<std::size_t>(max_level + 1), 0);
  for (const Index v : reached) {
    ++level_count[static_cast<std::size_t>(
        level_[static_cast<std::size_t>(v)])];
  }
  const Index band_lo = std::max<Index>(1, max_level / 4);
  const Index band_hi = std::min(max_level - 1, (3 * max_level) / 4);
  Index mid = band_lo;
  for (Index lv = band_lo; lv <= band_hi; ++lv) {
    if (level_count[static_cast<std::size_t>(lv)] <
        level_count[static_cast<std::size_t>(mid)]) {
      mid = lv;
    }
  }

  NdTask part_a;
  NdTask part_b;
  std::vector<Index> separator;
  for (const Index v : task.nodes) {
    const Index lv = level_[static_cast<std::size_t>(v)];
    if (lv == mid) {
      separator.push_back(v);
    } else if (lv >= 0 && lv < mid) {
      part_a.nodes.push_back(v);
    } else {
      part_b.nodes.push_back(v);
    }
  }
  if (part_a.nodes.empty() || part_b.nodes.empty()) {
    order_leaf(task.nodes, task.hi, stamp);
    return;
  }

  // Separator takes the top numbers of this range; the halves recurse.
  Index next = task.hi - static_cast<Index>(separator.size());
  for (const Index v : separator) {
    perm_[static_cast<std::size_t>(v)] = next++;
  }
  part_b.hi = task.hi - static_cast<Index>(separator.size());
  part_a.hi = part_b.hi - static_cast<Index>(part_b.nodes.size());
  if (splits != nullptr) {
    splits->push_back({part_a.hi - static_cast<Index>(part_a.nodes.size()),
                       part_a.hi, part_b.hi, task.hi});
  }
  subtasks.push_back(std::move(part_a));
  subtasks.push_back(std::move(part_b));
}

}  // namespace

std::vector<Index> nd_ordering(const CsrMatrix& a,
                               std::vector<NdSplit>* splits) {
  PPDL_REQUIRE(a.rows() == a.cols(),
               "nested dissection needs a square matrix");
  const Index n = a.rows();
  NestedDissection nd(a);

  // Tasks above n / kSubtasks nodes are split serially; the subtasks they
  // leave (a set fixed by the matrix structure alone) run as one pool
  // chunk each, every chunk the same serial loop. Stamps from the serial
  // phase are all ≤ `stamp`, and a chunk compares stamps only on its own
  // nodes and on separators, so every chunk may start counting from that
  // same value.
  constexpr Index kSubtasks = 8;
  const Index cap = std::max<Index>(1, n / kSubtasks);
  Index stamp = 0;
  std::vector<NdTask> pending(1);
  pending.front().nodes.resize(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) {
    pending.front().nodes[static_cast<std::size_t>(v)] = v;
  }
  pending.front().hi = n;
  std::vector<NdTask> subtasks;
  while (!pending.empty()) {
    NdTask task = std::move(pending.back());
    pending.pop_back();
    if (static_cast<Index>(task.nodes.size()) > cap) {
      nd.process(task, stamp, pending, splits);
    } else if (!task.nodes.empty()) {
      subtasks.push_back(std::move(task));
    }
  }
  // Largest first, so the pool's in-order chunk claiming balances well.
  std::sort(subtasks.begin(), subtasks.end(),
            [](const NdTask& x, const NdTask& y) {
              return x.nodes.size() != y.nodes.size()
                         ? x.nodes.size() > y.nodes.size()
                         : x.hi > y.hi;
            });
  std::vector<std::vector<NdSplit>> subtask_splits(
      splits != nullptr ? subtasks.size() : 0);
  parallel::for_range(
      static_cast<Index>(subtasks.size()), 1, [&](Index begin, Index end) {
        for (Index t = begin; t < end; ++t) {
          const auto tu = static_cast<std::size_t>(t);
          nd.run(std::move(subtasks[tu]), stamp,
                 splits != nullptr ? &subtask_splits[tu] : nullptr);
        }
      });
  for (const std::vector<NdSplit>& part : subtask_splits) {
    splits->insert(splits->end(), part.begin(), part.end());
  }

  std::vector<Index>& perm = nd.perm();
  for (Index v = 0; v < n; ++v) {
    PPDL_ENSURE(perm[static_cast<std::size_t>(v)] >= 0,
                "nested dissection did not number every node");
  }
  return std::move(perm);
}

Index bandwidth(const CsrMatrix& a) {
  Index bw = 0;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      bw = std::max(bw, std::abs(r - ci[static_cast<std::size_t>(k)]));
    }
  }
  return bw;
}

std::vector<Index> invert_permutation(std::span<const Index> perm) {
  std::vector<Index> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    PPDL_REQUIRE(perm[i] >= 0 && perm[i] < static_cast<Index>(perm.size()),
                 "invalid permutation entry");
    inv[static_cast<std::size_t>(perm[i])] = static_cast<Index>(i);
  }
  return inv;
}

std::vector<Real> apply_permutation(std::span<const Index> perm,
                                    std::span<const Real> v) {
  PPDL_REQUIRE(perm.size() == v.size(), "permutation size mismatch");
  std::vector<Real> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[static_cast<std::size_t>(perm[i])] = v[i];
  }
  return out;
}

}  // namespace ppdl::linalg
