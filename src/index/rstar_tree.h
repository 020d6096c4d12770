#ifndef EDR_INDEX_RSTAR_TREE_H_
#define EDR_INDEX_RSTAR_TREE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/point.h"

namespace edr {

/// An axis-aligned rectangle in the x-y plane.
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  /// Degenerate rectangle covering a single point.
  static Rect ForPoint(Point2 p) { return {p.x, p.y, p.x, p.y}; }

  /// Axis-aligned box [cx - r, cx + r] x [cy - r, cy + r]; the query region
  /// for mean-value-pair matching with threshold r (Definition 1 lifted to
  /// Q-gram means by Theorem 2).
  static Rect Around(Point2 center, double radius) {
    return {center.x - radius, center.y - radius, center.x + radius,
            center.y + radius};
  }

  double Area() const { return (max_x - min_x) * (max_y - min_y); }
  double Margin() const { return 2.0 * ((max_x - min_x) + (max_y - min_y)); }
  Point2 Center() const {
    return {(min_x + max_x) * 0.5, (min_y + max_y) * 0.5};
  }

  bool Intersects(const Rect& o) const {
    return min_x <= o.max_x && o.min_x <= max_x && min_y <= o.max_y &&
           o.min_y <= max_y;
  }
  bool Contains(Point2 p) const {
    return min_x <= p.x && p.x <= max_x && min_y <= p.y && p.y <= max_y;
  }
  bool Contains(const Rect& o) const {
    return min_x <= o.min_x && o.max_x <= max_x && min_y <= o.min_y &&
           o.max_y <= max_y;
  }

  /// Smallest rectangle enclosing both operands.
  static Rect Union(const Rect& a, const Rect& b);
  /// Area of the intersection (0 when disjoint).
  static double OverlapArea(const Rect& a, const Rect& b);
  /// Area growth of `a` needed to enclose `b`.
  static double Enlargement(const Rect& a, const Rect& b);
};

/// An in-memory R*-tree over 2-D points with uint32 payloads.
///
/// Substrate for the paper's "PR" pruning variant (Section 4.1): the mean
/// value pair of every Q-gram of every trajectory is inserted with the
/// trajectory id as payload, and a k-NN query probes the tree with a square
/// region of half-width epsilon around each query-gram mean.
///
/// Implements the R*-tree of Beckmann et al. (SIGMOD'90): ChooseSubtree with
/// minimum overlap enlargement at the leaf level, forced reinsertion of the
/// 30% outermost entries on first overflow per level, and the topological
/// margin-driven split. Deletion is not provided — the pruning indexes are
/// built once per dataset and then only queried.
class RStarTree {
 public:
  /// `max_entries` is the node capacity M (>= 4); the minimum fill m is
  /// 40% of M and the forced-reinsert count p is 30% of M, the parameters
  /// recommended by the R*-tree paper.
  explicit RStarTree(int max_entries = 16);
  ~RStarTree();

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;
  RStarTree(RStarTree&&) noexcept;
  RStarTree& operator=(RStarTree&&) noexcept;

  /// Inserts a point with its payload. Duplicate points are allowed.
  void Insert(Point2 p, uint32_t value);

  /// Builds a tree bottom-up with Sort-Tile-Recursive packing: items are
  /// sorted by x, cut into vertical slabs, sorted by y within each slab,
  /// and packed into full nodes; upper levels pack the node rectangles
  /// the same way. Much faster than repeated insertion and yields high
  /// fill factors. The result answers queries identically to an
  /// insertion-built tree.
  static RStarTree BulkLoad(std::vector<std::pair<Point2, uint32_t>> items,
                            int max_entries = 16);

  /// Invokes `visit` for the payload of every indexed point inside `query`
  /// (boundary inclusive).
  void SearchRange(const Rect& query,
                   const std::function<void(uint32_t)>& visit) const;

  /// Convenience overload collecting payloads into a vector.
  std::vector<uint32_t> SearchRange(const Rect& query) const;

  /// Number of indexed points.
  size_t size() const { return size_; }

  /// Height of the tree (1 for a root-only tree).
  int height() const;

  /// Structural invariant check for tests: parent rectangles tightly bound
  /// children, fill factors are respected, and all leaves share one level.
  bool Validate() const;

 private:
  struct Node;
  struct Entry;

  Node* ChooseSubtree(const Rect& rect, int target_level,
                      std::vector<Node*>& path) const;
  void InsertAtLevel(Entry entry, int target_level, bool forbid_reinsert);
  void OverflowTreatment(Node* node, std::vector<Node*>& path,
                         bool forbid_reinsert);
  void Reinsert(Node* node, std::vector<Node*>& path);
  void SplitNode(Node* node, std::vector<Node*>& path);
  static void RecomputeRects(std::vector<Node*>& path);

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  int max_entries_;
  int min_entries_;
  int reinsert_count_;
  /// Levels that already performed a forced reinsert during the current
  /// public Insert() call (R* does this once per level per insertion).
  mutable std::vector<bool> reinserted_on_level_;
};

}  // namespace edr

#endif  // EDR_INDEX_RSTAR_TREE_H_
