#include "index/rstar_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace edr {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Rect Rect::Union(const Rect& a, const Rect& b) {
  return {std::min(a.min_x, b.min_x), std::min(a.min_y, b.min_y),
          std::max(a.max_x, b.max_x), std::max(a.max_y, b.max_y)};
}

double Rect::OverlapArea(const Rect& a, const Rect& b) {
  const double w =
      std::min(a.max_x, b.max_x) - std::max(a.min_x, b.min_x);
  const double h =
      std::min(a.max_y, b.max_y) - std::max(a.min_y, b.min_y);
  if (w <= 0.0 || h <= 0.0) return 0.0;
  return w * h;
}

double Rect::Enlargement(const Rect& a, const Rect& b) {
  return Union(a, b).Area() - a.Area();
}

/// An entry is either (rect, payload) in a leaf or (rect, child) in an
/// internal node; `child == nullptr` distinguishes the two.
struct RStarTree::Entry {
  Rect rect;
  uint32_t value = 0;
  std::unique_ptr<Node> child;
};

struct RStarTree::Node {
  int level = 0;  // 0 = leaf.
  std::vector<Entry> entries;

  bool leaf() const { return level == 0; }

  Rect Mbr() const {
    Rect r = entries.front().rect;
    for (size_t i = 1; i < entries.size(); ++i) {
      r = Rect::Union(r, entries[i].rect);
    }
    return r;
  }
};

RStarTree::RStarTree(int max_entries)
    : root_(std::make_unique<Node>()),
      max_entries_(std::max(4, max_entries)),
      min_entries_(std::max(2, max_entries_ * 2 / 5)),
      reinsert_count_(std::max(1, max_entries_ * 3 / 10)) {}

RStarTree::~RStarTree() = default;
RStarTree::RStarTree(RStarTree&&) noexcept = default;
RStarTree& RStarTree::operator=(RStarTree&&) noexcept = default;

void RStarTree::Insert(Point2 p, uint32_t value) {
  reinserted_on_level_.assign(root_->level + 1, false);
  Entry entry;
  entry.rect = Rect::ForPoint(p);
  entry.value = value;
  InsertAtLevel(std::move(entry), 0, /*forbid_reinsert=*/false);
  ++size_;
}

RStarTree::Node* RStarTree::ChooseSubtree(const Rect& rect, int target_level,
                                          std::vector<Node*>& path) const {
  Node* node = root_.get();
  path.push_back(node);
  while (node->level > target_level) {
    size_t best = 0;
    if (node->level == 1) {
      // Children are leaves: minimize overlap enlargement, breaking ties by
      // area enlargement, then by area (R* ChooseSubtree).
      double best_overlap = kInf;
      double best_enlarge = kInf;
      double best_area = kInf;
      for (size_t i = 0; i < node->entries.size(); ++i) {
        const Rect& child_rect = node->entries[i].rect;
        const Rect enlarged = Rect::Union(child_rect, rect);
        double overlap_delta = 0.0;
        for (size_t j = 0; j < node->entries.size(); ++j) {
          if (j == i) continue;
          overlap_delta +=
              Rect::OverlapArea(enlarged, node->entries[j].rect) -
              Rect::OverlapArea(child_rect, node->entries[j].rect);
        }
        const double enlarge = Rect::Enlargement(child_rect, rect);
        const double area = child_rect.Area();
        if (overlap_delta < best_overlap ||
            (overlap_delta == best_overlap && enlarge < best_enlarge) ||
            (overlap_delta == best_overlap && enlarge == best_enlarge &&
             area < best_area)) {
          best = i;
          best_overlap = overlap_delta;
          best_enlarge = enlarge;
          best_area = area;
        }
      }
    } else {
      // Minimize area enlargement, ties by area.
      double best_enlarge = kInf;
      double best_area = kInf;
      for (size_t i = 0; i < node->entries.size(); ++i) {
        const Rect& child_rect = node->entries[i].rect;
        const double enlarge = Rect::Enlargement(child_rect, rect);
        const double area = child_rect.Area();
        if (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)) {
          best = i;
          best_enlarge = enlarge;
          best_area = area;
        }
      }
    }
    node->entries[best].rect = Rect::Union(node->entries[best].rect, rect);
    node = node->entries[best].child.get();
    path.push_back(node);
  }
  return node;
}

void RStarTree::InsertAtLevel(Entry entry, int target_level,
                              bool forbid_reinsert) {
  std::vector<Node*> path;
  Node* node = ChooseSubtree(entry.rect, target_level, path);
  node->entries.push_back(std::move(entry));
  if (static_cast<int>(node->entries.size()) > max_entries_) {
    OverflowTreatment(node, path, forbid_reinsert);
  } else {
    RecomputeRects(path);
  }
}

void RStarTree::OverflowTreatment(Node* node, std::vector<Node*>& path,
                                  bool forbid_reinsert) {
  const bool is_root = node == root_.get();
  const size_t level = static_cast<size_t>(node->level);
  if (!is_root && !forbid_reinsert && level < reinserted_on_level_.size() &&
      !reinserted_on_level_[level]) {
    reinserted_on_level_[level] = true;
    Reinsert(node, path);
  } else {
    SplitNode(node, path);
  }
}

void RStarTree::Reinsert(Node* node, std::vector<Node*>& path) {
  // Sort entries by distance of their center from the node MBR center, and
  // remove the p farthest ("far reinsert"), then reinsert them top-down.
  const Point2 center = node->Mbr().Center();
  std::vector<size_t> order(node->entries.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return SquaredDist(node->entries[a].rect.Center(), center) >
           SquaredDist(node->entries[b].rect.Center(), center);
  });

  std::vector<Entry> removed;
  removed.reserve(reinsert_count_);
  std::vector<bool> is_removed(node->entries.size(), false);
  for (int i = 0; i < reinsert_count_; ++i) is_removed[order[i]] = true;

  std::vector<Entry> kept;
  kept.reserve(node->entries.size() - reinsert_count_);
  for (size_t i = 0; i < node->entries.size(); ++i) {
    if (is_removed[i]) {
      removed.push_back(std::move(node->entries[i]));
    } else {
      kept.push_back(std::move(node->entries[i]));
    }
  }
  node->entries = std::move(kept);
  RecomputeRects(path);

  const int level = node->level;
  for (Entry& e : removed) {
    // A reinsert may itself overflow; forbid recursive reinsertion at this
    // level (the flag is already set, but the root may have grown and
    // resized the flag vector, so pass an explicit guard too).
    InsertAtLevel(std::move(e), level, /*forbid_reinsert=*/true);
  }
}

void RStarTree::SplitNode(Node* node, std::vector<Node*>& path) {
  // R* topological split. Choose the split axis minimizing the sum of
  // margins over all candidate distributions, then the distribution with
  // minimal overlap (ties: minimal total area).
  const int total = static_cast<int>(node->entries.size());
  const int min_k = min_entries_;
  const int max_k = total - min_entries_;

  auto evaluate_axis = [&](bool by_x, std::vector<size_t>& order) {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const Rect& ra = node->entries[a].rect;
      const Rect& rb = node->entries[b].rect;
      if (by_x) {
        if (ra.min_x != rb.min_x) return ra.min_x < rb.min_x;
        return ra.max_x < rb.max_x;
      }
      if (ra.min_y != rb.min_y) return ra.min_y < rb.min_y;
      return ra.max_y < rb.max_y;
    });
    // Prefix/suffix MBRs for O(n) margin evaluation.
    std::vector<Rect> prefix(total);
    std::vector<Rect> suffix(total);
    prefix[0] = node->entries[order[0]].rect;
    for (int i = 1; i < total; ++i) {
      prefix[i] = Rect::Union(prefix[i - 1], node->entries[order[i]].rect);
    }
    suffix[total - 1] = node->entries[order[total - 1]].rect;
    for (int i = total - 2; i >= 0; --i) {
      suffix[i] = Rect::Union(suffix[i + 1], node->entries[order[i]].rect);
    }
    double margin_sum = 0.0;
    for (int k = min_k; k <= max_k; ++k) {
      margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    return std::make_tuple(margin_sum, std::move(prefix), std::move(suffix));
  };

  std::vector<size_t> order_x(total);
  std::vector<size_t> order_y(total);
  auto [margin_x, prefix_x, suffix_x] = evaluate_axis(true, order_x);
  auto [margin_y, prefix_y, suffix_y] = evaluate_axis(false, order_y);

  const bool use_x = margin_x <= margin_y;
  const std::vector<size_t>& order = use_x ? order_x : order_y;
  const std::vector<Rect>& prefix = use_x ? prefix_x : prefix_y;
  const std::vector<Rect>& suffix = use_x ? suffix_x : suffix_y;

  int best_k = min_k;
  double best_overlap = kInf;
  double best_area = kInf;
  for (int k = min_k; k <= max_k; ++k) {
    const double overlap = Rect::OverlapArea(prefix[k - 1], suffix[k]);
    const double area = prefix[k - 1].Area() + suffix[k].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_k = k;
      best_overlap = overlap;
      best_area = area;
    }
  }

  auto sibling = std::make_unique<Node>();
  sibling->level = node->level;
  std::vector<Entry> first_group;
  first_group.reserve(best_k);
  for (int i = 0; i < best_k; ++i) {
    first_group.push_back(std::move(node->entries[order[i]]));
  }
  for (int i = best_k; i < total; ++i) {
    sibling->entries.push_back(std::move(node->entries[order[i]]));
  }
  node->entries = std::move(first_group);

  if (node == root_.get()) {
    // Grow the tree: new root with the old root and its sibling as children.
    auto new_root = std::make_unique<Node>();
    new_root->level = node->level + 1;
    Entry left;
    left.rect = node->Mbr();
    left.child = std::move(root_);
    Entry right;
    right.rect = sibling->Mbr();
    right.child = std::move(sibling);
    new_root->entries.push_back(std::move(left));
    new_root->entries.push_back(std::move(right));
    root_ = std::move(new_root);
    reinserted_on_level_.resize(root_->level + 1, true);
    return;
  }

  // Attach the sibling to the parent and fix rectangles; the parent itself
  // may now overflow.
  path.pop_back();
  Node* parent = path.back();
  for (Entry& e : parent->entries) {
    if (e.child.get() == node) {
      e.rect = node->Mbr();
      break;
    }
  }
  Entry sibling_entry;
  sibling_entry.rect = sibling->Mbr();
  sibling_entry.child = std::move(sibling);
  parent->entries.push_back(std::move(sibling_entry));
  if (static_cast<int>(parent->entries.size()) > max_entries_) {
    OverflowTreatment(parent, path, /*forbid_reinsert=*/false);
  } else {
    RecomputeRects(path);
  }
}

void RStarTree::RecomputeRects(std::vector<Node*>& path) {
  // Walk from the deepest node up, tightening each parent entry's rect.
  for (size_t i = path.size(); i-- > 1;) {
    Node* child = path[i];
    Node* parent = path[i - 1];
    for (Entry& e : parent->entries) {
      if (e.child.get() == child) {
        e.rect = child->Mbr();
        break;
      }
    }
  }
}

RStarTree RStarTree::BulkLoad(std::vector<std::pair<Point2, uint32_t>> items,
                              int max_entries) {
  RStarTree tree(max_entries);
  tree.size_ = items.size();
  if (items.empty()) return tree;
  const size_t capacity = static_cast<size_t>(tree.max_entries_);

  // Level 0: Sort-Tile-Recursive leaf packing.
  std::sort(items.begin(), items.end(),
            [](const std::pair<Point2, uint32_t>& a,
               const std::pair<Point2, uint32_t>& b) {
              if (a.first.x != b.first.x) return a.first.x < b.first.x;
              return a.first.y < b.first.y;
            });
  const size_t num_leaves = (items.size() + capacity - 1) / capacity;
  const size_t num_slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slab_size =
      (items.size() + num_slabs - 1) / num_slabs;

  std::vector<std::unique_ptr<Node>> level;
  for (size_t slab_begin = 0; slab_begin < items.size();
       slab_begin += slab_size) {
    const size_t slab_end = std::min(items.size(), slab_begin + slab_size);
    std::sort(items.begin() + static_cast<long>(slab_begin),
              items.begin() + static_cast<long>(slab_end),
              [](const std::pair<Point2, uint32_t>& a,
                 const std::pair<Point2, uint32_t>& b) {
                if (a.first.y != b.first.y) return a.first.y < b.first.y;
                return a.first.x < b.first.x;
              });
    for (size_t begin = slab_begin; begin < slab_end; begin += capacity) {
      size_t end = std::min(slab_end, begin + capacity);
      // Avoid an undersized trailing node: split the remainder evenly
      // with this node so both respect the minimum fill.
      const size_t remaining_after = slab_end - end;
      if (remaining_after > 0 &&
          remaining_after < static_cast<size_t>(tree.min_entries_)) {
        end = begin + (slab_end - begin + 1) / 2;
      }
      auto node = std::make_unique<Node>();
      node->level = 0;
      for (size_t i = begin; i < end; ++i) {
        Entry e;
        e.rect = Rect::ForPoint(items[i].first);
        e.value = items[i].second;
        node->entries.push_back(std::move(e));
      }
      level.push_back(std::move(node));
      begin = end - capacity;  // Loop adds capacity back.
    }
  }

  // Upper levels: pack child rectangles with the same STR sweep until a
  // single root remains.
  int current_level = 0;
  while (level.size() > 1) {
    ++current_level;
    std::sort(level.begin(), level.end(),
              [](const std::unique_ptr<Node>& a,
                 const std::unique_ptr<Node>& b) {
                const Point2 ca = a->Mbr().Center();
                const Point2 cb = b->Mbr().Center();
                if (ca.x != cb.x) return ca.x < cb.x;
                return ca.y < cb.y;
              });
    const size_t num_parents = (level.size() + capacity - 1) / capacity;
    const size_t parent_slabs = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(num_parents))));
    const size_t parent_slab_size =
        (level.size() + parent_slabs - 1) / parent_slabs;
    for (size_t slab_begin = 0; slab_begin < level.size();
         slab_begin += parent_slab_size) {
      const size_t slab_end =
          std::min(level.size(), slab_begin + parent_slab_size);
      std::sort(level.begin() + static_cast<long>(slab_begin),
                level.begin() + static_cast<long>(slab_end),
                [](const std::unique_ptr<Node>& a,
                   const std::unique_ptr<Node>& b) {
                  const Point2 ca = a->Mbr().Center();
                  const Point2 cb = b->Mbr().Center();
                  if (ca.y != cb.y) return ca.y < cb.y;
                  return ca.x < cb.x;
                });
    }

    std::vector<std::unique_ptr<Node>> parents;
    for (size_t begin = 0; begin < level.size(); begin += capacity) {
      size_t end = std::min(level.size(), begin + capacity);
      const size_t remaining_after = level.size() - end;
      if (remaining_after > 0 &&
          remaining_after < static_cast<size_t>(tree.min_entries_)) {
        end = begin + (level.size() - begin + 1) / 2;
      }
      auto parent = std::make_unique<Node>();
      parent->level = current_level;
      for (size_t i = begin; i < end; ++i) {
        Entry e;
        e.rect = level[i]->Mbr();
        e.child = std::move(level[i]);
        parent->entries.push_back(std::move(e));
      }
      parents.push_back(std::move(parent));
      begin = end - capacity;
    }
    level = std::move(parents);
  }

  tree.root_ = std::move(level.front());
  return tree;
}

void RStarTree::SearchRange(const Rect& query,
                            const std::function<void(uint32_t)>& visit) const {
  if (size_ == 0) return;
  // Iterative DFS to avoid exposing Node in the header's private section
  // via free functions.
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const Entry& e : node->entries) {
      if (!query.Intersects(e.rect)) continue;
      if (node->leaf()) {
        visit(e.value);
      } else {
        stack.push_back(e.child.get());
      }
    }
  }
}

std::vector<uint32_t> RStarTree::SearchRange(const Rect& query) const {
  std::vector<uint32_t> out;
  SearchRange(query, [&out](uint32_t v) { out.push_back(v); });
  return out;
}

int RStarTree::height() const { return root_->level + 1; }

bool RStarTree::Validate() const {
  bool ok = true;
  size_t leaf_entries = 0;
  // DFS with (node, is_root) pairs.
  std::vector<std::pair<const Node*, bool>> stack{{root_.get(), true}};
  while (!stack.empty() && ok) {
    auto [node, is_root] = stack.back();
    stack.pop_back();
    const int count = static_cast<int>(node->entries.size());
    if (!is_root && (count < min_entries_ || count > max_entries_)) ok = false;
    if (is_root && count > max_entries_) ok = false;
    if (node->leaf()) {
      leaf_entries += node->entries.size();
      for (const Entry& e : node->entries) {
        if (e.child) ok = false;
      }
    } else {
      for (const Entry& e : node->entries) {
        if (!e.child || e.child->level != node->level - 1) {
          ok = false;
          break;
        }
        // Parent rect must tightly equal the child MBR.
        const Rect mbr = e.child->Mbr();
        if (mbr.min_x != e.rect.min_x || mbr.min_y != e.rect.min_y ||
            mbr.max_x != e.rect.max_x || mbr.max_y != e.rect.max_y) {
          ok = false;
          break;
        }
        stack.push_back({e.child.get(), false});
      }
    }
  }
  return ok && leaf_entries == size_;
}

}  // namespace edr
