#include "index/bplus_tree.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace edr {

/// Internal nodes hold `keys` as separators with `children.size() ==
/// keys.size() + 1`; a key at index i separates children i and i+1 (keys in
/// child i are < keys[i], keys in child i+1 are >= keys[i]). Leaves hold
/// parallel `keys`/`values` and a `next` pointer forming the scan chain.
struct BPlusTree::Node {
  bool leaf = true;
  std::vector<double> keys;
  std::vector<uint32_t> values;                 // leaf only
  std::vector<std::unique_ptr<Node>> children;  // internal only
  Node* next = nullptr;                         // leaf chain
};

BPlusTree::BPlusTree(int order)
    : root_(std::make_unique<Node>()), order_(std::max(4, order)) {}

BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

void BPlusTree::SplitChild(Node* parent, int index) {
  Node* child = parent->children[static_cast<size_t>(index)].get();
  auto sibling = std::make_unique<Node>();
  sibling->leaf = child->leaf;

  const size_t mid = child->keys.size() / 2;
  double separator;
  if (child->leaf) {
    // Leaf split: the separator is copied up; the sibling keeps keys[mid..].
    separator = child->keys[mid];
    sibling->keys.assign(child->keys.begin() + mid, child->keys.end());
    sibling->values.assign(child->values.begin() + mid, child->values.end());
    child->keys.resize(mid);
    child->values.resize(mid);
    sibling->next = child->next;
    child->next = sibling.get();
  } else {
    // Internal split: the separator moves up; it belongs to neither side.
    separator = child->keys[mid];
    sibling->keys.assign(child->keys.begin() + mid + 1, child->keys.end());
    for (size_t i = mid + 1; i < child->children.size(); ++i) {
      sibling->children.push_back(std::move(child->children[i]));
    }
    child->keys.resize(mid);
    child->children.resize(mid + 1);
  }

  parent->keys.insert(parent->keys.begin() + index, separator);
  parent->children.insert(parent->children.begin() + index + 1,
                          std::move(sibling));
}

void BPlusTree::Insert(double key, uint32_t value) {
  if (static_cast<int>(root_->keys.size()) >= order_) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }

  Node* node = root_.get();
  while (!node->leaf) {
    // Descend into the child whose key range contains `key`; duplicates of a
    // separator key live in the right child (>= separator).
    const auto it =
        std::upper_bound(node->keys.begin(), node->keys.end(), key);
    size_t idx = static_cast<size_t>(it - node->keys.begin());
    Node* child = node->children[idx].get();
    if (static_cast<int>(child->keys.size()) >= order_) {
      SplitChild(node, static_cast<int>(idx));
      if (key >= node->keys[idx]) ++idx;
      child = node->children[idx].get();
    }
    node = child;
  }

  const auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
  const size_t pos = static_cast<size_t>(it - node->keys.begin());
  node->keys.insert(node->keys.begin() + pos, key);
  node->values.insert(node->values.begin() + pos, value);
  ++size_;
}

void BPlusTree::SearchRange(
    double lo, double hi,
    const std::function<void(double, uint32_t)>& visit) const {
  if (size_ == 0 || lo > hi) return;
  // Descend to the leftmost leaf that can contain `lo`.
  const Node* node = root_.get();
  while (!node->leaf) {
    const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), lo);
    // Keys equal to a separator are in the right child, but keys < lo are
    // irrelevant, so lower_bound (first separator >= lo) picks the leftmost
    // child that may hold keys >= lo.
    const size_t idx = static_cast<size_t>(it - node->keys.begin());
    node = node->children[idx].get();
  }
  // Walk the leaf chain.
  while (node != nullptr) {
    const auto start =
        std::lower_bound(node->keys.begin(), node->keys.end(), lo);
    for (size_t i = static_cast<size_t>(start - node->keys.begin());
         i < node->keys.size(); ++i) {
      if (node->keys[i] > hi) return;
      visit(node->keys[i], node->values[i]);
    }
    node = node->next;
  }
}

std::vector<uint32_t> BPlusTree::SearchRange(double lo, double hi) const {
  std::vector<uint32_t> out;
  SearchRange(lo, hi, [&out](double, uint32_t v) { out.push_back(v); });
  return out;
}

int BPlusTree::height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

bool BPlusTree::Validate() const {
  // Recursive check with key-range propagation: every node's keys must be
  // sorted and within [lo, hi]; child i of an internal node covers
  // [keys[i-1], keys[i]) except that duplicates of the separator live in
  // the right child, so the left bound is inclusive and the right bound is
  // exclusive only up to duplicate boundaries — we check the weaker but
  // sufficient invariant lo <= k <= hi per node.
  size_t leaf_pairs = 0;
  const Node* prev_leaf = nullptr;
  bool ok = true;
  const std::function<void(const Node*, double, double, bool)> check =
      [&](const Node* node, double lo, double hi, bool is_root) {
        if (!ok) return;
        if (!is_root && node->keys.empty()) {
          ok = false;
          return;
        }
        if (!std::is_sorted(node->keys.begin(), node->keys.end())) {
          ok = false;
          return;
        }
        for (double k : node->keys) {
          if (k < lo || k > hi) {
            ok = false;
            return;
          }
        }
        if (node->leaf) {
          if (node->keys.size() != node->values.size()) {
            ok = false;
            return;
          }
          leaf_pairs += node->keys.size();
          if (prev_leaf != nullptr && prev_leaf->next != node) {
            ok = false;
            return;
          }
          prev_leaf = node;
          return;
        }
        if (node->children.size() != node->keys.size() + 1 ||
            !node->values.empty()) {
          ok = false;
          return;
        }
        for (size_t i = 0; i < node->children.size(); ++i) {
          const double child_lo = i == 0 ? lo : node->keys[i - 1];
          const double child_hi = i == node->keys.size() ? hi : node->keys[i];
          check(node->children[i].get(), child_lo, child_hi, false);
        }
      };
  const double inf = std::numeric_limits<double>::infinity();
  check(root_.get(), -inf, inf, true);
  if (prev_leaf != nullptr && prev_leaf->next != nullptr) ok = false;
  return ok && leaf_pairs == size_;
}

}  // namespace edr
