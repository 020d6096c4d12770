#ifndef EDR_INDEX_BPLUS_TREE_H_
#define EDR_INDEX_BPLUS_TREE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace edr {

/// An in-memory B+-tree mapping double keys to uint32 payloads, with
/// duplicate keys allowed.
///
/// Substrate for the paper's "PB" pruning variant (Section 4.1): the mean
/// value of every Q-gram of every *projected one-dimensional* data sequence
/// is inserted with the trajectory id as payload (Theorems 2 and 4 together
/// let a simple B+-tree replace a multi-dimensional index), and k-NN queries
/// probe with the range [mean - epsilon, mean + epsilon].
///
/// Leaves are chained for efficient range scans. Deletion is not provided —
/// the pruning indexes are built once per dataset and then only queried.
class BPlusTree {
 public:
  /// `order` is the maximum number of keys per node (>= 4).
  explicit BPlusTree(int order = 64);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Inserts a key/value pair. Duplicate keys are kept (stable within a
  /// leaf in insertion order modulo splits).
  void Insert(double key, uint32_t value);

  /// Invokes `visit(key, value)` for every pair with lo <= key <= hi, in
  /// non-decreasing key order.
  void SearchRange(double lo, double hi,
                   const std::function<void(double, uint32_t)>& visit) const;

  /// Convenience overload collecting the payloads in key order.
  std::vector<uint32_t> SearchRange(double lo, double hi) const;

  /// Number of stored pairs.
  size_t size() const { return size_; }

  /// Height of the tree (1 for a root-only tree).
  int height() const;

  /// Structural invariant check for tests: key ordering within and across
  /// nodes, separator correctness, fill factors, and leaf-chain coverage.
  bool Validate() const;

 private:
  struct Node;

  void SplitChild(Node* parent, int index);

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  int order_;
};

}  // namespace edr

#endif  // EDR_INDEX_BPLUS_TREE_H_
