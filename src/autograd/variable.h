// Reverse-mode automatic differentiation.
//
// A Variable is a cheap handle to a graph Node holding the forward value,
// (lazily allocated) gradient buffer, parent edges and a backward closure.
// Graphs are built implicitly by the ops in src/autograd/ops.h; calling
// backward() on a scalar root runs a topological sweep that accumulates
// gradients into every node with requires_grad().
//
// Every op has one forward computation and hands its result to make_op, which
// alone decides whether a graph node is needed. When gradient mode is off or
// no input requires gradients, the result is a plain constant with no parents
// or closure, so inference-only forwards build no graph and cost nothing extra.
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

namespace blurnet::autograd {

class Node;
using NodePtr = std::shared_ptr<Node>;

class Node {
 public:
  Node(tensor::Tensor value, bool requires_grad, std::string op_name)
      : value_(std::move(value)), requires_grad_(requires_grad), op_(std::move(op_name)) {}

  const tensor::Tensor& value() const { return value_; }
  tensor::Tensor& mutable_value() { return value_; }

  bool requires_grad() const { return requires_grad_; }
  const std::string& op() const { return op_; }

  /// Gradient buffer, allocated (zeroed) on first access.
  tensor::Tensor& grad();
  bool has_grad() const { return grad_allocated_; }
  void zero_grad();

  /// Accumulate a gradient contribution (allocates if needed).
  void accumulate_grad(const tensor::Tensor& g);

  // Graph wiring (used by op constructors and the backward sweep).
  std::vector<NodePtr>& parents() { return parents_; }
  void set_backward(std::function<void(Node&)> fn) { backward_fn_ = std::move(fn); }
  const std::function<void(Node&)>& backward_fn() const { return backward_fn_; }

 private:
  tensor::Tensor value_;
  tensor::Tensor grad_;
  bool grad_allocated_ = false;
  bool requires_grad_ = false;
  std::string op_;
  std::vector<NodePtr> parents_;
  std::function<void(Node&)> backward_fn_;
};

class Variable {
 public:
  Variable() = default;

  /// Leaf node (parameter or attacked input).
  static Variable leaf(tensor::Tensor value, bool requires_grad = true);
  /// Constant (no gradient ever flows into it).
  static Variable constant(tensor::Tensor value);

  bool defined() const { return node_ != nullptr; }
  const tensor::Tensor& value() const { return node_->value(); }
  tensor::Tensor& mutable_value() { return node_->mutable_value(); }
  tensor::Tensor& grad() { return node_->grad(); }
  bool has_grad() const { return node_->has_grad(); }
  void zero_grad() { node_->zero_grad(); }
  bool requires_grad() const { return node_ && node_->requires_grad(); }

  const tensor::Shape& shape() const { return node_->value().shape(); }

  /// Scalar convenience: value of a 1-element tensor.
  float scalar_value() const;

  NodePtr node() const { return node_; }
  explicit Variable(NodePtr node) : node_(std::move(node)) {}

 private:
  NodePtr node_;
};

/// Thread-local gradient mode. While disabled, make_op produces plain
/// constants — no parents, no closure — even when inputs are requires_grad
/// leaves, so inference over trained parameters builds no graph. Enabled by
/// default. Ops never branch on it: they ask needs_graph() (via make_op).
bool grad_enabled();  // lint:allow(grad-mode) declaration

/// RAII scope that disables gradient tracking on this thread (used by
/// LisaCnn::logits and the serving engine).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Run the backward sweep from a scalar root (seeds d(root)/d(root) = 1).
void backward(const Variable& root);

/// True when gradient mode is on for this thread and at least one defined
/// parent requires a gradient: the one "does this op need a graph node?"
/// decision. make_op applies it; an op reads it directly only to choose where
/// a buffer its backward will read lives (conv2d's column matrix).
bool needs_graph(std::initializer_list<Variable> parents);

namespace detail {
/// make_op's graph branch: a node that keeps its parents and backward closure.
Variable graph_op(const char* name, tensor::Tensor value,
                  std::initializer_list<Variable> parents,
                  std::function<void(Node&)> backward_fn);
}  // namespace detail

/// Construct an op result: value, parents, and a closure that pushes this
/// node's grad into its parents. When !needs_graph(parents) the result is a
/// plain constant, decided before the parent vector, std::function or name
/// string is built, so a no-grad forward adds no per-op heap allocation.
template <typename Backward>
Variable make_op(const char* name, tensor::Tensor value,
                 std::initializer_list<Variable> parents, Backward&& backward_fn) {
  if (!needs_graph(parents)) return Variable::constant(std::move(value));
  return detail::graph_op(name, std::move(value), parents,
                          std::forward<Backward>(backward_fn));
}

}  // namespace blurnet::autograd
