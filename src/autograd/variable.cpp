#include "src/autograd/variable.h"

#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "src/util/arena.h"

namespace blurnet::autograd {

namespace {
thread_local bool t_grad_enabled = true;
}

bool grad_enabled() { return t_grad_enabled; }  // lint:allow(grad-mode) definition

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) { t_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

tensor::Tensor& Node::grad() {
  if (!grad_allocated_) {
    grad_ = tensor::Tensor(value_.shape());
    grad_allocated_ = true;
  }
  return grad_;
}

void Node::zero_grad() {
  if (grad_allocated_) grad_.zero();
}

void Node::accumulate_grad(const tensor::Tensor& g) {
  grad().add_(g);
}

Variable Variable::leaf(tensor::Tensor value, bool requires_grad) {
  // Leaves are parameters and attacked inputs — long-lived by nature, so they
  // always live on the heap, never in a request arena.
  return Variable(std::make_shared<Node>(std::move(value), requires_grad, "leaf"));
}

Variable Variable::constant(tensor::Tensor value) {
  // Constants are the nodes every no-grad forward churns through (make_op
  // returns one per op); allocate_shared through the scratch layer puts the
  // node and its control block in the request arena when one is bound (zero
  // heap allocations on a warm serving thread), and on the heap otherwise.
  return Variable(std::allocate_shared<Node>(util::ScratchAllocator<Node>(),
                                             std::move(value), false, "const"));
}

float Variable::scalar_value() const {
  if (node_->value().numel() != 1) {
    throw std::logic_error("Variable::scalar_value on non-scalar " +
                           node_->value().shape().to_string());
  }
  return node_->value()[0];
}

bool needs_graph(std::initializer_list<Variable> parents) {
  if (!t_grad_enabled) return false;
  for (const auto& p : parents) {
    if (p.requires_grad()) return true;
  }
  return false;
}

namespace detail {

Variable graph_op(const char* name, tensor::Tensor value,
                  std::initializer_list<Variable> parents,
                  std::function<void(Node&)> backward_fn) {
  auto node = std::allocate_shared<Node>(util::ScratchAllocator<Node>(),
                                         std::move(value), true, name);
  for (const auto& p : parents) {
    if (p.defined()) node->parents().push_back(p.node());
  }
  node->set_backward(std::move(backward_fn));
  return Variable(std::move(node));
}

}  // namespace detail

void backward(const Variable& root) {
  if (!root.defined()) throw std::invalid_argument("backward: undefined root");
  if (root.value().numel() != 1) {
    throw std::invalid_argument("backward: root must be scalar, got " +
                                root.value().shape().to_string());
  }
  if (!root.requires_grad()) return;  // nothing depends on a parameter

  // Iterative post-order DFS to get a topological order (parents before
  // children in `order`, so we propagate in reverse).
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(root.node().get(), 0);
  visited.insert(root.node().get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents().size()) {
      Node* parent = node->parents()[next_child].get();
      ++next_child;
      if (parent->requires_grad() && !visited.count(parent)) {
        visited.insert(parent);
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  root.node()->grad().fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn() && node->has_grad()) {
      node->backward_fn()(*node);
    }
  }
}

}  // namespace blurnet::autograd
