// Recycling pool of reference-counted records.
//
// A request routed hop by hop (a store or lookup climbing the cp chain and
// walking the ring) travels inside message closures.  Copying its state into
// every hop -- or boxing it in a fresh shared_ptr per hop -- costs heap
// allocations on every hop.  RefPool instead hands out one recycled record
// per request plus a pointer-sized intrusive handle that the closures copy;
// when the last handle goes, the record is cleared (T::clear(), which keeps
// reusable capacity) and returns to the free list.  Once the pool has grown
// to the high-water mark of concurrent requests, routing allocates nothing.
//
// Handles may outlive the pool: the event queue that holds message closures
// is normally destroyed after the protocol object that owns the pool.  The
// destructor therefore hands each still-referenced record over to its
// handles, and the last of them deletes it.
//
// Single-threaded, like the simulator whose events carry the handles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace hp2p {

template <typename T>
class RefPool {
  struct Node {
    T value{};
    std::uint32_t refs = 0;
    RefPool* pool = nullptr;  // nullptr once the pool is gone
  };

 public:
  /// Shared handle to one pooled record.  Copying bumps a plain counter;
  /// moving is free.  Both are noexcept, so closures holding a Ref fit
  /// InlineFunction's inline storage.
  class Ref {
   public:
    Ref() = default;
    Ref(const Ref& other) noexcept : node_(other.node_) {
      if (node_ != nullptr) ++node_->refs;
    }
    Ref(Ref&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
    Ref& operator=(Ref other) noexcept {
      std::swap(node_, other.node_);
      return *this;
    }
    ~Ref() { release(); }

    T& operator*() const { return node_->value; }
    T* operator->() const { return &node_->value; }
    [[nodiscard]] explicit operator bool() const { return node_ != nullptr; }

   private:
    friend class RefPool;
    explicit Ref(Node* node) noexcept : node_(node) { ++node_->refs; }

    void release() noexcept {
      Node* node = std::exchange(node_, nullptr);
      if (node == nullptr || --node->refs != 0) return;
      if (node->pool != nullptr) {
        node->pool->recycle(node);
      } else {
        delete node;
      }
    }

    Node* node_ = nullptr;
  };

  RefPool() = default;
  RefPool(const RefPool&) = delete;
  RefPool& operator=(const RefPool&) = delete;

  ~RefPool() {
    for (Node* node : nodes_) {
      if (node->refs == 0) {
        delete node;
      } else {
        node->pool = nullptr;  // the last handle deletes it
      }
    }
  }

  /// A record no other handle references, cleared by its previous release
  /// (or value-initialized when the pool had to grow).
  [[nodiscard]] Ref acquire() {
    Node* node;
    if (free_.empty()) {
      auto fresh = std::make_unique<Node>();
      fresh->pool = this;
      nodes_.push_back(fresh.get());
      // recycle() runs inside noexcept release(): it must never grow free_.
      free_.reserve(nodes_.size());
      node = fresh.release();
    } else {
      node = free_.back();
      free_.pop_back();
    }
    ++live_;
    return Ref{node};
  }

  /// Records currently referenced by at least one handle.
  [[nodiscard]] std::size_t live() const { return live_; }

 private:
  void recycle(Node* node) {
    node->value.clear();
    free_.push_back(node);
    --live_;
  }

  std::vector<Node*> nodes_;  // every record this pool owns
  std::vector<Node*> free_;   // unreferenced records, ready for acquire()
  std::size_t live_ = 0;
};

}  // namespace hp2p
