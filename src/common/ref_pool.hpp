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
// Records are allocated kChunk at a time, so a pool that grows to n
// records costs n / kChunk allocations, not n, and holds fewer than kChunk
// records beyond its high-water mark: a handshake whose closures used to
// fit inline pays no more for its record than it did.
//
// Handles may outlive the pool: the event queue that holds message closures
// is normally destroyed after the protocol object that owns the pool.  The
// chunks therefore live in a store that the pool hands over to the
// outstanding handles when it goes, and the last of them deletes it.
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
  struct Store;
  struct Node {
    T value{};
    std::uint32_t refs = 0;
    Store* store = nullptr;
    Node* next_free = nullptr;  // while on the free list
  };
  /// Every record of the pool, in chunks, and the free list through them.
  struct Store {
    std::vector<std::unique_ptr<Node[]>> chunks;
    Node* free = nullptr;   // unreferenced records, ready for acquire()
    std::size_t live = 0;   // records referenced by a handle
    bool orphaned = false;  // the pool is gone; the last release deletes

    void recycle(Node* node) noexcept {
      --live;
      if (orphaned) {
        if (live == 0) delete this;
        return;
      }
      node->value.clear();
      node->next_free = std::exchange(free, node);
    }
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
      if (node != nullptr && --node->refs == 0) node->store->recycle(node);
    }

    Node* node_ = nullptr;
  };

  RefPool() = default;
  RefPool(const RefPool&) = delete;
  RefPool& operator=(const RefPool&) = delete;

  ~RefPool() {
    if (store_ == nullptr) return;
    if (store_->live == 0) {
      delete store_;
    } else {
      store_->orphaned = true;
    }
  }

  /// A record no other handle references, cleared by its previous release
  /// (or value-initialized when the pool had to grow).
  [[nodiscard]] Ref acquire() {
    if (store_ == nullptr) store_ = new Store;
    if (store_->free == nullptr) grow();
    Node* node = std::exchange(store_->free, store_->free->next_free);
    ++store_->live;
    return Ref{node};
  }

  /// Records currently referenced by at least one handle.
  [[nodiscard]] std::size_t live() const {
    return store_ == nullptr ? 0 : store_->live;
  }

 private:
  static constexpr std::size_t kChunk = 8;

  void grow() {
    Store& s = *store_;
    auto chunk = std::make_unique<Node[]>(kChunk);
    // Linked in reverse, so records are handed out in chunk order.
    for (std::size_t i = kChunk; i-- > 0;) {
      chunk[i].store = &s;
      chunk[i].next_free = std::exchange(s.free, &chunk[i]);
    }
    s.chunks.push_back(std::move(chunk));
  }

  Store* store_ = nullptr;  // created on first acquire()
};

}  // namespace hp2p
