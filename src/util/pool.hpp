#pragma once
// Recycling pools for per-message heap blocks.
//
// The transport allocates one block per in-flight message (envelope + payload
// + incarnation stamps) and frees it at arrival — at 100k ranks that is the
// dominant allocator traffic after fiber stacks. The pool keeps released
// objects *constructed*, so a recycled node's Payload vector retains its
// capacity and a steady-state run stops allocating entirely.
//
// Thread-safe (mutex-guarded free list): nodes are acquired on the sending
// shard and released on the receiving shard, which are different threads
// under the threaded shard executor. The critical section is a pointer swap.

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace spbc::util {

template <typename T>
class ObjectPool {
 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;
  ~ObjectPool() {
    for (T* p : free_) delete p;
  }

  /// Returns a constructed object — recycled (with whatever field values it
  /// was released with; the caller overwrites them) or fresh.
  T* acquire() {
    {
      std::lock_guard<std::mutex> g(mu_);
      if (!free_.empty()) {
        T* p = free_.back();
        free_.pop_back();
        return p;
      }
    }
    allocated_.fetch_add(1, std::memory_order_relaxed);
    return new T();
  }

  /// Returns the object to the pool without destroying it.
  void release(T* p) {
    std::lock_guard<std::mutex> g(mu_);
    free_.push_back(p);
  }

  /// Distinct objects ever allocated (pool effectiveness diagnostic).
  size_t allocated() const { return allocated_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::vector<T*> free_;
  std::atomic<size_t> allocated_{0};
};

/// Allocator that recycles single-object blocks through a per-thread free
/// list, for objects made and dropped once per message through
/// std::allocate_shared (one block holds the control block and the object,
/// so the list only ever sees the rebound block type). A block freed on
/// another thread than the one that made it (the threaded executor) joins
/// the freeing thread's list. A list keeps at most kMaxFree blocks and frees
/// them when its thread exits.
template <typename T>
class RecyclingAllocator {
 public:
  using value_type = T;
  static constexpr size_t kMaxFree = size_t{1} << 16;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) {}  // NOLINT: rebind

  T* allocate(size_t n) {
    FreeList& fl = free_list();
    if (n == 1 && fl.head != nullptr) {
      Node* b = fl.head;
      fl.head = b->next;
      --fl.size;
      return reinterpret_cast<T*>(b);
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) {
    FreeList& fl = free_list();
    if (n != 1 || fl.size >= kMaxFree) {
      ::operator delete(p);
      return;
    }
    Node* b = reinterpret_cast<Node*>(p);
    b->next = fl.head;
    fl.head = b;
    ++fl.size;
  }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const {
    return true;
  }

 private:
  static_assert(sizeof(T) >= sizeof(void*), "block too small to link");
  struct Node {
    Node* next;
  };
  struct FreeList {
    Node* head = nullptr;
    size_t size = 0;
    ~FreeList() {
      while (head != nullptr) {
        Node* b = head;
        head = b->next;
        ::operator delete(b);
      }
    }
  };
  static FreeList& free_list() {
    static thread_local FreeList fl;
    return fl;
  }
};

}  // namespace spbc::util
