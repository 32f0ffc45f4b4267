// Clean R13 case: Index::select is the project's own in-memory member (it
// picks a posting list), not the blocking POSIX select(2), so calling it
// under a declared guard is no finding, whether directly or through a
// caller that reaches it. The return statement in lookup() is the mutation
// point: spelled ::select(...), the same call is the POSIX one and fires.
#include <mutex>

class Index {
 public:
  int lookup(int key) {
    std::lock_guard<std::mutex> lock(mu_);
    hits_ += 1;
    return select(key);
  }

  int estimate(int key) const { return select(key) + 1; }

 private:
  int select(int key) const { return key < base_ ? base_ : key; }

  std::mutex mu_;
  int hits_ = 0;  // guarded_by: mu_
  const int base_ = 4;
};

class Store {
 public:
  int plan(int key) {
    std::lock_guard<std::mutex> lock(mu_);
    plans_ += 1;
    return index_.estimate(key);
  }

 private:
  std::mutex mu_;
  int plans_ = 0;  // guarded_by: mu_
  Index index_;
};
