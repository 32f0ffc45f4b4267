// Clean R13 case: std::find is the standard algorithm, not Catalog::find.
// Catalog::find blocks (it fsyncs) and probe() reaches it with no lock
// held, but a std::-qualified call binds to no project function, so add()
// searching its keys under Catalog::mu_ reaches nothing that blocks. When
// the qualifier is ignored, line 15 reports a call to 'find' that may block.
#include <algorithm>
#include <mutex>
#include <unistd.h>
#include <vector>

class Catalog {
 public:
  bool add(int key) {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::find(keys_.begin(), keys_.end(), key) != keys_.end())
      return false;
    keys_.push_back(key);
    return true;
  }

  int probe(int key) const { return find(key); }

  int find(int key) const {
    ::fsync(fd_);
    return key;
  }

 private:
  std::mutex mu_;
  std::vector<int> keys_;  // guarded_by: mu_
  int fd_ = -1;
};
