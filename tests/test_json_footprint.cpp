// Heap footprint of the JSON DOM on the crowd repository's record shape.
//
// This suite is its own executable because it replaces the global
// allocation functions with counting ones: every operator new records its
// size in a header, every operator delete subtracts it, so live_bytes() is
// the heap the program's C++ objects hold at that moment (malloc's own
// per-chunk overhead excluded). The bounds sit between the footprint of
// the std::map-based object (sizeof(Json) 56, ~2.5 KB live per parsed
// record) and that of the flat sorted-vector object.
#include "db/document_store.hpp"
#include "json/json.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

namespace {

std::atomic<std::ptrdiff_t> g_live{0};

// One max-aligned header in front of each block holds its requested size.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = n;
  g_live.fetch_add(static_cast<std::ptrdiff_t>(n), std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(static_cast<std::ptrdiff_t>(*static_cast<std::size_t*>(raw)),
                   std::memory_order_relaxed);
  std::free(raw);
}

std::ptrdiff_t live_bytes() { return g_live.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace gptc::json {
namespace {

// One func_eval record exactly as a crowd_pull response carries it: 322
// canonical bytes, 21 object members over six objects.
const std::string kRecord =
    R"({"_id":1,"accessibility":"public","machine_configuration":)"
    R"({"cores":32,"machine_name":"Cori","nodes":8,"partition":"haswell"},)"
    R"("output":{"runtime":12.3456789012345},"problem":"app3",)"
    R"("software_configuration":{},"task_parameters":{"m":5000,"n":1750},)"
    R"("tuning_parameters":{"lg2npernode":2,"mb":7,"nb":11,"p":123},)"
    R"("user":"tuner"})";

TEST(JsonFootprint, RecordShape) {
  EXPECT_EQ(kRecord.size(), 322u);
  EXPECT_EQ(Json::parse(kRecord).dump(), kRecord);
}

TEST(JsonFootprint, SizeofJson) {
  // std::map object: 56. The flat object leaves std::string (32 bytes) the
  // largest alternative.
  EXPECT_LE(sizeof(Json), 40u);
}

TEST(JsonFootprint, ParsedRecordHeapBytes) {
  const std::ptrdiff_t before = live_bytes();
  const Json doc = Json::parse(kRecord);
  const std::ptrdiff_t held = live_bytes() - before;
  RecordProperty("parsed_record_heap_bytes", std::to_string(held));
  // std::map object: 2,493. Flat object: 1,533.
  EXPECT_LE(held, 2000);
  EXPECT_GT(held, 0);
}

TEST(JsonFootprint, CopiedRecordHeapBytes) {
  const Json doc = Json::parse(kRecord);
  const std::ptrdiff_t before = live_bytes();
  const Json copy(doc);
  const std::ptrdiff_t held = live_bytes() - before;
  RecordProperty("copied_record_heap_bytes", std::to_string(held));
  // std::map object: 2,463. Flat object: 1,503.
  EXPECT_LE(held, 2000);
  EXPECT_EQ(copy.dump(), kRecord);
}

TEST(JsonFootprint, StoredDocumentKeepsNoSlack) {
  // Built key by key as SharedRepo::build_record does: eight keys leave a
  // capacity of 8, and the collection's `_id` grows it to 16 members.
  db::Collection coll("func_eval");
  coll.insert(Json::object({{"warm", 1}}));  // the shard's first allocations
  Json doc = Json::object();
  for (const char* key : {"problem", "user", "accessibility", "task_parameters",
                          "tuning_parameters", "output",
                          "machine_configuration", "software_configuration"})
    doc[key] = 1;
  const std::ptrdiff_t before = live_bytes();
  coll.insert(std::move(doc));
  const std::ptrdiff_t grown = live_bytes() - before;
  RecordProperty("stored_document_growth_bytes", std::to_string(grown));
  // The ninth member plus the shard's per-document bookkeeping: 160. Left
  // at capacity 16, the document holds 7 empty members more: 664.
  EXPECT_LE(grown, 400);
}

TEST(JsonFootprint, ParseReleasesEverything) {
  const std::ptrdiff_t before = live_bytes();
  { const Json doc = Json::parse(kRecord); }
  EXPECT_EQ(live_bytes(), before);
}

}  // namespace
}  // namespace gptc::json
