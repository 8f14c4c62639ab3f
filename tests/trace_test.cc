// Tests for exo::trace: the record ring, the latency histogram, the exporters,
// and the end-to-end determinism contract (two identical traced runs produce
// byte-identical dumps; an attached-but-disabled tracer stores nothing).
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "bench/common.h"
#include "sim/fault.h"

namespace exo {
namespace {

using trace::Category;
using trace::Kind;
using trace::LatencyHistogram;
using trace::Record;
using trace::Tracer;

// ---- Ring behavior ----

TEST(TraceRing, KeepsNewestAcrossWraparound) {
  Tracer t;
  t.Enable(trace::kAllCategories, /*capacity=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    t.Instant(Category::kSched, 0, "tick", /*now=*/i * 10, /*arg=*/i);
  }
  EXPECT_EQ(t.emitted(), 20u);
  EXPECT_EQ(t.dropped(), 12u);

  const std::vector<Record> recs = t.Records();
  ASSERT_EQ(recs.size(), 8u);
  // The survivors are exactly the newest 8, still in emission order.
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].seq, 12 + i);
    EXPECT_EQ(recs[i].arg, 12 + i);
    EXPECT_EQ(recs[i].time, (12 + i) * 10);
  }
}

TEST(TraceRing, ZeroCapacityStoresNothing) {
  Tracer t;
  t.Enable(trace::kAllCategories, /*capacity=*/0);
  t.Instant(Category::kSched, 0, "tick", 1);
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_TRUE(t.Records().empty());
}

TEST(TraceRing, CategoryMaskGates) {
  Tracer t;
  uint32_t mask = 0;
  ASSERT_TRUE(trace::ParseCategoryMask("disk,fault", &mask));
  t.Enable(mask);
  EXPECT_TRUE(t.enabled(Category::kDisk));
  EXPECT_TRUE(t.enabled(Category::kFault));
  EXPECT_FALSE(t.enabled(Category::kNet));
  EXPECT_FALSE(trace::ParseCategoryMask("disk,bogus", &mask));
  ASSERT_TRUE(trace::ParseCategoryMask("all", &mask));
  EXPECT_EQ(mask, trace::kAllCategories);
}

// ---- Histogram vs brute force ----

TEST(TraceHistogram, MatchesBruteForcePercentiles) {
  LatencyHistogram h;
  std::vector<uint64_t> values;
  uint64_t x = 88172645463325252ull;  // xorshift: deterministic spread over octaves
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint64_t v = x % (1ull << (i % 40));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());

  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());

  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(values.size()));
    if (static_cast<double>(rank) < p / 100.0 * static_cast<double>(values.size())) {
      ++rank;
    }
    rank = std::max<uint64_t>(1, std::min<uint64_t>(rank, values.size()));
    const uint64_t truth = values[rank - 1];
    const uint64_t got = h.Percentile(p);
    // Bucket width is at most 1/16 of the value; the estimate is the bucket's
    // upper bound, so it can only overshoot, and only by that width.
    EXPECT_GE(got, truth) << "p=" << p;
    EXPECT_LE(got, truth + truth / 16 + 1) << "p=" << p;
  }
}

TEST(TraceHistogram, SmallValuesExact) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 16; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(50), 7u);
  EXPECT_EQ(h.Percentile(100), 15u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
}

// ---- Perfetto JSON round-trip ----
//
// A minimal JSON parser: enough to fully parse the exporter's output and fail
// loudly on malformed syntax. Values become a tagged tree we can walk.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject } type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    EXPECT_EQ(pos_, s_.size()) << "trailing bytes after JSON document";
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char Peek() {
    SkipWs();
    EXPECT_LT(pos_, s_.size()) << "unexpected end of JSON";
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void Expect(char c) {
    EXPECT_EQ(Peek(), c) << "at byte " << pos_;
    ++pos_;
  }
  JsonValue ParseValue() {
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      default:
        return ParseNumber();
    }
  }
  JsonValue ParseObject() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    Expect('{');
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = ParseString();
      Expect(':');
      v.obj[key.str] = ParseValue();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return v;
    }
  }
  JsonValue ParseArray() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    Expect('[');
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return v;
    }
  }
  JsonValue ParseString() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    Expect('"');
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        EXPECT_LT(pos_, s_.size());
        switch (s_[pos_]) {
          case 'u':
            pos_ += 4;  // the exporter only emits \u00xx for control bytes
            v.str.push_back('?');
            break;
          default:
            v.str.push_back(s_[pos_]);
        }
      } else {
        v.str.push_back(s_[pos_]);
      }
      ++pos_;
    }
    Expect('"');
    return v;
  }
  JsonValue ParseBool() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.b = true;
      pos_ += 4;
    } else {
      EXPECT_EQ(s_.compare(pos_, 5, "false"), 0);
      pos_ += 5;
    }
    return v;
  }
  JsonValue ParseNumber() {
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) || s_[end] == '-' ||
            s_[end] == '+' || s_[end] == '.' || s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    EXPECT_GT(end, pos_) << "not a number at byte " << pos_;
    v.num = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TraceExport, PerfettoJsonRoundTripsAndNests) {
  Tracer t;
  t.Enable();
  const uint32_t ta = t.NewTrack("track.a");
  const uint32_t tb = t.NewTrack("track \"b\"\n");  // exercises string escaping

  t.Begin(Category::kDisk, ta, "outer", 100, 7);
  t.Begin(Category::kDisk, ta, "inner", 110);
  t.Instant(Category::kFault, tb, "blip", 115, 3);
  t.End(Category::kDisk, ta, "inner", 120);
  t.Counter(Category::kNet, tb, "queue", 125, 42);
  t.End(Category::kDisk, ta, "outer", 130, 7);
  t.Begin(Category::kXn, tb, "left-open", 140);  // exporter must close it
  t.End(Category::kXn, tb, "orphan", 90);        // exporter must drop it

  const std::string json = trace::PerfettoJson(t, 200);
  JsonParser parser(json);
  const JsonValue root = parser.Parse();
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  ASSERT_TRUE(root.obj.count("traceEvents"));
  const auto& events = root.obj.at("traceEvents").arr;

  // Per-tid span stacks must balance with matching names, and every event must
  // carry the required trace_event fields.
  std::map<double, std::vector<std::string>> stacks;
  size_t spans = 0;
  bool saw_escaped_thread_name = false;
  for (const JsonValue& e : events) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    ASSERT_TRUE(e.obj.count("ph"));
    ASSERT_TRUE(e.obj.count("pid"));
    ASSERT_TRUE(e.obj.count("tid"));
    ASSERT_TRUE(e.obj.count("name"));
    const std::string& ph = e.obj.at("ph").str;
    if (ph == "M") {
      if (e.obj.at("name").str == "thread_name" &&
          e.obj.at("args").obj.at("name").str.find('"') != std::string::npos) {
        saw_escaped_thread_name = true;
      }
      continue;
    }
    ASSERT_TRUE(e.obj.count("ts"));
    const double tid = e.obj.at("tid").num;
    if (ph == "B") {
      stacks[tid].push_back(e.obj.at("name").str);
      ++spans;
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty()) << "unbalanced E on tid " << tid;
      EXPECT_EQ(stacks[tid].back(), e.obj.at("name").str);
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
  EXPECT_EQ(spans, 3u);  // outer, inner, left-open; the orphan end was dropped
  EXPECT_TRUE(saw_escaped_thread_name);
}

TEST(TraceExport, WraparoundStaysBalanced) {
  Tracer t;
  t.Enable(trace::kAllCategories, /*capacity=*/16);
  // 100 spans; the ring holds only the last 16 records, so early Begins are
  // gone and some surviving Ends are orphans the exporter must drop.
  for (uint64_t i = 0; i < 100; ++i) {
    t.Begin(Category::kApp, 0, "span", i * 2);
    t.End(Category::kApp, 0, "span", i * 2 + 1);
  }
  const std::string json = trace::PerfettoJson(t, 200);
  JsonParser parser(json);
  const JsonValue root = parser.Parse();
  int depth = 0;
  for (const JsonValue& e : root.obj.at("traceEvents").arr) {
    const std::string& ph = e.obj.at("ph").str;
    if (ph == "B") {
      ++depth;
    } else if (ph == "E") {
      ASSERT_GT(depth, 0);
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
}

// ---- Fault instants ----

TEST(TraceFaults, InjectedFaultsBecomeInstants) {
  sim::Engine engine;
  Tracer t;
  t.Enable();
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.net_drop_rate = 1.0;
  sim::FaultInjector faults(plan);
  faults.AttachTracer(&t, &engine);

  ASSERT_EQ(faults.NextWireFate(128), sim::FaultInjector::WireFate::kDrop);
  const std::vector<Record> recs = t.Records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].category, Category::kFault);
  EXPECT_STREQ(recs[0].name, "net_drop");
  EXPECT_EQ(recs[0].arg, 128u);
  // The instant landed on the injector's own "faults" track.
  EXPECT_EQ(t.track_names().at(recs[0].track), "faults");
}

// ---- End-to-end determinism ----

TEST(TraceDeterminism, IdenticalRunsProduceIdenticalDumps) {
  const std::string dir = ::testing::TempDir();
  bench::TraceOptions opts;
  std::string dumps[2];
  for (int i = 0; i < 2; ++i) {
    opts.path = dir + "/trace_det_" + std::to_string(i) + ".txt";
    bench::RunIoWorkload(os::Flavor::kXokExos, {}, &opts);
    std::ifstream in(opts.path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    dumps[i] = ss.str();
    std::remove(opts.path.c_str());
  }
  EXPECT_GT(dumps[0].size(), 1000u);
  EXPECT_EQ(dumps[0], dumps[1]);
}

// Each syscall latency sample covers the call's entry charge, the trap and
// Xok's check, whatever its body does.
TEST(TraceSyscall, LatencyCoversTheEntryCharge) {
  sim::Engine engine;
  hw::Machine machine(&engine, bench::PaperMachine());
  os::System sys(&machine, os::Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);
  machine.tracer().Enable();
  sys.SpawnInit("sh", [](os::UnixEnv& env) {
    env.Yield();
    auto child = env.Spawn("sh", [](os::UnixEnv&) {});
    ASSERT_TRUE(child.ok());
    ASSERT_TRUE(env.Wait(*child).ok());
  });
  sys.Run();
  const LatencyHistogram& h = *machine.tracer().Histogram("syscall.latency_cycles");
  const sim::CostModel& c = machine.cost();
  ASSERT_GT(h.count(), 0u);
  EXPECT_GE(h.min(), c.trap_round_trip + c.xok_syscall_check);
}

TEST(TraceDeterminism, DisabledTracerStoresNothing) {
  sim::Engine engine;
  hw::Machine machine(&engine, bench::PaperMachine());
  os::System sys(&machine, os::Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);
  sys.SpawnInit("sh", [](os::UnixEnv& env) {
    auto fd = env.Open("/f", true);
    ASSERT_TRUE(fd.ok());
    std::vector<uint8_t> buf(4096, 0xab);
    ASSERT_TRUE(env.Write(*fd, buf).ok());
    ASSERT_EQ(env.Close(*fd), Status::kOk);
    ASSERT_EQ(env.Sync(), Status::kOk);
  });
  sys.Run();
  EXPECT_FALSE(machine.tracer().active());
  EXPECT_EQ(machine.tracer().emitted(), 0u);
  EXPECT_EQ(machine.tracer().dropped(), 0u);
}

}  // namespace
}  // namespace exo
