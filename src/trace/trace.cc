#include "trace/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace exo::trace {

namespace {

constexpr const char* kCategoryNames[kNumCategories] = {
    "sched", "syscall", "disk", "net", "xn", "fs", "app", "fault"};

// Records in (time, seq) order. Emission order is already seq order, but spans
// emitted retrospectively (e.g. disk service phases stamped at dispatch time)
// may carry future timestamps, so exporters re-sort.
std::vector<Record> SortedRecords(const Tracer& tracer) {
  std::vector<Record> recs = tracer.Records();
  std::stable_sort(recs.begin(), recs.end(), [](const Record& a, const Record& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  return recs;
}

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) {
    out.append(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

void AppendJsonString(std::string& out, const char* s) {
  out.push_back('"');
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      AppendF(out, "\\u%04x", c);
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  out.push_back('"');
}

const char* KindLetter(Kind k) {
  switch (k) {
    case Kind::kBegin:
      return "B";
    case Kind::kEnd:
      return "E";
    case Kind::kInstant:
      return "I";
    case Kind::kCounter:
      return "C";
  }
  return "?";
}

}  // namespace

const char* CategoryName(Category c) {
  const unsigned i = static_cast<unsigned>(c);
  return i < kNumCategories ? kCategoryNames[i] : "?";
}

bool ParseCategoryMask(const std::string& list, uint32_t* mask) {
  if (list == "all" || list.empty()) {
    *mask = kAllCategories;
    return true;
  }
  uint32_t m = 0;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) {
      comma = list.size();
    }
    const std::string item = list.substr(pos, comma - pos);
    bool found = false;
    for (int i = 0; i < kNumCategories; ++i) {
      if (item == kCategoryNames[i]) {
        m |= Bit(static_cast<Category>(i));
        found = true;
        break;
      }
    }
    if (!found) {
      return false;
    }
    pos = comma + 1;
    if (comma == list.size()) {
      break;
    }
  }
  *mask = m;
  return true;
}

std::vector<Record> Tracer::Records() const {
  std::vector<Record> out;
  if (ring_.empty() || seq_ == 0) {
    return out;
  }
  const uint64_t n = std::min<uint64_t>(seq_, ring_.size());
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = seq_ - n; i < seq_; ++i) {
    out.push_back(ring_[static_cast<size_t>(i % ring_.size())]);
  }
  return out;
}

std::string MergedTextDump(const std::vector<const Tracer*>& tracers,
                           uint32_t cpu_mhz) {
  struct Tagged {
    Record rec;
    size_t tracer = 0;
  };
  std::vector<Tagged> all;
  uint64_t emitted = 0;
  uint64_t dropped = 0;
  for (size_t i = 0; i < tracers.size(); ++i) {
    emitted += tracers[i]->emitted();
    dropped += tracers[i]->dropped();
    for (const Record& r : tracers[i]->Records()) {
      all.push_back(Tagged{r, i});
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.rec.time != b.rec.time) {
      return a.rec.time < b.rec.time;
    }
    if (a.tracer != b.tracer) {
      return a.tracer < b.tracer;
    }
    return a.rec.seq < b.rec.seq;
  });

  std::string out;
  AppendF(out, "# exo::trace merged dump: %zu tracers, %" PRIu64 " records (%" PRIu64
               " dropped), cpu_mhz=%u\n",
          tracers.size(), emitted, dropped, cpu_mhz);
  for (const Tagged& t : all) {
    const auto& tracks = tracers[t.tracer]->track_names();
    const Record& r = t.rec;
    const char* track = r.track < tracks.size() ? tracks[r.track].c_str() : "?";
    AppendF(out, "[%" PRIu64 "] %s %s %s %s arg=%" PRIu64 "\n", r.time, track,
            CategoryName(r.category), KindLetter(r.kind),
            r.name != nullptr ? r.name : "?", r.arg);
  }
  bool any_hist = false;
  for (const Tracer* t : tracers) {
    any_hist |= !t->histograms().empty();
  }
  if (any_hist) {
    out += "# histograms\n";
    for (const Tracer* t : tracers) {
      for (const auto& [name, h] : t->histograms()) {
        AppendF(out,
                "%s count=%" PRIu64 " min=%" PRIu64 " mean=%.1f p50=%" PRIu64
                " p90=%" PRIu64 " p99=%" PRIu64 " max=%" PRIu64 "\n",
                name.c_str(), h->count(), h->min(), h->mean(), h->Percentile(50),
                h->Percentile(90), h->Percentile(99), h->max());
      }
    }
  }
  return out;
}

std::string TextDump(const Tracer& tracer, uint32_t cpu_mhz) {
  return MergedTextDump({&tracer}, cpu_mhz);
}

std::string HistogramSummary(const Tracer& tracer) {
  std::string out;
  for (const auto& [name, h] : tracer.histograms()) {
    if (h->count() == 0) {
      continue;
    }
    AppendF(out,
            "%-32s count=%-8" PRIu64 " min=%-8" PRIu64 " mean=%-10.1f p50=%-8" PRIu64
            " p90=%-8" PRIu64 " p99=%-8" PRIu64 " max=%" PRIu64 "\n",
            name.c_str(), h->count(), h->min(), h->mean(), h->Percentile(50),
            h->Percentile(90), h->Percentile(99), h->max());
  }
  return out;
}

std::string PerfettoJson(const Tracer& tracer, uint32_t cpu_mhz) {
  const std::vector<Record> recs = SortedRecords(tracer);
  const auto& tracks = tracer.track_names();
  const double us_per_cycle = 1.0 / static_cast<double>(cpu_mhz);

  std::string out;
  out.reserve(recs.size() * 96 + 4096);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&out, &first] {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.push_back('\n');
  };

  // Metadata: one process for the whole simulation, one named thread per track.
  sep();
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"exo-sim\"}}";
  for (size_t t = 0; t < tracks.size(); ++t) {
    sep();
    AppendF(out, "{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":\"thread_name\",\"args\":{\"name\":",
            t);
    AppendJsonString(out, tracks[t].c_str());
    out += "}}";
  }

  // Re-balance spans per track so the JSON always nests: an End with no open
  // Begin (its partner fell off the ring) is dropped; Begins still open at the
  // end of the stream are closed at the final timestamp.
  std::map<uint32_t, std::vector<const Record*>> open;
  Cycles last_time = 0;

  auto emit = [&](const char* ph, const Record& r, Cycles time) {
    sep();
    AppendF(out, "{\"ph\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"cat\":\"%s\",\"name\":",
            ph, r.track, static_cast<double>(time) * us_per_cycle,
            CategoryName(r.category));
    AppendJsonString(out, r.name != nullptr ? r.name : "?");
    if (r.kind == Kind::kInstant) {
      out += ",\"s\":\"t\"";
    }
    if (r.kind == Kind::kCounter) {
      AppendF(out, ",\"args\":{\"value\":%" PRIu64 "}", r.arg);
    } else {
      AppendF(out, ",\"args\":{\"arg\":%" PRIu64 "}", r.arg);
    }
    out += "}";
  };

  for (const Record& r : recs) {
    last_time = std::max(last_time, r.time);
    switch (r.kind) {
      case Kind::kBegin:
        open[r.track].push_back(&r);
        emit("B", r, r.time);
        break;
      case Kind::kEnd: {
        auto it = open.find(r.track);
        if (it == open.end() || it->second.empty()) {
          break;  // orphan end: its begin was overwritten by ring wraparound
        }
        it->second.pop_back();
        emit("E", r, r.time);
        break;
      }
      case Kind::kInstant:
        emit("i", r, r.time);
        break;
      case Kind::kCounter: {
        sep();
        AppendF(out, "{\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"name\":", r.track,
                static_cast<double>(r.time) * us_per_cycle);
        AppendJsonString(out, r.name != nullptr ? r.name : "?");
        AppendF(out, ",\"args\":{\"value\":%" PRIu64 "}}", r.arg);
        break;
      }
    }
  }
  for (auto& [track, stack] : open) {
    while (!stack.empty()) {
      const Record* b = stack.back();
      stack.pop_back();
      Record closer = *b;
      closer.kind = Kind::kEnd;
      emit("E", closer, last_time);
    }
  }

  out += "\n]}\n";
  return out;
}

}  // namespace exo::trace
