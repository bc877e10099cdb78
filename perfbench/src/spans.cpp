#include "spans.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

void write_chrome_trace(const std::string& path,
                        const std::vector<const Track*>& tracks) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const Track* t : tracks)
    for (const Span& s : t->spans())
      if (!have_origin || s.start_ns < origin) {
        origin = s.start_ns;
        have_origin = true;
      }
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [";
  bool first = true;
  for (const Track* t : tracks) {
    for (std::size_t i = 0; i < t->spans().size(); ++i) {
      const Span& s = t->spans()[i];
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"" << s.name.substr(0, s.name.find('.'))
          << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << t->id()
          << ", \"ts\": " << static_cast<double>(s.start_ns - origin) * 1e-3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ", \"args\": {\"index\": " << i << ", \"parent\": " << s.parent
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
