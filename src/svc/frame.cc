#include "svc/frame.h"

#include <chrono>
#include <istream>
#include <memory>
#include <ostream>

namespace melody::svc {

FrameTally run_stdio_session(ShardedService& service, std::istream& in,
                             std::ostream& out, TraceRecorder* recorder) {
  FrameTally tally;
  if (recorder != nullptr) recorder->begin_session(service.config());
  const auto reply = [&out, recorder](std::uint64_t seq,
                                      const std::string& line) {
    if (recorder != nullptr) recorder->record_out(1, seq, line);
    out << line << '\n';
  };
  std::uint64_t seq = 0;
  std::string line;
  while (std::getline(in, line)) {
    auto delivered = std::make_shared<bool>(false);
    const FrameResult frame = answer_frame(
        service, recorder, tally, 1, seq, line,
        [&reply, seq, delivered](const Request&, const obs::TraceContext&) {
          return [&reply, seq, delivered](const Response& response) {
            reply(seq, format_response(response));
            *delivered = true;
          };
        });
    if (frame.kind == FrameResult::Kind::kSkipped) continue;
    if (frame.kind != FrameResult::Kind::kSubmitted) {
      reply(seq++, frame.reply);
      continue;
    }
    ++seq;
    while (!*delivered && service.poll_once(std::chrono::nanoseconds{0})) {
    }
    if (service.shutdown_requested()) break;
  }
  // EOF without a shutdown op: fire remaining due batches and finish.
  service.begin_shutdown();
  while (service.poll_once(std::chrono::nanoseconds{0})) {
  }
  out.flush();
  return tally;
}

}  // namespace melody::svc
