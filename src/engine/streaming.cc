#include "engine/streaming.hh"

#include "engine/interpreter.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace azoo {

StreamingSession::StreamingSession(const Automaton &a)
    : StreamingSession(std::make_shared<const NfaEngine>(a))
{
}

StreamingSession::StreamingSession(std::shared_ptr<const NfaEngine> engine)
    : engine_(std::move(engine))
{
    if (!engine_)
        panic("StreamingSession: null engine");
    reset();
}

void
StreamingSession::reset()
{
    result_ = SimResult();
    scratch_.endRun(t_);
    t_ = 0;
    lastReportAt_ = ~uint64_t(0);
    startRun(engine_->image(), scratch_);
}

size_t
StreamingSession::feed(const uint8_t *data, size_t len)
{
    // A fired guard stops the session for good: the partial result
    // must keep covering exactly the consumed prefix, so later chunks
    // are refused rather than silently appended.
    if (stopped())
        return 0;
    const uint64_t from = t_;
    t_ = engine_->resume(scratch_, from, from + len, data, options,
                         result_, lastReportAt_);
    result_.symbols = t_;
    if (stopped())
        obs::noteGuardStop("engine.stream", result_.guardStatus.code());
    if (obs::kEnabled && t_ > from) {
        static obs::Counter &symbols =
            obs::Registry::global().counter("engine.stream.symbols");
        symbols.add(t_ - from);
    }
    return static_cast<size_t>(t_ - from);
}

size_t
StreamingSession::footprintBytes() const
{
    return sizeof(*this) + scratch_.footprintBytes() +
        result_.reports.capacity() * sizeof(Report);
}

} // namespace azoo
