#include "shard/fault.h"

#include <chrono>
#include <thread>

namespace hima {

void
FaultInjector::arm(const FaultSpec &spec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spec_ = spec;
    frames_ = 0;
    stepFrames_ = 0;
    dead_ = false;
}

bool
FaultInjector::dead() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dead_;
}

bool
FaultInjector::onFrame(bool isStepFrame)
{
    std::uint32_t sleepMs = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (dead_)
            return true;
        if (!spec_.any())
            return false;
        ++frames_;
        if (isStepFrame)
            ++stepFrames_;
        if ((spec_.dropAtFrame != 0 && frames_ == spec_.dropAtFrame) ||
            (isStepFrame && spec_.killAtStepFrame != 0 &&
             stepFrames_ == spec_.killAtStepFrame)) {
            dead_ = true;
            return true;
        }
        if (isStepFrame && spec_.delayAtStepFrame != 0 &&
            stepFrames_ == spec_.delayAtStepFrame)
            sleepMs = spec_.delayMs;
    }
    // Sleep unlocked: a test polling dead() must not stall behind it.
    if (sleepMs != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(sleepMs));
    return false;
}

} // namespace hima
