// lumen_sched: epoch accounting — the time measure behind every bound.
//
// ASYNC time is measured in epochs: starting from the epoch's begin time,
// the epoch ends at the earliest instant by which EVERY robot has completed
// at least one full LCM cycle that STARTED within the epoch. The paper's
// O(log N) claim counts exactly these epochs. The timeline is reconstructed
// after the run from the recorded (start, end) of each cycle, which makes
// the accounting independent of engine internals and easy to test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace lumen::sched {

/// One completed LCM cycle of one robot.
struct CycleRecord {
  std::size_t robot = 0;
  double start = 0.0;  ///< Wait-phase begin (cycle start).
  double end = 0.0;    ///< Move completion (cycle end).
};

class EpochTimeline {
 public:
  explicit EpochTimeline(std::size_t robot_count) : per_robot_(robot_count) {}

  /// Records a completed cycle. Cycles of one robot must arrive in
  /// chronological order (the engine naturally emits them so).
  void add_cycle(const CycleRecord& rec);

  /// Number of robots being tracked.
  [[nodiscard]] std::size_t robot_count() const noexcept { return per_robot_.size(); }

  /// Total cycles recorded.
  [[nodiscard]] std::size_t cycle_count() const noexcept;

  /// Number of COMPLETE epochs contained in [0, horizon]. Greedy
  /// reconstruction: epoch e begins where epoch e-1 ended; it ends at
  /// max over robots of (end of the robot's first cycle with start >= epoch
  /// begin). An epoch that cannot complete within the horizon is not counted.
  [[nodiscard]] std::size_t count_epochs(double horizon) const;

  /// The end times of each complete epoch in [0, horizon].
  [[nodiscard]] std::vector<double> epoch_boundaries(double horizon) const;

 private:
  // Per robot: chronologically sorted cycles (start, end).
  std::vector<std::vector<std::pair<double, double>>> per_robot_;
};

/// Online epoch detection with bounded memory: feeds on the same CycleRecord
/// stream as EpochTimeline but closes epochs as soon as they complete,
/// instead of retaining the whole timeline and reconstructing post-hoc.
/// Runs the SAME greedy recurrence as EpochTimeline::epoch_boundaries —
/// epoch e begins where e-1 ended and ends at max over robots of (end of the
/// robot's first cycle with start >= epoch begin) — so the boundary list is
/// identical; only O(cycles per epoch) records are buffered at any time.
class StreamingEpochDetector {
 public:
  explicit StreamingEpochDetector(std::size_t robot_count);

  /// Feeds one completed cycle. Cycles of one robot must arrive in
  /// chronological order (as the engines emit them). Returns the number of
  /// epochs that CLOSED as a consequence (usually 0 or 1; a lagging
  /// robot's cycle can close several at once).
  std::size_t add_cycle(const CycleRecord& rec);

  /// Permanently removes `robot` from the epoch requirement (crash-stop
  /// faults): from now on an epoch closes when every LIVE robot has a
  /// qualifying cycle, so survivor progress stays measurable around dead
  /// bodies. The retired robot's buffered cycles are discarded. Returns the
  /// number of epochs that closed as a consequence (the dead robot may have
  /// been the only laggard). Once every robot is retired no further
  /// epochs close.
  std::size_t retire(std::size_t robot);

  /// End times of every epoch closed so far (non-decreasing).
  [[nodiscard]] const std::vector<double>& boundaries() const noexcept {
    return boundaries_;
  }

  /// Number of closed epochs whose end lies in [0, horizon] — the streaming
  /// equivalent of EpochTimeline::count_epochs.
  [[nodiscard]] std::size_t count_epochs(double horizon) const noexcept;

 private:
  /// Closes epochs while every robot has a qualifying cycle buffered.
  std::size_t drain();

  double epoch_begin_ = 0.0;
  std::vector<double> boundaries_;
  // Per robot: buffered cycles with start >= epoch_begin_, chronological.
  std::vector<std::deque<std::pair<double, double>>> pending_;
  std::vector<std::uint8_t> retired_;
  std::size_t live_ = 0;
};

}  // namespace lumen::sched
