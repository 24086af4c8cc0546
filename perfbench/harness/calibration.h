#pragma once

namespace perfbench {

/// Host seconds of one run of a fixed discrete-event kernel that shares no
/// code with the simulator: a 4096-entry timer heap whose firings update a
/// hash map of 256 entries and reschedule themselves. It is a few
/// milliseconds of the same kind of work as the event loop, so other
/// tenants slow it roughly as much as they slow a pass.
double CalibrationSample();

/// About the quickest CalibrationSample() on the host the bounds were set
/// on (a 4-core VM; 4.96-5.63 ms over five 30 s runs). Reported host times
/// are scaled to that host:
///   time_reported = time_measured * kCalibrationReferenceS / calibration
/// where `calibration` is the run's quickest sample.
inline constexpr double kCalibrationReferenceS = 0.005;

}  // namespace perfbench
