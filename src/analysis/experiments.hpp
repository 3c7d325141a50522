// lumen_analysis: the experiment registry.
//
// Each of the paper-reproduction experiments (E1–E6, E8–E13) is a
// library-level Experiment: a name, a description, a default ScenarioSpec,
// and a run function that reduces campaigns to a structured
// ExperimentResult (typed rows + free-text notes + named claim checks).
// The `lumen-bench` driver is a thin shell over this registry —
// list/describe/run — and write_report renders the same
// ExperimentResult as an aligned table, CSV, or JSON. Experiment bodies
// were moved verbatim from the former ad-hoc bench_*.cpp binaries so the
// printed metric values are unchanged (tested in
// analysis_experiments_test.cpp).
#pragma once

#include "analysis/scenario.hpp"
#include "util/strings.hpp"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lumen::analysis {

/// One table cell: the formatted text every reporter shows, plus the raw
/// number (when the cell is numeric) for machine-readable output.
struct MetricCell {
  std::string text;
  std::optional<double> value;
};

[[nodiscard]] MetricCell cell(std::string_view text);
[[nodiscard]] MetricCell cell(double value, int precision = 3);
[[nodiscard]] MetricCell cell(std::size_t value);

/// A claim check's outcome; only kFail fails a run. kUndecided: the data
/// cannot tell, e.g. E1's growth verdict over a too-short sweep.
enum class Verdict { kPass, kFail, kUndecided };

inline constexpr auto kVerdictNames = std::to_array<util::Named<Verdict>>({
    {Verdict::kPass, "pass"},
    {Verdict::kFail, "fail"},
    {Verdict::kUndecided, "undecided"},
});

[[nodiscard]] constexpr std::string_view to_string(Verdict v) noexcept {
  return util::name_of(kVerdictNames, v);
}

/// The verdict of a yes/no claim.
[[nodiscard]] constexpr Verdict pass_if(bool ok) noexcept {
  return ok ? Verdict::kPass : Verdict::kFail;
}

struct ExperimentResult {
  std::string experiment;  ///< Registry name.
  std::string title;       ///< Table caption.
  std::vector<std::string> columns;
  std::vector<std::vector<MetricCell>> rows;
  /// Free-text findings printed after the table (fits, ratios, caveats).
  std::vector<std::string> notes;
  /// Named claim verdicts; `lumen-bench run` exits 1 when any is kFail.
  struct Check {
    std::string label;
    Verdict verdict = Verdict::kFail;
  };
  std::vector<Check> checks;
  /// Set when any campaign was cut short (stop requested, cells skipped) or
  /// recorded cell errors: the table's aggregates cover only the cells that
  /// produced metrics. Reporters flag it; claim checks over a partial
  /// result are not trustworthy either way.
  bool partial = false;

  /// True when no check failed (undecided checks do not fail a result).
  [[nodiscard]] bool passed() const noexcept;

  /// Row-building shorthand used by the experiment bodies.
  std::vector<MetricCell>& row();
};

/// Everything an experiment body needs from its host besides the spec: the
/// worker pool plus the resilience hooks (journal / resume / stop — see
/// CampaignControl) the body threads into every run_campaign call.
struct ExperimentContext {
  /// nullptr -> util::global_pool(). Only sets parallelism; results are
  /// bit-identical for any pool size.
  util::ThreadPool* pool = nullptr;
  CampaignControl control;
  /// When set, every campaign the experiment bodies run routes through this
  /// instead of calling run_campaign directly — the hook must honor
  /// `control` exactly as run_campaign does (journal, resume, stop, on_cell)
  /// and return a result bit-identical to run_campaign's. lumen-bench uses
  /// it to reroute campaigns through the multi-process fabric coordinator
  /// (--workers); since results are execution-strategy-invariant, experiment
  /// bodies cannot tell the difference.
  std::function<CampaignResult(const CampaignSpec&)> runner;

  /// The one way experiment bodies execute a campaign: the runner when one
  /// is installed, plain run_campaign otherwise.
  [[nodiscard]] CampaignResult execute(const CampaignSpec& spec) const {
    return runner ? runner(spec) : run_campaign(spec, pool, control);
  }
};

struct Experiment {
  std::string name;         ///< Stable CLI name, e.g. "time-vs-n".
  std::string id;           ///< Paper-record id, e.g. "E1".
  std::string description;  ///< One-paragraph what/why.
  ScenarioSpec defaults;    ///< The spec the experiment runs without overrides.
  /// Executes the experiment under the given context.
  std::function<ExperimentResult(const ScenarioSpec&, const ExperimentContext&)>
      run;
};

class ExperimentRegistry {
 public:
  /// The process-wide registry with all built-in experiments.
  [[nodiscard]] static const ExperimentRegistry& instance();

  /// Registers an experiment contributed by a HIGHER layer (lumen_search's
  /// E13 hunt experiment registers itself through this from the bench
  /// driver — lumen_analysis cannot link the search library without a
  /// cycle). Idempotent per id: a second registration of an id is ignored.
  /// Call before any threads query the registry (main(), not a ctor race).
  static void register_external(Experiment experiment);

  [[nodiscard]] const std::vector<Experiment>& experiments() const noexcept {
    return experiments_;
  }
  /// Lookup by name or id ("time-vs-n" or "E1"); nullptr when unknown.
  [[nodiscard]] const Experiment* find(std::string_view name_or_id) const noexcept;

 private:
  ExperimentRegistry();
  [[nodiscard]] static ExperimentRegistry& mutable_instance();
  std::vector<Experiment> experiments_;
};

}  // namespace lumen::analysis
