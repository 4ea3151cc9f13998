// Incremental analysis sessions: one circuit, many nearly-identical queries.
//
// Every consumer that used to rebuild a Circuit copy + TimingView and
// cold-start the eq. 17 fixpoint per query (the fuzz shrinker, multi-corner
// signoff, sensitivity/parametric sweeps) instead drives ONE AnalysisSession:
//
//   sta::AnalysisSession session(circuit, schedule, options);
//   session.analyze();                    // cold: flatten + fixpoint from 0
//   session.set_path_delay(p, d + 0.1);   // patches the view in place
//   session.analyze();                    // warm: event-driven from old D_i
//
// Correctness contract: analyze() is bit-identical to a fresh
// sta::check_schedule(session.circuit(), session.schedule(), options) no
// matter how the session reached the current state. The warm path is only
// taken when it provably lands on the same least fixpoint (see below);
// everything after the fixpoint is shared code: sta::assemble_report, or on
// the warm path sta::refresh_slacks, which re-evaluates only the records
// whose inputs moved through the same per-element slack functions.
//
// What a warm analyze costs (DESIGN 5.4): the event-driven fixpoint from the
// dirty edges' destinations, then one record per element in the edit's cone
// — those destinations, every element whose departure rose and its fan-out,
// and the elements whose setup, hold or skew changed. A setup record reads
// only D_i, its fan-in and its own margin (L1 and eq. 17), so no other
// record can move; hold records move only with hold-side parameters. The
// worst-slack summaries follow from the refreshed records, and the whole
// element set is rescanned only when the previous worst element's slack rose.
//
// Warm-start safety (DESIGN 5.4): eq. 17 is a monotone max-plus operator F.
// If every edge constant is nondecreasing relative to the previously solved
// system (F_old <= F_new pointwise), the old least fixpoint d satisfies
// d = F_old(d) <= F_new(d), so iterating F_new upward from d is squeezed
// between the cold iteration from 0 and the new least fixpoint — and under
// strictly negative loop gains the iteration stabilizes EXACTLY in finitely
// many steps (each D_i is a max of finitely many affine path terms), which
// is why warm results can be compared bit-for-bit, not just within eps.
// When the loop gain is close to 1 the cold engines can instead stop
// eps-short of the exact fixpoint (FixpointOptions::eps deadband); a warm
// climb from such a base would settle above what a fresh cold solve reports,
// so warm starts additionally require the previous solve to have landed on
// an EXACT fixpoint (residual == 0.0, measured with one read-only pass after
// every cold solve — see fixpoint_exact_).
// Any decrease (TimingView::max_nondecreasing() false, a shrunk schedule
// shift, a structural edit) falls back to a cold solve.
//
// Mutations are logged; mark()/undo_to() rewind the circuit (and view)
// exactly, which is what the shrinker uses to try/reject candidates without
// per-candidate Circuit copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "model/circuit.h"
#include "model/clock.h"
#include "model/timing_view.h"
#include "obs/metrics.h"
#include "sta/analysis.h"

namespace mintc::sta {

class AnalysisSession {
 public:
  /// Mutate/undo-only session (no schedule): what the shrinker needs.
  /// analyze() asserts until set_schedule() is called.
  explicit AnalysisSession(Circuit circuit);
  AnalysisSession(Circuit circuit, ClockSchedule schedule, AnalysisOptions options = {});
  // The engine holds a reference to view_: a copy or move would solve
  // against the source's view.
  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  const Circuit& circuit() const { return circuit_; }
  const ClockSchedule& schedule() const { return schedule_; }
  const AnalysisOptions& options() const { return options_; }

  // -- Parameter edits ------------------------------------------------------
  // Each mirrors the edit into the Circuit and (once built) the TimingView,
  // invalidates the cached report, and appends an undo record. Setters are
  // no-ops when the value is unchanged.
  void set_path_delay(int p, double delay);
  void set_path_min_delay(int p, double min_delay);
  /// Set both delays, ordered so Circuit's delay >= min_delay invariant
  /// holds at every intermediate step. Requires delay >= min_delay.
  void set_path_delays(int p, double delay, double min_delay);
  void set_path_label(int p, std::string label);  // timing-neutral
  void set_element_dq(int i, double dq);
  /// Raw Element::dq_min semantics: < 0 means "track dq".
  void set_element_dq_min(int i, double dq_min);
  void set_element_setup(int i, double setup);
  void set_element_hold(int i, double hold);
  /// Local clock-edge uncertainty σ_i (>= 0, finite). A slack-only
  /// parameter: it never enters the eq. 17 propagation term, so editing it
  /// preserves the warm-start precondition (the fixpoint is untouched; only
  /// the setup/hold margins move).
  void set_element_skew(int i, double skew);

  /// Swap the clock schedule. Warm start survives iff the phase count is
  /// unchanged and no S_ij shrank (ShiftDelta::shifts_nondecreasing).
  void set_schedule(const ClockSchedule& schedule);

  /// Scale the circuit to a process corner, with arithmetic identical to
  /// sta::derate applied to the PRISTINE circuit (the state at session
  /// construction) — corners compose from the reference, not cumulatively.
  /// Requires no structural edits since construction.
  void apply_derating(double delay_scale, double min_scale);

  /// Whether apply_derating is still legal: true until a structural edit
  /// (remove_path/remove_element) changes the element/path counts away from
  /// the pristine reference. The serve layer checks this to reject `derate`
  /// edits with an error instead of tripping the assert.
  bool derating_allowed() const;

  // -- Structural edits (force a cold fallback + view rebuild) --------------
  void remove_path(int p);
  /// Removes the element's incident paths (descending index) first.
  void remove_element(int i);

  // -- State identity (serve-layer cache keys) ------------------------------

  /// Monotone mutation counter: bumped once per state-changing call —
  /// parameter edits, label edits, schedule swaps, derating, structural
  /// edits, and every undo step. It NEVER decreases (undo moves the state
  /// back but the generation forward), so (circuit key, generation) names a
  /// point in the session's edit history exactly once; the serve layer uses
  /// it for generation-based cache invalidation.
  std::uint64_t generation() const { return generation_; }

  /// Monotone count of structural changes: every remove_path and
  /// remove_element, and every undo of one. Element and path numbering
  /// moves only when the stamp does, so while it holds, index i names the
  /// same element. The serve layer reuses a kept `detail` row only under an
  /// unchanged stamp: "remove i, undo, remove j" keeps the element count
  /// but renumbers the names.
  std::uint64_t structure_stamp() const { return structure_stamp_; }

  /// 64-bit fingerprint of the session's CURRENT content: circuit name,
  /// phase count, every element parameter and name, every path (endpoints,
  /// delays, label) and the schedule. Two sessions fingerprint equal iff
  /// their analyses (and rendered reports) are bit-identical, so the
  /// fingerprint is a sound content-addressed cache key.
  ///
  /// Kept current in O(1) per edit: an FNV-1a header (name, phase count,
  /// element and path counts, schedule) over a sum mod 2^64 of per-element
  /// and per-path terms, each hashed together with its index. Every applier
  /// subtracts the item's old term and adds its new one; a structural edit
  /// renumbers items, so it marks the sum stale and the next call recomputes
  /// it. After a parameter edit this call hashes the header and the schedule
  /// only — no element or path is visited.
  std::uint64_t content_fingerprint() const;

  /// Circuit::validate() of the current circuit, assuming the circuit at
  /// `mark` was validate()-clean. Parameter edits change only the items
  /// their undo records name and never an endpoint, so the problems are
  /// exactly those validate_element/validate_path find on those items, in
  /// index order; the cost is O(records since mark). A structural record
  /// since `mark` renumbers items, so the whole-circuit check runs instead.
  std::vector<std::string> validate_since(size_t mark) const;

  // -- Undo log -------------------------------------------------------------
  size_t mark() const { return forgotten_ + undo_.size(); }
  void undo();                  // revert the most recent mutation
  void undo_to(size_t mark);    // revert everything after mark()
  /// Drop the records before `mark` (<= mark()), so the log no longer
  /// reaches back past it; later marks keep their numbers. A long-lived
  /// owner calls this to bound the log's bytes.
  void forget_before(size_t mark);

  /// Analyze the current state. Returns a cached report when nothing
  /// changed, warm-starts the fixpoint when the change was monotone, and
  /// cold-solves otherwise — always bit-identical to a fresh
  /// sta::check_schedule of the current circuit/schedule. A warm start on an
  /// unchanged schedule (without provenance, and with the early vector still
  /// valid when hold is checked) rewrites only the edit's cone of the cached
  /// report; every other case assembles the report in full.
  const TimingReport& analyze();

  struct Counters {
    long analyses = 0;       // analyze() calls
    long warm_hits = 0;      // served from cache or a warm-started fixpoint
    long invalidations = 0;  // mutation batches that dirtied a valid report
    long cold_fallbacks = 0; // cold solves with prior state present
    long hold_reuses = 0;    // hold checks reusing the cached early vector
    /// Element records the warm refresh recomputed (a full assembly
    /// recomputes all l and is not counted here).
    long slack_refreshes = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  // One logged mutation, 16 bytes. Payloads that do not fit a scalar live on
  // per-kind LIFO side stacks that undo() pops with their record.
  struct UndoRecord {
    enum class Kind : std::uint8_t {
      kPathDelay,
      kPathMinDelay,
      kPathLabel,       // previous label on undo_labels_
      kElementDq,
      kElementDqMin,
      kElementSetup,
      kElementHold,
      kElementSkew,
      kSchedule,        // index = previous phase count, value = previous Tc;
                        // its starts then widths on undo_schedules_
      kPathRemoved,     // the path on undo_paths_
      kElementRemoved,  // the element on undo_elements_
    };
    Kind kind;
    int index = 0;       // path/element id (also the re-insert position)
    double value = 0.0;  // previous scalar value
  };
  static_assert(sizeof(UndoRecord) == 16, "undo records must stay compact");

  // Non-logging appliers shared by the setters and undo().
  void apply_path_delay(int p, double delay);
  void apply_path_min_delay(int p, double min_delay);
  void apply_path_label(int p, std::string label);
  void apply_element_dq(int i, double dq);
  void apply_element_dq_min(int i, double dq_min);
  void apply_element_setup(int i, double setup);
  void apply_element_hold(int i, double hold);
  void apply_element_skew(int i, double skew);
  void apply_schedule(const ClockSchedule& schedule);
  void apply_structural();  // after a remove/re-insert: rebuild view, cold solve
  void touch();  // bump generation(), invalidate the cached report (counted once per batch)

  // Content-sum terms (see content_fingerprint) and the edit wrappers that
  // swap an item's old term for its new one around `mutate`.
  std::uint64_t element_term(int i) const;
  std::uint64_t path_term(int p) const;
  template <typename Fn>
  void edit_element(int i, Fn&& mutate);
  template <typename Fn>
  void edit_path(int p, Fn&& mutate);

  /// The warm path's counterpart of sta::assemble_report: rewrites report_
  /// in place through sta::refresh_slacks, for the setup records of the
  /// dirty edges' destinations, the elements `fp` raised (raised_) and their
  /// fan-out, and the setup and hold records of param_edited_. It skips the
  /// clock check, the early re-solve and every other record. Only valid when
  /// the schedule and structure are unchanged, provenance is off, and (when
  /// hold is checked) the cached early vector is still valid.
  void refresh_report_warm(FixpointResult fp);

  Circuit circuit_;
  ClockSchedule schedule_;
  AnalysisOptions options_;
  bool has_schedule_ = false;

  // The numbers apply_derating scales, as they were at construction: each
  // element's setup, dq and raw dq_min, and each path's max and min delay.
  // Names, labels and endpoints are not kept; derating never reads them.
  struct PristineElement {
    double setup, dq, dq_min;
  };
  struct PristinePath {
    double delay, min_delay;
  };
  std::vector<PristineElement> pristine_elements_;
  std::vector<PristinePath> pristine_paths_;

  std::optional<TimingView> view_;
  std::optional<ShiftTable> shifts_;
  // The fixpoint engine and its SCC plan, built with view_ and rebuilt only
  // with it (structural edits); every cold solve runs through it. After a
  // structural edit resets view_ the engine is stale but unused until
  // analyze() rebuilds both.
  std::optional<FixpointEngine> engine_;

  TimingReport report_;
  bool report_valid_ = false;  // report_ matches the current state
  bool have_report_ = false;   // some analyze() has completed

  FixpointResult early_;     // cached hold-side min-fixpoint
  bool early_valid_ = false;

  std::vector<int> seeds_;   // scratch: warm fixpoint seed list
  std::vector<int> raised_;  // scratch: elements the warm fixpoint raised
  // Elements whose setup, hold or skew changed since the last analyze, in
  // edit order (repeats allowed).
  std::vector<int> param_edited_;
  // Scratch of refresh_report_warm: the records to re-evaluate, and a
  // per-element queued mark, all zero between calls.
  std::vector<int> setup_refresh_;
  std::vector<int> hold_refresh_;
  std::vector<char> refresh_mark_;

  bool structural_dirty_ = false;   // view numbering stale: rebuild + cold
  bool schedule_changed_ = false;   // shifts/starts/widths moved since analyze
  bool schedule_warm_ok_ = true;    // no S_ij shrank, shape kept
  // The last solve landed on an EXACT float fixpoint (residual == 0.0), not
  // merely an eps-converged one. Warm starts are only bit-identical to a
  // cold solve when climbing from an exact fixpoint, so this gates
  // warm_eligible: cold solves measure it with one read-only relaxation
  // pass, warm solves preserve it by construction (strict acceptance from an
  // exact base cannot introduce residual).
  bool fixpoint_exact_ = false;

  // Deques, so forget_before drops the oldest records and payloads from
  // their fronts in O(1) each.
  std::deque<UndoRecord> undo_;
  std::deque<std::string> undo_labels_;
  std::deque<double> undo_schedules_;
  std::deque<CombPath> undo_paths_;
  std::deque<Element> undo_elements_;
  size_t forgotten_ = 0;  // records forget_before dropped: undo_[0]'s mark
  Counters counters_;

  std::uint64_t generation_ = 0;
  std::uint64_t structure_stamp_ = 0;
  // Sum mod 2^64 of every element_term and path_term. Stale from
  // construction and after structural edits until content_fingerprint()
  // recomputes it; while stale, parameter edits skip the term updates.
  mutable std::uint64_t content_sum_ = 0;
  mutable bool content_sum_stale_ = true;
};

}  // namespace mintc::sta
