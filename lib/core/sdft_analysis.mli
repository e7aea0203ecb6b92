(** The two-phase analysis of SD fault trees (Section V).

    Phase 1 translates the SD fault tree into a static one with identical
    minimal cutsets and generates all minimal cutsets above the cutoff with
    a static cutset engine — the modular ZDD engine by default, or the
    paper's MOCUS (the translation's worst-case probabilities make the
    cutoff conservative for both). Phase 2 quantifies each cutset: a purely
    static cutset contributes its probability product; a cutset with
    dynamic events gets a small model [FT_C] whose product CTMC is solved
    by transient analysis.
    The rare-event approximation sums all contributions above the cutoff.

    The per-cutset statistics collected here (number of dynamic events in
    each cutset, number of events added by triggering logic, Markov-chain
    sizes, per-cutset solve times) are exactly the quantities reported in
    the paper's Figures 2 and 3 and its summary tables. *)

type engine =
  | Mocus_sound
      (** the paper's MOCUS (Section IV-B) with its basics-only cutoff —
          never loses a cutset above the cutoff; kept as the reference
          algorithm and as the oracle the ZDD engine is checked against.
          Its pruned mass is an upper bound, and a resource limit leaves a
          sound partial cutset list. *)
  | Zdd_engine
      (** the modular ZDD cutset engine ({!Zdd_engine.run}), the default:
          per independent module, compile to a BDD, extract the
          minimal-solutions ZDD and quantify by recursive weighted counting
          without materializing the cutset list. The mass dropped by the
          cutoff and order bounds is accounted {e exactly} (total weighted
          count minus emitted mass): when nothing else degrades, the
          interval's width is bounded by the summed solver epsilons plus
          the (exact) residual. *)

type options = {
  horizon : float;  (** analysis horizon [t], e.g. 24 hours *)
  cutoff : float;  (** the cutoff [c*] (paper: 1e-15) *)
  transient_epsilon : float;
  max_product_states : int;
  max_cutset_order : int option;
  engine : engine;
  domains : int;
      (** worker domains for the per-cutset quantification phase — the
          paper's closing remark notes this phase is trivially parallel.
          [1] (default) keeps everything on the calling domain. *)
  rel_rule : Cutset_model.rel_rule;
      (** [Paper] (default) uses the class-reduced relevant sets of Section
          V-C; [All_events] quantifies every cutset with the exact general
          rule. *)
  deadline : float option;
      (** wall-clock budget in seconds for the whole analysis (generation
          plus quantification). When it expires the analysis {e degrades}
          instead of aborting: MOCUS folds its unexplored branch mass into
          the pruned mass, and every not-yet-quantified cutset falls back to
          its conservative worst-case product (see {!cutset_info.degraded}).
          [None] (default): no deadline. *)
  mem_limit_mb : int option;
      (** ceiling on the major-heap size in megabytes, probed at the same
          cooperative checkpoints; degrades identically. [None]: no
          ceiling. *)
}

val default_options : options
(** horizon 24.0, cutoff 1e-15, epsilon 1e-12, one million product states,
    no order bound, [Zdd_engine], one domain, no deadline or memory
    ceiling. Its [engine] is the one default engine of the CLI, the wire
    protocol, {!static_rare_event} and the dynamization ranking. *)

val engines : engine list
(** Every engine, in the order the CLI lists them. *)

val engine_name : engine -> string
(** The CLI and wire spelling: ["mocus"] or ["zdd"]. *)

type cutset_info = {
  cutset : Cutset.t;
  probability : float;  (** [p~(C)] — time-aware when dynamic *)
  n_dynamic : int;  (** dynamic events in the cutset itself *)
  n_added_dynamic : int;  (** extra dynamic events in [FT_C] *)
  product_states : int;  (** 0 for purely static cutsets *)
  product_transitions : int;  (** transitions of the product chain *)
  solver_steps : int;  (** uniformized DTMC steps of the transient solve *)
  solver_error : float;
      (** upper bound on this cutset's numerical error (see
          {!Cutset_model.quantification}); for fallback cutsets, the
          cardinality times the transient epsilon *)
  from_cache : bool;  (** served by a {!Quant_cache} hit *)
  solve_seconds : float;
  used_fallback : bool;
      (** the cutset was quantified with its (conservative) worst-case
          static product instead of an exact product-chain solve *)
  degraded : Sdft_util.Guard.reason option;
      (** why the fallback was taken: [State_limit] when the product chain
          exceeded [max_product_states], [Deadline]/[Mem_limit] when a
          resource guard tripped, [Worker_crash] when the quantification of
          this cutset raised and was contained. [None] for an exact solve.
          Always set when [used_fallback]. *)
  engine : engine;
      (** provenance: the engine whose generation phase produced this
          cutset *)
}

type error_budget = {
  pruned_mass : float;
      (** mass discarded during generation. For [Mocus_sound]: an upper
          bound on the union probability of all cutsets refined from
          branches pruned by the cutoff. For [Zdd_engine]: the {e exact}
          rare-event mass of the minimal cutsets dropped by the cutoff and
          order bounds (total weighted count minus emitted mass). *)
  below_cutoff_mass : float;
      (** mass of quantified cutsets excluded from [total] by the relevance
          filter [p~(C) > cutoff] *)
  solver_error_total : float;
      (** summed per-cutset numerical error bounds (uniformization epsilon
          scaled by static multipliers; fallbacks contribute cardinality
          times epsilon) *)
  rare_event_slack : float;
      (** [total - lower]: how much of the interval width stems from the
          rare-event over-approximation rather than from discarded mass *)
  lower : float;
      (** certified lower bound: the largest individually quantified
          non-fallback cutset probability minus its solver error (any single
          cutset failing implies top failure) *)
  upper : float;
      (** certified upper bound:
          [total + pruned_mass + below_cutoff_mass + solver_error_total];
          may exceed 1 when the rare-event sum does. When [vacuous], the
          budget cannot account for all discarded mass and [upper] degrades
          to [max 1 total]. *)
  vacuous : bool;
      (** the interval is trivial: cutset generation was truncated
          ([generation.truncated]; a ZDD compilation stopped by a resource
          limit), so the dropped mass is unaccounted. *)
}

type degradation = {
  generation_limit : Sdft_util.Guard.reason option;
      (** cutset generation was stopped early by a resource limit. For the
          MOCUS engine the unexplored branch mass was folded into
          [budget.pruned_mass], so the certified interval stays sound {e
          and} informative; for the ZDD engine nothing can be salvaged and
          the budget is vacuous. *)
  degraded_cutsets : (Sdft_util.Guard.reason * int) list;
      (** how many cutsets fell back to the worst-case bound, per reason
          (reasons with zero count are omitted; fixed reason order) *)
}

type result = {
  total : float;
      (** rare-event approximation: sum of [p~(C)] over cutsets above the
          cutoff *)
  cutoff : float;
      (** the cutoff the analysis ran with — the filter behind [total],
          reused by the importance functions so numerator and denominator
          agree *)
  engine_used : engine;
      (** the engine generation ran with ([options.engine]) *)
  cutsets : cutset_info list;  (** sorted by decreasing probability *)
  n_cutsets : int;
  n_dynamic_cutsets : int;  (** cutsets needing Markov analysis *)
  n_fallbacks : int;
      (** cutsets whose chains exceeded the state bound (conservatively
          quantified; consider [All_events -> Paper] or a larger
          [max_product_states] when nonzero) *)
  budget : error_budget;
      (** certified interval [lower, upper] around [total] with its itemized
          error terms *)
  degradation : degradation;
      (** what graceful degradation, if any, shaped this result *)
  mcs_generation_seconds : float;
  quantification_seconds : float;
  generation : Mocus.result;
      (** cutset-generation statistics (synthesised for the ZDD engine) *)
  translation : Sdft_translate.result;
}

val analyze :
  ?options:options -> ?cache:Quant_cache.t -> ?obs:Sdft_util.Obs.t ->
  Sdft.t -> result
(** [cache], when given, routes per-cutset quantification through a
    {!Quant_cache.t} so that isomorphic cutset sub-models — within this call
    or across calls sharing the cache — are solved once. Results are
    bit-identical to the uncached path for models with equal fingerprints.

    With [options.deadline] or [options.mem_limit_mb] set, one
    {!Sdft_util.Guard} is shared by both phases and the analysis never
    raises on a limit: it returns a (possibly) degraded result whose
    [degradation] field records what was cut short. Totals and upper bounds
    remain sound because every degraded cutset is replaced by an upper
    bound on its probability; the certified lower bound never anchors on a
    degraded cutset.

    [obs] (default {!Sdft_util.Obs.default}) is the observability context
    threaded through the whole pipeline: every counter, span, histogram
    (notably the per-cutset [analysis.cutset_solve_s] solve times), trace
    event and failpoint site of this analysis lands in its registries, and
    a {!Sdft_util.Progress} reporter attached to it is driven through the
    two phases (with a cost-weighted ETA over the quantification schedule)
    via the shared guard's probe hook. Instrumentation never changes the
    numbers: results are bit-identical whether [obs] is the default, a
    fresh context, or one with a live progress reporter. *)

val degraded : result -> bool
(** Any degradation at all — generation stopped early, or at least one
    cutset fell back because of a limit or a contained crash. *)

val degradation_description : result -> string
(** One-line human-readable summary of the degradation (the DEGRADED banner
    body); meaningless when [degraded] is false. *)

type sweep_point = {
  sweep_options : options;
  sweep_result : result;
  cache_hits : int;  (** cache hits attributable to this point *)
  cache_misses : int;
}

val sweep :
  ?cache:Quant_cache.t ->
  ?obs:Sdft_util.Obs.t ->
  Sdft.t ->
  options list ->
  sweep_point list * Quant_cache.t
(** [sweep sd option_sets] runs {!analyze} once per option set against [sd],
    sharing one quantification cache across the whole sweep (a fresh one
    unless [cache] is given, which lets several sweeps share). Returns the
    per-point results with their cache-traffic deltas, plus the cache for
    reuse or inspection. Aggregate hit/miss totals are also published on the
    ["quant_cache.hits"/"quant_cache.misses"] metrics counters. *)

(** {1 Checkpointed sweeps}

    A sweep run with a {!Checkpoint} journal survives being killed — even
    with [SIGKILL] — at any instant: every certified per-cutset solve and
    every completed point is journaled as it happens, and a [--resume] run
    skips completed points outright, re-solves only the unfinished cutsets
    of the interrupted point, and produces final results bit-identical to
    an uninterrupted run. *)

val options_fingerprint : options -> string
(** Canonical serialization of every result-influencing option (numerics,
    engine, rel-rule, resource limits). [domains] is excluded: the work
    partition never changes result bits, so a resume may use a different
    parallelism than the interrupted run. *)

val point_key : Sdft.t -> options -> string
(** Stable identity of one sweep point: MD5 of the model's canonical
    fingerprint plus {!options_fingerprint}. This is the key under which
    {!sweep_checkpointed} journals and finds completed points. *)

type sweep_item =
  | Sweep_run of sweep_point  (** computed (or recomputed) this run *)
  | Sweep_skipped of Checkpoint.point
      (** certified by the journal; result replayed without recomputing *)

val sweep_checkpointed :
  ?cache:Quant_cache.t ->
  ?obs:Sdft_util.Obs.t ->
  journal:Checkpoint.t ->
  resume:bool ->
  ?on_point:(sweep_item -> unit) ->
  Sdft.t ->
  options list ->
  sweep_item list * Quant_cache.t
(** Like {!sweep}, journaling into [journal]: each fresh solve is recorded
    through {!Quant_cache.set_on_store}, each completed point as a point
    record. With [resume], the cache is first seeded from the journal's
    item records and points already journaled are returned as
    [Sweep_skipped] without running. [on_point] fires after each item in
    sweep order — the CLI prints (and flushes) its row there, so progress
    is visible and a kill between points loses nothing. The observability
    context's progress phase ["sweep"] prices only the points that actually
    run, surfacing the checkpoint-skipped count separately. *)

val static_rare_event :
  ?cutoff:float -> ?engine:engine -> Fault_tree.t -> float * int
(** Baseline "no timing" analysis of a plain static tree: cutset generation
    plus rare-event approximation. Returns the approximation and the number
    of cutsets above the cutoff. *)

val generate_cutsets :
  ?cutoff:float -> ?max_order:int option -> ?guard:Sdft_util.Guard.t ->
  ?obs:Sdft_util.Obs.t -> engine -> Fault_tree.t -> Mocus.result
(** Run the chosen cutset engine on a static tree. A tripped [guard] never
    raises: MOCUS returns its accounted partial result (see {!Mocus.run});
    the ZDD engine returns an empty result with [truncated] and [limit_hit]
    set. For [Zdd_engine] the returned [pruned_mass] is the exact residual
    mass and [generated]/[pruned_by_cutoff] count {e all} minimal cutsets
    (saturating at [max_int]). *)

val dynamic_histogram : result -> Sdft_util.Histogram.t
(** Distribution of the number of dynamic basic events per minimal cutset
    (Figure 2). *)

val mean_added_dynamic : result -> float
(** Among cutsets with dynamic events: mean number of events added because
    triggering gates lack static branching (the paper reports 1.78 of 3.02
    for the fully dynamic BWR model). *)

val fussell_vesely : result -> int -> float
(** Time-aware Fussell-Vesely importance: share of the total frequency
    carried by cutsets containing the event, with each cutset weighted by
    its dynamic quantification [p~(C)]. The paper's closing remark about
    importance analyses re-evaluating the cutset list "once for each basic
    event" reduces to these cached sums. *)

val rank_by_fussell_vesely : result -> n_basics:int -> int list
(** All basic events by decreasing time-aware importance. *)

val pp_summary : Format.formatter -> result -> unit
(** One-screen summary including the certified interval. *)

val pp_budget : Format.formatter -> result -> unit
(** Itemized error-budget breakdown with the certified interval. *)

(** {1 Cross-checking against a statistical oracle}

    The rare-event simulator ({!Rare_event} in [sdft.sim]) produces an
    unbiased estimate of the exact product-semantics probability with a
    confidence interval. Since the certified budget interval
    [[budget.lower, budget.upper]] also brackets that exact value, the two
    intervals must overlap (up to the CI's confidence level) whenever both
    the analytic pipeline and the simulator are sound — a disjoint pair is
    strong evidence of a bug in one of them. *)

type sim_check = {
  sim_lower : float;  (** simulation confidence interval *)
  sim_upper : float;
  budget_lower : float;  (** the analysis' certified interval *)
  budget_upper : float;
  overlaps : bool;  (** the intervals intersect *)
  gap : float;  (** distance between the intervals; 0 when overlapping *)
  vacuous_budget : bool;
      (** the budget interval was vacuous, so an overlap is trivial *)
}

val verify_sim : result -> sim_ci:float * float -> sim_check
(** [verify_sim result ~sim_ci:(lo, hi)] compares a simulation confidence
    interval against the result's certified budget interval. The simulation
    side is passed as plain bounds so this check does not depend on the
    simulator library (which sits above this one); [Rare_event.verify]
    wires the two together.

    @raise Invalid_argument when [lo > hi]. *)

val pp_sim_check : Format.formatter -> sim_check -> unit
