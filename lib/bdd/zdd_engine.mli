(** ZDD-backed cutset engine: modular BDD compilation, Rauzy
    minimal-solution extraction, and weighted-count quantification.

    A peer of MOCUS for static (or translated) trees. Per independent
    module — bottom-up, nested module gates appearing as pseudo-variables
    in their parent's diagram — the engine compiles the structure function
    to a BDD, extracts the minimal-cutset family as a ZDD, and folds the
    family's total rare-event mass, saturating cutset count, and
    enumeration bounds out of the shared diagram without materializing the
    (possibly astronomic) cutset list. Only the cutsets above the cutoff
    (and within the order bound) are composed across modules and emitted;
    the mass of everything else is [total_mass - emitted_mass], {e exact}
    rather than an upper bound — which is what lets the downstream
    certified interval carry zero unaccounted pruned mass.

    Resource governance: the caller's guard is threaded through BDD
    construction, the ZDD subsumption passes (see {!Zdd.manager}), the
    folds, and the enumeration walk; a tripped limit raises
    {!Sdft_util.Guard.Limit_hit} out of {!run}. Each module's ZDD operation
    caches are dropped ({!Zdd.clear_caches}) as soon as the module is
    quantified. *)

type result = {
  cutsets : Sdft_util.Int_set.t list;
      (** minimal cutsets with probability product [>= cutoff] and
          cardinality [<= max_order], sorted by {!Sdft_util.Int_set.compare} *)
  total_mass : float;
      (** rare-event mass of {e all} minimal cutsets (the ZDD weighted
          count) — never enumerated *)
  emitted_mass : float;  (** rare-event mass of [cutsets] *)
  residual_mass : float;
      (** [total_mass - emitted_mass]: the exact mass of the cutsets
          dropped by the cutoff and order bounds (clamped at 0 against
          float noise) *)
  n_minimal : int;
      (** saturating count of all minimal cutsets ([max_int] = "at least") *)
  n_minimal_saturated : bool;
  n_modules : int;
  max_zdd_nodes : int;  (** largest per-module minimal-solutions ZDD *)
}

val run :
  ?cutoff:float ->
  ?max_order:int ->
  ?guard:Sdft_util.Guard.t ->
  ?obs:Sdft_util.Obs.t ->
  Fault_tree.t ->
  result
(** [run tree] quantifies the tree's minimal-cutset family with its own
    basic-event probabilities. [cutoff] defaults to [0.0] (emit every
    minimal cutset); [max_order] defaults to unbounded. [obs] (default
    {!Sdft_util.Obs.default}) receives the [zdd.run] trace span, the
    [zdd.runs] / [zdd.modules] / [zdd.cutsets_emitted] tallies and the
    [zdd.peak_nodes] high-water gauge; its [zdd.module] failpoint site
    fires before each module compilation.

    @raise Sdft_util.Guard.Limit_hit when the guard trips — unlike MOCUS
    there is no sound partial result to salvage; the caller degrades. *)
