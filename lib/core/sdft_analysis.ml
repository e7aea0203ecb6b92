module Metrics = Sdft_util.Metrics
module Trace = Sdft_util.Trace
module Obs = Sdft_util.Obs

(* Per-observability-context instrument handles, resolved once per analyze
   call (physical-equality fast path on the default context — see
   Sdft_util.Obs). *)
type handles = {
  m_runs : Metrics.counter;
  m_mcs_span : Metrics.span;
  m_quant_span : Metrics.span;
  m_fallbacks : Metrics.counter;
  m_product_states : Metrics.counter;
  m_cutsets : Metrics.counter;
  m_solve_s : Metrics.histogram;
}

let handles_in m =
  {
    m_runs = Metrics.counter_in m "analysis.runs";
    m_mcs_span = Metrics.span_in m "analysis.mcs_generation";
    m_quant_span = Metrics.span_in m "analysis.quantification";
    m_fallbacks = Metrics.counter_in m "analysis.fallbacks";
    m_product_states = Metrics.counter_in m "analysis.product_states";
    m_cutsets = Metrics.counter_in m "analysis.cutsets_quantified";
    m_solve_s = Metrics.histogram_in m "analysis.cutset_solve_s";
  }

let default_handles = handles_in Metrics.default

let handles_of m =
  if m == Metrics.default then default_handles else handles_in m

type engine =
  | Mocus_sound
  | Zdd_engine

type options = {
  horizon : float;
  cutoff : float;
  transient_epsilon : float;
  max_product_states : int;
  max_cutset_order : int option;
  engine : engine;
  domains : int;
  rel_rule : Cutset_model.rel_rule;
  deadline : float option;
  mem_limit_mb : int option;
}

let default_options =
  {
    horizon = 24.0;
    cutoff = 1e-15;
    transient_epsilon = 1e-12;
    max_product_states = 1_000_000;
    max_cutset_order = None;
    engine = Zdd_engine;
    domains = 1;
    rel_rule = Cutset_model.Paper;
    deadline = None;
    mem_limit_mb = None;
  }

let engines = [ Mocus_sound; Zdd_engine ]

let engine_name = function Mocus_sound -> "mocus" | Zdd_engine -> "zdd"

let generate_cutsets ?(cutoff = 1e-15) ?(max_order = None)
    ?(guard = Sdft_util.Guard.none) ?(obs = Obs.default) engine tree =
  match engine with
  | Mocus_sound ->
    let options = { Mocus.default_options with cutoff; max_order } in
    Mocus.run ~options ~guard ~obs tree
  | Zdd_engine -> (
    let empty_on limit =
      (* Unlike MOCUS there is no sound partial cutset list to salvage from
         an interrupted ZDD compilation, and no mass bound for what is
         missing: return an empty truncated (hence vacuous) result. *)
      {
        Mocus.cutsets = [];
        generated = 0;
        pruned_by_cutoff = 0;
        pruned_mass = 0.0;
        truncated = true;
        limit_hit = Some limit;
      }
    in
    match Zdd_engine.run ~cutoff ?max_order ~guard ~obs tree with
    | r ->
      let emitted = List.length r.Zdd_engine.cutsets in
      {
        Mocus.cutsets = r.Zdd_engine.cutsets;
        generated =
          (if r.Zdd_engine.n_minimal_saturated then max_int
           else r.Zdd_engine.n_minimal);
        pruned_by_cutoff =
          (if r.Zdd_engine.n_minimal_saturated then max_int
           else r.Zdd_engine.n_minimal - emitted);
        (* Exact, not an upper bound: the ZDD weighted count covers the mass
           of every minimal cutset without enumerating them, so what the
           cutoff and order bounds dropped is accounted to the last bit and
           the certified interval stays non-vacuous. *)
        pruned_mass = r.Zdd_engine.residual_mass;
        truncated = false;
        limit_hit = None;
      }
    | exception Sdft_util.Guard.Limit_hit r -> empty_on r
    | exception Out_of_memory -> empty_on Sdft_util.Guard.Mem_limit)

type cutset_info = {
  cutset : Cutset.t;
  probability : float;
  n_dynamic : int;
  n_added_dynamic : int;
  product_states : int;
  product_transitions : int;
  solver_steps : int;
  solver_error : float;
  from_cache : bool;
  solve_seconds : float;
  used_fallback : bool;
  degraded : Sdft_util.Guard.reason option;
  engine : engine;
}

type error_budget = {
  pruned_mass : float;
  below_cutoff_mass : float;
  solver_error_total : float;
  rare_event_slack : float;
  lower : float;
  upper : float;
  vacuous : bool;
}

type degradation = {
  generation_limit : Sdft_util.Guard.reason option;
  degraded_cutsets : (Sdft_util.Guard.reason * int) list;
}

type result = {
  total : float;
  cutoff : float;
  engine_used : engine;
  cutsets : cutset_info list;
  n_cutsets : int;
  n_dynamic_cutsets : int;
  n_fallbacks : int;
  budget : error_budget;
  degradation : degradation;
  mcs_generation_seconds : float;
  quantification_seconds : float;
  generation : Mocus.result;
  translation : Sdft_translate.result;
}

let degraded r =
  r.degradation.generation_limit <> None || r.degradation.degraded_cutsets <> []

let analyze ?(options = default_options) ?cache ?(obs = Obs.default) sd =
  let h = handles_of obs.Obs.metrics in
  let sink = obs.Obs.trace in
  Trace.with_span ~sink "analysis.analyze" (fun () ->
  Fun.protect ~finally:(fun () -> Obs.finish_progress obs) @@ fun () ->
  Metrics.incr h.m_runs;
  (* One guard for the whole analysis: the deadline spans generation and
     quantification together, so a generation overrun eats the budget of the
     quantification phase (which then degrades cutset by cutset). A live
     progress reporter rides the same guard: its probe callback runs at the
     guard's amortized stride, so an unlimited-but-observed analysis keeps a
     (passive-limit) guard just for the heartbeat. *)
  let guard =
    match (options.deadline, options.mem_limit_mb, Obs.on_probe obs) with
    | None, None, None -> Sdft_util.Guard.none
    | deadline, mem_limit_mb, on_probe ->
      Sdft_util.Guard.create ?deadline ?mem_limit_mb ?on_probe ()
  in
  Obs.begin_phase obs "generation" ();
  (* Phase 1: translation and cutset generation; the engine is recorded as
     provenance on the result and on every cutset record. *)
  let engine_used = options.engine in
  let (translation, mocus_result), mcs_generation_seconds =
    Sdft_util.Timer.time (fun () ->
        Metrics.time h.m_mcs_span (fun () ->
            Trace.with_span ~sink "analysis.mcs_generation" (fun () ->
            let translation =
              Sdft_translate.translate ~epsilon:options.transient_epsilon ~obs
                sd ~horizon:options.horizon
            in
            Trace.add_attr ~sink "engine"
              (Trace.Str (engine_name engine_used));
            ( translation,
              generate_cutsets ~cutoff:options.cutoff
                ~max_order:options.max_cutset_order ~guard ~obs engine_used
                translation.static_tree ))))
  in
  (* Phase 2: per-cutset quantification, walking a degradation ladder per
     cutset: exact product-chain quantification when resources allow it,
     otherwise the conservative static worst-case product (which
     upper-bounds p~(C)) with the typed reason recorded in the cutset's
     provenance. *)
  let worst_case_product cutset =
    Sdft_util.Int_set.fold
      (fun b acc -> acc *. translation.Sdft_translate.worst_case.(b))
      cutset 1.0
  in
  let count_dynamic cutset =
    Sdft_util.Int_set.fold
      (fun b acc -> if Sdft.is_dynamic sd b then acc + 1 else acc)
      cutset 0
  in
  let fallback_info ?model ~reason cutset =
    let n_dynamic, n_added_dynamic =
      match model with
      | Some m ->
        (m.Cutset_model.n_dynamic_in_cutset, m.Cutset_model.n_added_dynamic)
      | None -> (count_dynamic cutset, 0)
    in
    {
      cutset;
      probability = worst_case_product cutset;
      n_dynamic;
      n_added_dynamic;
      product_states = 0;
      product_transitions = 0;
      solver_steps = 0;
      (* Each worst-case factor was computed by a transient solve with
         error at most [transient_epsilon]; factors are at most 1, so the
         product's absolute error is bounded by the factor count times
         epsilon (first order). *)
      solver_error =
        float_of_int (Sdft_util.Int_set.cardinal cutset)
        *. options.transient_epsilon;
      from_cache = false;
      solve_seconds = 0.0;
      used_fallback = true;
      degraded = Some reason;
      engine = engine_used;
    }
  in
  (* ETA cost proxy for the progress schedule: the product chain grows
     multiplicatively with the dynamic width of the cutset, so weight each
     work item exponentially (capped) rather than uniformly. *)
  let cost_of cutset =
    float_of_int (1 lsl min (count_dynamic cutset) 20)
  in
  let quantify_model ~workspace model ~horizon =
    match cache with
    | Some c ->
      Quant_cache.quantify c ~epsilon:options.transient_epsilon
        ~max_states:options.max_product_states ~guard ~workspace
        ~engine_tag:(engine_name engine_used) ~obs model ~horizon
    | None ->
      Cutset_model.quantify ~epsilon:options.transient_epsilon
        ~max_states:options.max_product_states ~guard ~workspace ~obs model
        ~horizon
  in
  let quantify_one_inner (context, workspace) cutset =
    Trace.with_span ~sink "analysis.cutset" (fun () ->
    match Sdft_util.Guard.status guard with
    | Some r ->
      (* The global limit tripped between work items: skip the model build
         and the solve outright so the remaining cutsets drain fast. *)
      Trace.add_attr ~sink "fallback" (Trace.Bool true);
      fallback_info ~reason:r cutset
    | None ->
      (* Model construction answers to the same guard as the solve: its
         trigger-set BDD compilations can blow up on their own, and a limit
         tripping there is a resource degradation, not a worker crash. *)
      match
        Cutset_model.build ~context ~rel_rule:options.rel_rule ~guard ~obs sd
          cutset
      with
      | exception Sdft_util.Guard.Limit_hit r ->
        Trace.add_attr ~sink "fallback" (Trace.Bool true);
        fallback_info ~reason:r cutset
      | model ->
      (match quantify_model ~workspace model ~horizon:options.horizon with
      | q ->
        Trace.add_attr ~sink "probability"
          (Trace.Float q.Cutset_model.probability);
        Trace.add_attr ~sink "states" (Trace.Int q.Cutset_model.product_states);
        if q.Cutset_model.from_cache then
          Trace.add_attr ~sink "cached" (Trace.Bool true);
        {
          cutset;
          probability = q.Cutset_model.probability;
          n_dynamic = model.Cutset_model.n_dynamic_in_cutset;
          n_added_dynamic = model.Cutset_model.n_added_dynamic;
          product_states = q.Cutset_model.product_states;
          product_transitions = q.Cutset_model.product_transitions;
          solver_steps = q.Cutset_model.solver_steps;
          solver_error = q.Cutset_model.solver_error;
          from_cache = q.Cutset_model.from_cache;
          solve_seconds = q.Cutset_model.seconds;
          used_fallback = false;
          degraded = None;
          engine = engine_used;
        }
      | exception Sdft_product.Too_many_states _ ->
        Trace.add_attr ~sink "fallback" (Trace.Bool true);
        fallback_info ~model ~reason:Sdft_util.Guard.State_limit cutset
      | exception Sdft_util.Guard.Limit_hit r ->
        Trace.add_attr ~sink "fallback" (Trace.Bool true);
        fallback_info ~model ~reason:r cutset
      | exception Out_of_memory ->
        Trace.add_attr ~sink "fallback" (Trace.Bool true);
        fallback_info ~model ~reason:Sdft_util.Guard.Mem_limit cutset))
  in
  let quantify_one worker cutset =
    let info = quantify_one_inner worker cutset in
    if not info.used_fallback then
      Metrics.observe h.m_solve_s info.solve_seconds;
    (* Atomic progress state: safe to step from worker domains. *)
    Obs.step obs ~cost:(cost_of cutset) ();
    info
  in
  (* Last rung of the ladder: any exception neither the guard nor the state
     bound accounts for (a genuine bug, an injected crash) poisons only its
     own cutset — contained as a worst-case fallback marked [Worker_crash]
     instead of killing the whole analysis. *)
  let contain worker cutset =
    match quantify_one worker cutset with
    | info -> info
    | exception exn ->
      Trace.instant ~sink "analysis.worker_crash";
      ignore exn;
      fallback_info ~reason:Sdft_util.Guard.Worker_crash cutset
  in
  let quantify_sequential cutsets =
    let worker = (Cutset_model.context sd, Transient.workspace ()) in
    List.map (contain worker) cutsets
  in
  (* Parallel variant: the shared model is read-only once its lazy
     descendant caches are forced, so workers only need their own
     per-analysis context and solver workspace. [Parallel.map_init]
     distributes work by an atomic counter and re-raises the first worker
     exception after all domains have joined (a crashed worker must not
     surface as an [Option.get] failure on its unfilled result slots). *)
  let quantify_parallel n_domains cutsets =
    let tree = Sdft.tree sd in
    for g = 0 to Fault_tree.n_gates tree - 1 do
      ignore (Fault_tree.descendant_basics tree g);
      ignore (Sdft.dynamic_descendants sd g)
    done;
    let arr = Array.of_list cutsets in
    let n = Array.length arr in
    (* Cost-descending schedule: with an atomic-counter scheduler, a big
       cutset picked up last leaves one domain solving alone while the
       others idle. Hand out the expensive cutsets first — more dynamic
       events means a (multiplicatively) larger product chain, ties broken
       by static probability as a proxy for the remaining work. Results
       are restored to input order, so the Kahan total sums in exactly the
       sequential order and stays bit-identical. *)
    let n_dyn =
      Array.map
        (fun c ->
          Sdft_util.Int_set.fold
            (fun b acc -> if Sdft.is_dynamic sd b then acc + 1 else acc)
            c 0)
        arr
    in
    let static_p =
      Array.map
        (fun c -> Cutset.probability translation.Sdft_translate.static_tree c)
        arr
    in
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        let c = compare n_dyn.(j) n_dyn.(i) in
        if c <> 0 then c
        else
          let c = compare static_p.(j) static_p.(i) in
          if c <> 0 then c else compare i j)
      order;
    let scheduled = Array.map (fun i -> arr.(i)) order in
    (* The crash-containing map turns a worker exception into an [Error]
       slot; the slot's cutset then takes the worst-case fallback, so one
       poisoned cutset degrades instead of aborting the sweep. *)
    let results =
      Sdft_util.Parallel.map_init_result ~domains:n_domains
        (fun () -> (Cutset_model.context sd, Transient.workspace ()))
        quantify_one scheduled
    in
    let results =
      Array.mapi
        (fun pos r ->
          match r with
          | Ok info -> info
          | Error (_exn, _bt) ->
            fallback_info ~reason:Sdft_util.Guard.Worker_crash scheduled.(pos))
        results
    in
    let restored = Array.make n None in
    Array.iteri (fun pos r -> restored.(order.(pos)) <- Some r) results;
    List.init n (fun i -> Option.get restored.(i))
  in
  let all_cutsets = mocus_result.Mocus.cutsets in
  Obs.begin_phase obs "quantification" ~total:(List.length all_cutsets)
    ~cost_total:
      (List.fold_left (fun acc c -> acc +. cost_of c) 0.0 all_cutsets)
    ();
  let infos, quantification_seconds =
    Sdft_util.Timer.time (fun () ->
        Metrics.time h.m_quant_span (fun () ->
            Trace.with_span ~sink "analysis.quantification" (fun () ->
                if options.domains > 1 then
                  quantify_parallel options.domains all_cutsets
                else quantify_sequential all_cutsets)))
  in
  let relevant =
    List.filter (fun info -> info.probability > options.cutoff) infos
  in
  let total =
    Sdft_util.Kahan.sum_list (List.map (fun info -> info.probability) relevant)
  in
  let sorted =
    List.sort
      (fun a b ->
        let c = compare b.probability a.probability in
        if c <> 0 then c else Sdft_util.Int_set.compare a.cutset b.cutset)
      infos
  in
  let n_fallbacks =
    List.length (List.filter (fun info -> info.used_fallback) infos)
  in
  Metrics.add h.m_cutsets (List.length infos);
  Metrics.add h.m_fallbacks n_fallbacks;
  Metrics.add h.m_product_states
    (List.fold_left (fun acc info -> acc + info.product_states) 0 infos);
  (* Error budget. Upper bound: the rare-event sum over-approximates the
     union, so adding back every discarded mass — branches pruned during
     MOCUS, quantified cutsets dropped by the relevance filter — and the
     total numerical solver error yields a sound upper bound on the true
     top-event probability. Lower bound: the failure of any single cutset
     implies top failure, so the largest individually certified cutset
     probability (minus its own solver error) is a sound lower bound;
     fallback cutsets over-approximate and must not anchor it. *)
  let below_cutoff_mass =
    let acc = Sdft_util.Kahan.create () in
    List.iter
      (fun info ->
        if info.probability <= options.cutoff then
          Sdft_util.Kahan.add acc info.probability)
      infos;
    Sdft_util.Kahan.total acc
  in
  let solver_error_total =
    let acc = Sdft_util.Kahan.create () in
    List.iter (fun info -> Sdft_util.Kahan.add acc info.solver_error) infos;
    Sdft_util.Kahan.total acc
  in
  let lower =
    List.fold_left
      (fun acc info ->
        if info.used_fallback then acc
        else Float.max acc (info.probability -. info.solver_error))
      0.0 infos
  in
  (* Both engines account for everything the cutoff and order bounds drop
     ([pruned_mass]); only a truncated generation leaves mass unaccounted. *)
  let vacuous = mocus_result.Mocus.truncated in
  let upper =
    if vacuous then Float.max 1.0 total
    else
      total +. mocus_result.Mocus.pruned_mass +. below_cutoff_mass
      +. solver_error_total
  in
  let budget =
    {
      pruned_mass = mocus_result.Mocus.pruned_mass;
      below_cutoff_mass;
      solver_error_total;
      rare_event_slack = Float.max 0.0 (total -. lower);
      lower;
      upper;
      vacuous;
    }
  in
  let degradation =
    let count r =
      List.length (List.filter (fun info -> info.degraded = Some r) infos)
    in
    {
      generation_limit = mocus_result.Mocus.limit_hit;
      degraded_cutsets =
        List.filter_map
          (fun r ->
            let n = count r in
            if n > 0 then Some (r, n) else None)
          [
            Sdft_util.Guard.Deadline;
            Sdft_util.Guard.Mem_limit;
            Sdft_util.Guard.State_limit;
            Sdft_util.Guard.Worker_crash;
          ];
    }
  in
  Trace.add_attr ~sink "total" (Trace.Float total);
  Trace.add_attr ~sink "lower" (Trace.Float budget.lower);
  Trace.add_attr ~sink "upper" (Trace.Float budget.upper);
  {
    total;
    cutoff = options.cutoff;
    engine_used;
    cutsets = sorted;
    n_cutsets = List.length infos;
    n_dynamic_cutsets =
      List.length (List.filter (fun info -> info.n_dynamic > 0) infos);
    n_fallbacks;
    budget;
    degradation;
    mcs_generation_seconds;
    quantification_seconds;
    generation = mocus_result;
    translation;
  })

let static_rare_event ?(cutoff = 1e-15) ?(engine = default_options.engine)
    tree =
  let result = generate_cutsets ~cutoff engine tree in
  let relevant =
    List.filter
      (fun c -> Cutset.probability tree c > cutoff)
      result.Mocus.cutsets
  in
  (Cutset.rare_event_approximation tree relevant, List.length relevant)

let dynamic_histogram result =
  let h = Sdft_util.Histogram.create () in
  List.iter
    (fun info -> Sdft_util.Histogram.observe h info.n_dynamic)
    result.cutsets;
  h

let mean_added_dynamic result =
  let dynamic = List.filter (fun info -> info.n_dynamic > 0) result.cutsets in
  match dynamic with
  | [] -> 0.0
  | _ ->
    let added =
      List.fold_left (fun acc info -> acc + info.n_added_dynamic) 0 dynamic
    in
    float_of_int added /. float_of_int (List.length dynamic)

(* [total] sums only the cutsets above the cutoff, so the importance sums
   must apply the same filter — otherwise the numerator can include mass
   the denominator lacks and the fraction exceeds 1. *)
let relevant_cutsets result =
  List.filter (fun info -> info.probability > result.cutoff) result.cutsets

let fussell_vesely result a =
  if result.total <= 0.0 then 0.0
  else begin
    let acc = Sdft_util.Kahan.create () in
    List.iter
      (fun info ->
        if Sdft_util.Int_set.mem a info.cutset then
          Sdft_util.Kahan.add acc info.probability)
      (relevant_cutsets result);
    Sdft_util.Kahan.total acc /. result.total
  end

let rank_by_fussell_vesely result ~n_basics =
  let score = Array.make n_basics 0.0 in
  List.iter
    (fun info ->
      Sdft_util.Int_set.iter
        (fun a -> score.(a) <- score.(a) +. info.probability)
        info.cutset)
    (relevant_cutsets result);
  List.sort
    (fun a b ->
      let c = compare score.(b) score.(a) in
      if c <> 0 then c else compare a b)
    (List.init n_basics Fun.id)

type sweep_point = {
  sweep_options : options;
  sweep_result : result;
  cache_hits : int;
  cache_misses : int;
}

let sweep ?cache ?obs sd option_sets =
  let cache = match cache with Some c -> c | None -> Quant_cache.create () in
  let points =
    List.map
      (fun opts ->
        let h0 = Quant_cache.hits cache and m0 = Quant_cache.misses cache in
        let r = analyze ~options:opts ~cache ?obs sd in
        {
          sweep_options = opts;
          sweep_result = r;
          cache_hits = Quant_cache.hits cache - h0;
          cache_misses = Quant_cache.misses cache - m0;
        })
      option_sets
  in
  (points, cache)

let degradation_description r =
  let d = r.degradation in
  String.concat "; "
    ((match d.generation_limit with
     | Some reason ->
       [
         "cutset generation stopped early ("
         ^ Sdft_util.Guard.reason_to_string reason
         ^ ")";
       ]
     | None -> [])
    @ List.map
        (fun (reason, n) ->
          Printf.sprintf "%d cutset%s fell back to the worst-case bound (%s)"
            n
            (if n = 1 then "" else "s")
            (Sdft_util.Guard.reason_to_string reason))
        d.degraded_cutsets)

(* ------------------------------------------------------------------ *)
(* Checkpointed sweeps. *)

(* Canonical serialization of everything in [options] that can influence
   the result bits: numerical parameters, engine, rel-rule and the resource
   limits (which steer the degradation ladder). [domains] is deliberately
   excluded — the work partition never changes the result, only the wall
   time — so a resume may use a different [-j] than the interrupted run. *)
let options_fingerprint o =
  Printf.sprintf "h=%h;c=%h;e=%h;s=%d;o=%s;eng=%s;rr=%s;d=%s;m=%s"
    o.horizon o.cutoff o.transient_epsilon o.max_product_states
    (match o.max_cutset_order with None -> "-" | Some k -> string_of_int k)
    (engine_name o.engine)
    (match o.rel_rule with
    | Cutset_model.Paper -> "paper"
    | Cutset_model.All_events -> "all")
    (match o.deadline with None -> "-" | Some d -> Printf.sprintf "%h" d)
    (match o.mem_limit_mb with None -> "-" | Some m -> string_of_int m)

let point_key sd options =
  Digest.to_hex
    (Digest.string
       (Quant_cache.fingerprint sd ^ "\x00" ^ options_fingerprint options))

type sweep_item =
  | Sweep_run of sweep_point
  | Sweep_skipped of Checkpoint.point

let checkpoint_point key opts r =
  {
    Checkpoint.pt_key = key;
    pt_horizon = opts.horizon;
    pt_total = r.total;
    pt_lower = r.budget.lower;
    pt_upper = r.budget.upper;
    pt_vacuous = r.budget.vacuous;
    pt_n_cutsets = r.n_cutsets;
    pt_n_dynamic = r.n_dynamic_cutsets;
    pt_degraded =
      (if degraded r then Some (degradation_description r) else None);
  }

let sweep_checkpointed ?cache ?(obs = Obs.default) ~journal ~resume
    ?on_point sd option_sets =
  let cache = match cache with Some c -> c | None -> Quant_cache.create () in
  (* Warm-start from the journal's item records: points the crash caught
     mid-flight re-solve only their unfinished cutsets, and finished work
     replays bit-identically from the cache (cached and fresh values are
     indistinguishable by the cache's contract). *)
  if resume then ignore (Quant_cache.seed cache (Checkpoint.entries journal));
  (* Journal every fresh solve as it lands — the crash-safety feed. *)
  Quant_cache.set_on_store cache (fun key e ->
      Checkpoint.record_entry journal key e);
  let plan = List.map (fun o -> (o, point_key sd o)) option_sets in
  let skipped =
    if resume then
      List.length
        (List.filter (fun (_, k) -> Checkpoint.find_point journal k <> None)
           plan)
    else 0
  in
  let total_run = List.length plan - skipped in
  let n_done = ref 0 in
  let items =
    List.map
      (fun (opts, key) ->
        let item =
          match
            if resume then Checkpoint.find_point journal key else None
          with
          | Some p -> Sweep_skipped p
          | None ->
            (* Re-assert the sweep-level phase between points: the ETA
               prices only the [total_run] points that actually run, with
               the checkpoint-skipped count surfaced separately. *)
            Obs.begin_phase obs "sweep" ~total:total_run ~skipped
              ~n_done:!n_done ();
            let h0 = Quant_cache.hits cache
            and m0 = Quant_cache.misses cache in
            let r = analyze ~options:opts ~cache ~obs sd in
            incr n_done;
            Checkpoint.record_point journal (checkpoint_point key opts r);
            Sweep_run
              {
                sweep_options = opts;
                sweep_result = r;
                cache_hits = Quant_cache.hits cache - h0;
                cache_misses = Quant_cache.misses cache - m0;
              }
        in
        (match on_point with Some f -> f item | None -> ());
        item)
      plan
  in
  (items, cache)

let pp_summary ppf r =
  Format.fprintf ppf "@[<v>";
  if degraded r then
    Format.fprintf ppf "DEGRADED: %s@," (degradation_description r);
  Format.fprintf ppf
    "failure frequency (rare-event approx): %.3e@,\
     certified interval: [%.3e, %.3e]%s@,\
     minimal cutsets: %d (%d with dynamic events), engine: %s@,\
     MCS generation: %a, quantification: %a@]"
    r.total r.budget.lower r.budget.upper
    (if r.budget.vacuous then "  (vacuous: coverage not certified)" else "")
    r.n_cutsets r.n_dynamic_cutsets (engine_name r.engine_used)
    Sdft_util.Timer.pp_duration r.mcs_generation_seconds
    Sdft_util.Timer.pp_duration r.quantification_seconds

let pp_budget ppf r =
  let b = r.budget in
  Format.fprintf ppf
    "@[<v>error budget:@,\
     \  pruned mass (generation):     %.3e%s@,\
     \  below-cutoff cutset mass:     %.3e@,\
     \  solver error (uniformization): %.3e@,\
     \  rare-event slack (over-approx): %.3e@,\
     \  certified interval: [%.3e, %.3e]%s@]"
    b.pruned_mass
    (match r.engine_used with
    | Zdd_engine -> "  (exact)"
    | Mocus_sound -> "  (upper bound)")
    b.below_cutoff_mass b.solver_error_total b.rare_event_slack
    b.lower b.upper
    (if b.vacuous then "  VACUOUS (truncated generation)" else "")

type sim_check = {
  sim_lower : float;
  sim_upper : float;
  budget_lower : float;
  budget_upper : float;
  overlaps : bool;
  gap : float;
  vacuous_budget : bool;
}

let verify_sim result ~sim_ci:(sim_lower, sim_upper) =
  if sim_lower > sim_upper then
    invalid_arg "Sdft_analysis.verify_sim: empty simulation interval";
  let b = result.budget in
  let overlaps = sim_lower <= b.upper && b.lower <= sim_upper in
  let gap =
    if overlaps then 0.0
    else if sim_lower > b.upper then sim_lower -. b.upper
    else b.lower -. sim_upper
  in
  {
    sim_lower;
    sim_upper;
    budget_lower = b.lower;
    budget_upper = b.upper;
    overlaps;
    gap;
    vacuous_budget = b.vacuous;
  }

let pp_sim_check ppf c =
  Format.fprintf ppf
    "@[<v>simulation CI: [%.3e, %.3e]@,\
     analytic certified interval: [%.3e, %.3e]%s@,\
     verdict: %s@]"
    c.sim_lower c.sim_upper c.budget_lower c.budget_upper
    (if c.vacuous_budget then "  (vacuous)" else "")
    (if c.overlaps then "OVERLAP (simulation consistent with the analysis)"
     else Printf.sprintf "DISJOINT (gap %.3e) — the estimators disagree" c.gap)
