(* The sequential path of [Sdft_analysis.analyze] (ZDD engine, cache on),
   rebuilt from public calls so that each layer can be timed on its own:
   parse, translate, classify, generate, FT_C build, fingerprint, and for
   every new cache key a product build and a transient solve. The total
   must equal [Sdft_analysis.analyze]'s bit for bit; [run] reports it next
   to the spans, and the caller compares. *)

type layers = {
  mutable parse_bytes : int;
  mutable trigger_gates : int;
  mutable cutsets : int;
  mutable modules : int;
  mutable peak_zdd_nodes : int;
  mutable keyed : int;  (** cutsets with a dynamic sub-model *)
  mutable states : int;
  mutable transitions : int;
  mutable steps : int;
}

let layers () =
  {
    parse_bytes = 0;
    trigger_gates = 0;
    cutsets = 0;
    modules = 0;
    peak_zdd_nodes = 0;
    keyed = 0;
    states = 0;
    transitions = 0;
    steps = 0;
  }

(* Solved entries by cache key, shared by every [run] of one traced pass:
   exactly what a [Quant_cache] shared across analyses would hold. *)
type memo = (string, Quant_cache.entry) Hashtbl.t

type outcome = {
  total : float;
  models : Cutset_model.t list;  (** per cutset, in generation order *)
}

let run spans (l : layers) (memo : memo) ~text ~horizon =
  let time name f = Spans.time spans name f in
  let o = Inputs.options ~horizon () in
  let epsilon = o.Sdft_analysis.transient_epsilon
  and max_states = o.Sdft_analysis.max_product_states in
  let engine_tag = Sdft_analysis.engine_name Inputs.engine in
  time "analysis" @@ fun () ->
  let sd = time "parse" (fun () -> Sdft_format.of_string text) in
  l.parse_bytes <- l.parse_bytes + String.length text;
  let translation =
    time "translate" (fun () -> Sdft_translate.translate ~epsilon sd ~horizon)
  in
  let report = time "classify" (fun () -> Sdft_classify.report sd) in
  l.trigger_gates <-
    l.trigger_gates + List.length report.Sdft_classify.per_trigger_gate;
  let z =
    time "generate" (fun () ->
        Zdd_engine.run ~cutoff:o.Sdft_analysis.cutoff
          translation.Sdft_translate.static_tree)
  in
  l.cutsets <- l.cutsets + List.length z.Zdd_engine.cutsets;
  l.modules <- l.modules + z.Zdd_engine.n_modules;
  l.peak_zdd_nodes <- max l.peak_zdd_nodes z.Zdd_engine.max_zdd_nodes;
  let context = Cutset_model.context sd in
  let workspace = Transient.workspace () in
  let worst_case cutset =
    Sdft_util.Int_set.fold
      (fun b acc -> acc *. translation.Sdft_translate.worst_case.(b))
      cutset 1.0
  in
  let quantify cutset =
    let model =
      time "ftc_build" (fun () ->
          Cutset_model.build ~context ~rel_rule:o.Sdft_analysis.rel_rule sd
            cutset)
    in
    let key =
      time "fingerprint" (fun () ->
          Quant_cache.key_of ~engine_tag ~epsilon ~max_states ~horizon model)
    in
    let p =
      match (key, model.Cutset_model.model) with
      | Some key, Some sd_c -> (
        l.keyed <- l.keyed + 1;
        let mult = model.Cutset_model.static_multiplier in
        match Hashtbl.find_opt memo key with
        | Some e -> e.Quant_cache.e_prob *. mult
        | None -> (
          match
            time "product_build" (fun () ->
                Sdft_product.build ~max_states sd_c)
          with
          | exception Sdft_product.Too_many_states _ -> worst_case cutset
          | built ->
            let p_dyn =
              time "transient" (fun () ->
                  Sdft_product.unreliability ~epsilon ~workspace built ~horizon)
            in
            let e =
              {
                Quant_cache.e_prob = p_dyn;
                e_states = built.Sdft_product.n_states;
                e_transitions = Ctmc.n_transitions built.Sdft_product.chain;
                e_steps = Transient.last_steps workspace;
              }
            in
            l.states <- l.states + e.Quant_cache.e_states;
            l.transitions <- l.transitions + e.Quant_cache.e_transitions;
            l.steps <- l.steps + e.Quant_cache.e_steps;
            Hashtbl.replace memo key e;
            p_dyn *. mult))
      | _ ->
        (Cutset_model.quantify ~epsilon ~max_states model ~horizon)
          .Cutset_model.probability
    in
    (model, p)
  in
  let quantified = List.map quantify z.Zdd_engine.cutsets in
  let total =
    Sdft_util.Kahan.sum_list
      (List.filter_map
         (fun (_, p) -> if p > o.Sdft_analysis.cutoff then Some p else None)
         quantified)
  in
  { total; models = List.map fst quantified }

(* Reference: the program's own analysis on the same text, with a cache as
   every workload runs it. Its totals do not depend on [domains]. A private
   observability context lets references run in several domains at once. *)
let reference ?(cache = Quant_cache.create ()) ?(domains = 1) ~text ~horizon
    () =
  Sdft_analysis.analyze
    ~options:{ (Inputs.options ~horizon ()) with Sdft_analysis.domains }
    ~cache ~obs:(Sdft_util.Obs.create ())
    (Sdft_format.of_string text)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
