(* Seeded workload inputs. Everything here runs before any clock starts.

   Seed 0 is the generators' presets as shipped. Any other seed scales the
   probability of every static basic event by its own factor in [0.9, 1.1]
   after dynamization: the tree, its dynamic events and its triggers keep
   their structure, so cutset and product-chain counts stay within a
   fraction of a percent of seed 0 while every number the program computes
   changes. *)

(* The analysis parameters every workload pins, so later changes to the
   program's defaults cannot change the work measured. *)
let horizon = 24.0

let cutoff = 1e-15

let engine = Sdft_analysis.Zdd_engine

let options ?(horizon = horizon) () =
  {
    Sdft_analysis.default_options with
    horizon;
    cutoff;
    engine;
    domains = 1;
  }

let jitter ~seed sd =
  if seed = 0 then sd
  else
    let tree = Sdft.tree sd in
    let rng = Sdft_util.Rng.create seed in
    let probs =
      Array.init (Fault_tree.n_basics tree) (fun i ->
          let p = Fault_tree.prob tree i in
          let u = Sdft_util.Rng.float rng in
          if Sdft.is_dynamic sd i then p
          else Float.min 1.0 (p *. (0.9 +. (0.2 *. u))))
    in
    Sdft.of_indexed
      (Fault_tree.with_probs tree probs)
      ~dynamic:(List.map (fun i -> (i, Sdft.dbe sd i)) (Sdft.dynamic_basics sd))
      ~triggers:(Sdft.trigger_edges sd)

(* Scaled model 1 dynamized as the repository's cache benchmark does it:
   Erlang-4 chains, so product chains dominate the analysis. *)
let model1_dyn () =
  let tree = Industrial.generate Industrial.small in
  let config =
    {
      Dynamize.default_config with
      dynamic_fraction = 0.6;
      trigger_fraction = 0.06;
      phases = 4;
      repair_rate = Some 0.05;
      chain_groups = Some (Industrial.run_event_groups tree);
      calibration = Dynamize.Mission_probability;
    }
  in
  (Dynamize.run ~config tree).Dynamize.sd

(* Industrial-medium with the default dynamization: tens of thousands of
   cutsets over few distinct sub-models, so generation dominates. *)
let medium_dyn () =
  let tree = Industrial.generate Industrial.medium in
  let config =
    {
      Dynamize.default_config with
      chain_groups = Some (Industrial.run_event_groups tree);
    }
  in
  (Dynamize.run ~config tree).Dynamize.sd

(* The model text of a batch workload. *)
let batch ~workload ~seed =
  let sd =
    match workload with
    | "model1-dyn" -> model1_dyn ()
    | "medium-dyn" -> medium_dyn ()
    | w -> invalid_arg ("not a batch workload: " ^ w)
  in
  Sdft_format.to_string (jitter ~seed sd)

let digest text = Digest.to_hex (Digest.string text)

(* {1 The server mix}

   A closed-loop request stream over three kinds of analyze request:
   repeats of one BWR model (served from the shared cache after the first),
   the small pumps model, and BWR variants with their own repair rate and
   horizon (fresh solves and disk appends). *)

type kind = Repeat | Pumps | Variant

let kind_name = function
  | Repeat -> "repeat"
  | Pumps -> "pumps"
  | Variant -> "variant"

type request = {
  index : int;
  kind : kind;
  model_id : string;  (** identifies the model text, for reference memos *)
  model : string;
  req_horizon : float;
}

let bwr_text repair =
  Sdft_format.to_string
    (Bwr.build
       {
         Bwr.default_config with
         repair_rate = Some repair;
         triggers = Bwr.all_trigger_sites;
       })

let request_line ?(verbose = false) r =
  Sdft_server.Protocol.analyze_line
    ~id:(string_of_int r.index)
    ~horizon:r.req_horizon ~cutoff
    ~engine:(Sdft_analysis.engine_name engine)
    ~verbose ~model:r.model ()

(* [mix ~seed n] is the first [n] requests of the stream for [seed]. Model
   texts are shared between requests of one model. *)
let mix ~seed n =
  let rng = Sdft_util.Rng.create (0x5eed + seed) in
  let base = bwr_text 0.1 in
  let pumps = Sdft_format.to_string (Pumps.sd_tree ()) in
  let pump_horizons = [| 12.0; 24.0; 48.0; 72.0 |] in
  List.init n (fun index ->
      let u = Sdft_util.Rng.float rng in
      if u < 1.0 /. 3.0 then
        {
          index;
          kind = Repeat;
          model_id = "bwr";
          model = base;
          req_horizon = (if Sdft_util.Rng.bool rng then 24.0 else 72.0);
        }
      else if u < 2.0 /. 3.0 then
        {
          index;
          kind = Pumps;
          model_id = "pumps";
          model = pumps;
          req_horizon = Sdft_util.Rng.choose rng pump_horizons;
        }
      else
        (* Repair rate log-uniform over [0.02, 0.5]; horizon in [12, 96] h.
           Continuous draws, so every variant is new to the cache. *)
        let repair = 0.02 *. Float.pow 25.0 (Sdft_util.Rng.float rng) in
        let h = 12.0 +. (84.0 *. Sdft_util.Rng.float rng) in
        {
          index;
          kind = Variant;
          model_id = Printf.sprintf "bwr/%h" repair;
          model = bwr_text repair;
          req_horizon = h;
        })

let mix_digest reqs =
  digest
    (String.concat "\n"
       (List.map
          (fun r -> Printf.sprintf "%s|%s|%h" (kind_name r.kind) r.model_id r.req_horizon)
          reqs))
