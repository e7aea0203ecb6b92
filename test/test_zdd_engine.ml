(* The ZDD cutset engine against its oracles: the exact minimal-solutions
   enumeration (Minsol), exact MOCUS (cutoff 0), and the analysis-level
   certified-interval accounting. *)

module Int_set = Sdft_util.Int_set

let seed_gen = QCheck.make QCheck.Gen.(0 -- 100000)

let random_tree seed =
  let rng = Sdft_util.Rng.create seed in
  Random_tree.tree rng ~n_basics:8 ~n_gates:7

let product tree s =
  Int_set.fold (fun b acc -> acc *. Fault_tree.prob tree b) s 1.0

let mass tree sets =
  Sdft_util.Kahan.sum_list (List.map (product tree) sets)

let close ?(eps = 1e-12) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* cutoff 0: the engine must reproduce the exact minimal-cutset family,
   and its weighted count must equal the enumerated mass. *)
let prop_engine_matches_minsol =
  QCheck.Test.make ~name:"zdd engine (cutoff 0) = exact minimal cutsets"
    ~count:200 seed_gen (fun seed ->
      let tree = random_tree seed in
      let exact = Minsol.fault_tree_cutsets tree in
      let r = Zdd_engine.run tree in
      r.Zdd_engine.cutsets = exact
      && r.Zdd_engine.n_minimal = List.length exact
      && (not r.Zdd_engine.n_minimal_saturated)
      && close r.Zdd_engine.total_mass (mass tree exact)
      && close r.Zdd_engine.residual_mass 0.0)

(* Nonzero cutoff: emitted = exact filtered by product, residual = the
   exact mass of what was filtered out (not an upper bound). *)
let prop_engine_cutoff_accounting =
  QCheck.Test.make ~name:"zdd engine cutoff: exact residual-mass accounting"
    ~count:200
    (QCheck.make
       QCheck.Gen.(pair (0 -- 100000) (oneofl [ 1e-6; 1e-4; 1e-3; 1e-2 ])))
    (fun (seed, cutoff) ->
      let tree = random_tree seed in
      let exact = Minsol.fault_tree_cutsets tree in
      let above, below =
        List.partition (fun s -> product tree s >= cutoff) exact
      in
      let r = Zdd_engine.run ~cutoff tree in
      r.Zdd_engine.cutsets = above
      && r.Zdd_engine.n_minimal = List.length exact
      && close r.Zdd_engine.emitted_mass (mass tree above)
      && close r.Zdd_engine.residual_mass (mass tree below))

let prop_engine_max_order =
  QCheck.Test.make ~name:"zdd engine max_order: in-walk pruning = post-filter"
    ~count:200
    (QCheck.make QCheck.Gen.(pair (0 -- 100000) (1 -- 4)))
    (fun (seed, k) ->
      let tree = random_tree seed in
      let exact = Minsol.fault_tree_cutsets tree in
      let within, beyond =
        List.partition (fun s -> Int_set.cardinal s <= k) exact
      in
      let r = Zdd_engine.run ~max_order:k tree in
      r.Zdd_engine.cutsets = within
      && close r.Zdd_engine.residual_mass (mass tree beyond))

(* Engine race at the library level: exact MOCUS (cutoff 0) and the ZDD
   engine must produce identical families and rare-event totals. *)
let prop_engine_matches_mocus_exact =
  QCheck.Test.make ~name:"zdd engine = exact MOCUS (family and total)"
    ~count:200 seed_gen (fun seed ->
      let tree = random_tree seed in
      let mocus =
        Mocus.run ~options:{ Mocus.default_options with cutoff = 0.0 } tree
      in
      let sorted = List.sort Int_set.compare mocus.Mocus.cutsets in
      let r = Zdd_engine.run tree in
      r.Zdd_engine.cutsets = sorted
      && close r.Zdd_engine.total_mass (mass tree sorted))

let static_sd seed =
  let rng = Sdft_util.Rng.create seed in
  Random_tree.sd rng ~max_prob:0.2 ~n_basics:6 ~n_gates:5 ~n_dynamic:0
    ~n_triggers:0

(* Full-analysis equivalence on static SD trees: same quantified total to
   1e-12, and the ZDD engine's certified interval is exact-width (zero
   pruned mass at cutoff 0) and never vacuous. *)
let prop_analyze_equivalence =
  QCheck.Test.make ~name:"analyze: zdd engine total = mocus total (static)"
    ~count:100 seed_gen (fun seed ->
      let sd = static_sd seed in
      let run engine =
        Sdft_analysis.analyze
          ~options:
            {
              Sdft_analysis.default_options with
              engine;
              cutoff = 1e-12;
            }
          sd
      in
      let m = run Sdft_analysis.Mocus_sound in
      let z = run Sdft_analysis.Zdd_engine in
      close m.Sdft_analysis.total z.Sdft_analysis.total
      && (not z.Sdft_analysis.budget.Sdft_analysis.vacuous)
      && z.Sdft_analysis.budget.Sdft_analysis.lower <= z.Sdft_analysis.total
      && z.Sdft_analysis.total
         <= z.Sdft_analysis.budget.Sdft_analysis.upper +. 1e-15
      (* MOCUS over-accounts what it prunes; the ZDD residual is exact, so
         the ZDD interval can only be at least as tight. *)
      && z.Sdft_analysis.budget.Sdft_analysis.upper
         <= m.Sdft_analysis.budget.Sdft_analysis.upper +. 1e-15)

(* The acceptance scenario: a model where MOCUS records nonzero pruned
   mass (partials below the cutoff that refine only into non-minimal
   cutsets) while the ZDD engine emits every minimal cutset and accounts
   zero residual. *)
let test_zero_pruned_mass_where_mocus_prunes () =
  let b = Fault_tree.Builder.create () in
  let basic name p = Fault_tree.Builder.basic b ~prob:p name in
  let x = basic "x" 1e-6 and y = basic "y" 1e-6 and z = basic "z" 1e-6 in
  let and2 = Fault_tree.Builder.gate b "and2" Fault_tree.And [ x; y ] in
  (* Subsumed branch: refines only into the non-minimal {x, y, z}, whose
     partial product 1e-18 falls below the cutoff and gets pruned. *)
  let and3 = Fault_tree.Builder.gate b "and3" Fault_tree.And [ x; y; z ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ and2; and3 ] in
  let tree = Fault_tree.Builder.build b ~top in
  let cutoff = 1e-15 in
  let mocus =
    Mocus.run ~options:{ Mocus.default_options with cutoff } tree
  in
  Alcotest.(check bool) "mocus prunes" true (mocus.Mocus.pruned_mass > 0.0);
  let r = Zdd_engine.run ~cutoff tree in
  Alcotest.(check int) "one minimal cutset" 1 (List.length r.Zdd_engine.cutsets);
  Alcotest.(check (float 0.0)) "zero residual" 0.0 r.Zdd_engine.residual_mass;
  Alcotest.(check bool) "same family" true
    (r.Zdd_engine.cutsets = List.sort Int_set.compare mocus.Mocus.cutsets);
  (* And at the analysis level: the synthesized generation result carries
     zero pruned mass and a non-vacuous interval. *)
  let gen =
    Sdft_analysis.generate_cutsets ~cutoff Sdft_analysis.Zdd_engine tree
  in
  Alcotest.(check (float 0.0)) "zero pruned mass" 0.0 gen.Mocus.pruned_mass;
  Alcotest.(check bool) "not truncated" false gen.Mocus.truncated

(* Regression: dangling gates (unreachable from the top event but sharing
   basic events with the reachable tree — the industrial generator emits
   these) used to disqualify the top gate from being a module, crashing the
   engine with [Not_found] when it looked up the top module's info. *)
let test_dangling_gate_regression () =
  let b = Fault_tree.Builder.create () in
  let basic name p = Fault_tree.Builder.basic b ~prob:p name in
  let s = basic "s" 0.01 and a = basic "a" 0.02 and c = basic "c" 0.03 in
  let _dangling = Fault_tree.Builder.gate b "dangling" Fault_tree.Or [ s; c ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ s; a ] in
  let tree = Fault_tree.Builder.build b ~top in
  Alcotest.(check bool) "top is still a module" true
    (Modules.is_module tree (Fault_tree.top tree));
  let r = Zdd_engine.run tree in
  Alcotest.(check int) "one minimal cutset" 1 (List.length r.Zdd_engine.cutsets);
  Alcotest.(check bool) "exact total" true
    (close r.Zdd_engine.total_mass (0.01 *. 0.02));
  (* Same story at industrial scale: the generator's scaffolding gates must
     not break the modular decomposition. *)
  let ind = Industrial.generate Industrial.small in
  let ri = Zdd_engine.run ~cutoff:1e-9 ind in
  Alcotest.(check bool) "industrial runs" true (ri.Zdd_engine.total_mass > 0.0)

(* Acceptance: a ZDD analysis under an already-expired deadline degrades
   (sound, vacuous interval; DEGRADED provenance) instead of overrunning. *)
let test_deadline_degrades () =
  let sd = static_sd 42 in
  let r =
    Sdft_analysis.analyze
      ~options:
        {
          Sdft_analysis.default_options with
          engine = Sdft_analysis.Zdd_engine;
          deadline = Some 0.0;
        }
      sd
  in
  Alcotest.(check bool) "degraded" true (Sdft_analysis.degraded r);
  Alcotest.(check bool) "generation limit recorded" true
    (r.Sdft_analysis.degradation.Sdft_analysis.generation_limit <> None);
  Alcotest.(check bool) "vacuous but sound" true
    r.Sdft_analysis.budget.Sdft_analysis.vacuous;
  let exact =
    Sdft_analysis.analyze
      ~options:
        { Sdft_analysis.default_options with engine = Sdft_analysis.Zdd_engine }
      sd
  in
  Alcotest.(check bool) "degraded interval brackets the exact total" true
    (r.Sdft_analysis.budget.Sdft_analysis.lower <= exact.Sdft_analysis.total
    && exact.Sdft_analysis.total
       <= r.Sdft_analysis.budget.Sdft_analysis.upper)

(* The differential behind ZDD being the one default engine: on translated
   SD trees with trigger logic (the "<basic>@trig" AND gates the
   translation synthesizes), both engines generate the same cutset family,
   so every cutset gets the same [p~(C)] and the totals agree; the ZDD
   interval is no wider than MOCUS's, and with the exact [All_events]
   relevant sets it contains the product-semantics value. The paper's
   reduced relevant sets are left out of the containment check: they can
   drop trigger paths, which the certified interval does not account for
   (a defect of the budget shared by both engines). *)
let prop_triggered_zdd_matches_mocus =
  QCheck.Test.make ~name:"triggered: zdd = mocus" ~count:100
    (QCheck.make
       QCheck.Gen.(pair (0 -- 100000) (oneofl [ 1e-15; 1e-6; 1e-4 ])))
    (fun (seed, cutoff) ->
      let sd =
        Gen_sdft.sd ~n_basics:7 ~n_gates:6 ~n_dynamic:3 ~n_triggers:2 seed
      in
      QCheck.assume (Sdft.trigger_edges sd <> []);
      let horizon = 8.0 in
      match Sdft_product.solve sd ~horizon with
      | exception Sdft_product.Too_many_states _ -> QCheck.assume_fail ()
      | exact ->
        let run engine =
          Sdft_analysis.analyze
            ~options:
              {
                Sdft_analysis.default_options with
                engine;
                cutoff;
                horizon;
                rel_rule = Cutset_model.All_events;
              }
            sd
        in
        let m = run Sdft_analysis.Mocus_sound in
        let z = run Sdft_analysis.Zdd_engine in
        let quantified r =
          List.map
            (fun (i : Sdft_analysis.cutset_info) -> (i.cutset, i.probability))
            r.Sdft_analysis.cutsets
        in
        let bz = z.Sdft_analysis.budget
        and bm = m.Sdft_analysis.budget in
        let check what ok =
          if not ok then
            QCheck.Test.fail_reportf
              "%s (mocus [%h, %h], zdd [%h, %h], exact %h)" what
              bm.Sdft_analysis.lower bm.Sdft_analysis.upper
              bz.Sdft_analysis.lower bz.Sdft_analysis.upper exact
        in
        check "same cutsets and p~" (quantified m = quantified z);
        check "same total"
          (close m.Sdft_analysis.total z.Sdft_analysis.total);
        check "zdd not vacuous" (not bz.Sdft_analysis.vacuous);
        (* Up to rounding (the ZDD residual is a difference of two sums).
           Not a theorem: a pruned MOCUS partial is charged its basics'
           product once, while the ZDD residual sums every dropped cutset
           refining it, which can be more when the pending gates are ORs of
           likely events. The generator's probabilities stay below 0.2, and
           on its models the ZDD interval is never the wider one. *)
        check "zdd upper <= mocus upper"
          (bz.Sdft_analysis.upper <= bm.Sdft_analysis.upper +. 1e-15);
        check "zdd interval contains exact"
          (bz.Sdft_analysis.lower <= exact +. 1e-12
          && exact <= bz.Sdft_analysis.upper +. 1e-12);
        true)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "zdd_engine"
    [
      ( "oracle equivalence",
        qc
          [
            prop_engine_matches_minsol;
            prop_engine_cutoff_accounting;
            prop_engine_max_order;
            prop_engine_matches_mocus_exact;
          ] );
      ( "analysis integration",
        [
          Alcotest.test_case "zero pruned mass where MOCUS prunes" `Quick
            test_zero_pruned_mass_where_mocus_prunes;
          Alcotest.test_case "dangling gates keep top modular" `Quick
            test_dangling_gate_regression;
          Alcotest.test_case "deadline degrades soundly" `Quick
            test_deadline_degrades;
        ]
        @ qc [ prop_analyze_equivalence; prop_triggered_zdd_matches_mocus ] );
    ]
