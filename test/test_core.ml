(* Tests for the core SD fault tree library: dynamic basic events, model
   validation, trigger-gate classification, the static translation, product
   semantics, per-cutset models and the full analysis pipeline.

   The deepest checks compare the paper's decomposed analysis against the
   exact full-product semantics and against closed-form solutions of
   hand-built models. *)

module Int_set = Sdft_util.Int_set

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Dbe *)

let test_dbe_init_must_sum_to_one () =
  Alcotest.check_raises "bad init"
    (Invalid_argument "Dbe.make: initial distribution must sum to 1") (fun () ->
      ignore (Dbe.make ~n_states:2 ~init:[ (0, 0.5) ] ~transitions:[] ~failed:[ 1 ] ()))

let test_dbe_needs_failed_state () =
  Alcotest.check_raises "no failed"
    (Invalid_argument "Dbe.make: a dynamic event needs at least one failed state")
    (fun () ->
      ignore (Dbe.make ~n_states:2 ~init:[ (0, 1.0) ] ~transitions:[] ~failed:[] ()))

let test_dbe_failed_must_be_on () =
  (* 2 states: 0 off, 1 on; partner swaps; failed = 0 (off) is illegal. *)
  Alcotest.check_raises "failed off"
    (Invalid_argument "Dbe.make: failed states must be switched on") (fun () ->
      ignore
        (Dbe.make ~n_states:2 ~init:[ (0, 1.0) ] ~transitions:[] ~failed:[ 0 ]
           ~switch:([| Dbe.Off; Dbe.On |], [| 1; 0 |])
           ()))

let test_dbe_triggered_starts_off () =
  Alcotest.check_raises "init on"
    (Invalid_argument "Dbe.make: triggered events must start switched off")
    (fun () ->
      ignore
        (Dbe.make ~n_states:2 ~init:[ (1, 1.0) ] ~transitions:[] ~failed:[ 1 ]
           ~switch:([| Dbe.Off; Dbe.On |], [| 1; 0 |])
           ()))

let test_dbe_partner_opposite_mode () =
  Alcotest.check_raises "partner same mode"
    (Invalid_argument "Dbe.make: switch partner must be in the opposite mode")
    (fun () ->
      ignore
        (Dbe.make ~n_states:2 ~init:[ (0, 1.0) ] ~transitions:[] ~failed:[ 1 ]
           ~switch:([| Dbe.Off; Dbe.On |], [| 0; 1 |])
           ()))

let test_dbe_exponential_worst_case () =
  (* With the failed state absorbing, repairs are irrelevant for the first
     failure: P = 1 - exp(-lambda t). *)
  let lambda = 0.05 and t = 24.0 in
  List.iter
    (fun mu ->
      let d = Dbe.exponential ~lambda ?mu () in
      check_close ~eps:1e-10 "worst case"
        (1.0 -. exp (-.lambda *. t))
        (Dbe.worst_case_failure_probability d ~horizon:t))
    [ None; Some 0.5 ]

let test_dbe_erlang_worst_case () =
  (* Erlang-2 with per-phase rate 2*lambda: CDF 1 - e^{-2lt}(1 + 2lt). *)
  let lambda = 0.02 and t = 10.0 in
  let d = Dbe.erlang ~phases:2 ~lambda () in
  let r = 2.0 *. lambda in
  check_close ~eps:1e-10 "erlang-2 cdf"
    (1.0 -. (exp (-.r *. t) *. (1.0 +. (r *. t))))
    (Dbe.worst_case_failure_probability d ~horizon:t)

let test_dbe_triggered_equals_untriggered_worst_case () =
  (* The worst case of a triggered event is "on from time zero", which for
     the constructors matches the untriggered chain. *)
  let lambda = 0.03 in
  let plain = Dbe.erlang ~phases:3 ~lambda ~mu:0.2 () in
  let triggered =
    Dbe.triggered_erlang ~phases:3 ~lambda ~mu:0.2 ~passive_factor:0.01 ()
  in
  check_close ~eps:1e-10 "same worst case"
    (Dbe.worst_case_failure_probability plain ~horizon:24.0)
    (Dbe.worst_case_failure_probability triggered ~horizon:24.0)

let test_dbe_triggered_structure () =
  let d = Dbe.triggered_erlang ~phases:2 ~lambda:0.1 ~mu:0.5 () in
  Alcotest.(check int) "states" 6 (Dbe.n_states d);
  Alcotest.(check bool) "is triggered" true (Dbe.is_triggered_model d);
  (* off-phases 0..2, on-phases 3..5 *)
  Alcotest.(check bool) "0 is off" true (Dbe.mode_of d 0 = Dbe.Off);
  Alcotest.(check bool) "3 is on" true (Dbe.mode_of d 3 = Dbe.On);
  Alcotest.(check int) "on(0)" 3 (Dbe.switch_on d 0);
  Alcotest.(check int) "off(5)" 2 (Dbe.switch_off d 5);
  Alcotest.(check bool) "failed on-phase" true (Dbe.is_failed d 5);
  Alcotest.(check bool) "broken off-phase not failed" false (Dbe.is_failed d 2);
  Alcotest.(check (list (pair int (float 0.0)))) "initial on" [ (3, 1.0) ]
    (Dbe.initial_on d)

let test_dbe_repair_only_when_on () =
  let d = Dbe.triggered_erlang ~phases:1 ~lambda:0.1 ~mu:0.5 () in
  let chain = Dbe.chain d in
  (* on-failed is state 3, on-ok is 2, off-failed is 1, off-ok is 0. *)
  check_close "repair from on-failed" 0.5 (Ctmc.rate chain 3 2);
  check_close "no repair off" 0.0 (Ctmc.rate chain 1 0)

let test_dbe_repair_when_off () =
  let d =
    Dbe.triggered_erlang ~phases:1 ~lambda:0.1 ~mu:0.5 ~repair_when_off:true ()
  in
  let chain = Dbe.chain d in
  check_close "repair when off too" 0.5 (Ctmc.rate chain 1 0)

(* ------------------------------------------------------------------ *)
(* Sdft validation *)

let simple_dyn () = Dbe.exponential ~lambda:0.1 ()

let triggered_dyn () =
  Dbe.triggered_exponential ~lambda:0.1 ~passive_factor:0.0 ()

let test_sdft_unknown_names () =
  let tree = Pumps.static_tree () in
  Alcotest.check_raises "unknown basic"
    (Invalid_argument "Sdft.make: unknown basic event \"zz\"") (fun () ->
      ignore (Sdft.make tree ~dynamic:[ ("zz", simple_dyn ()) ] ~triggers:[]));
  Alcotest.check_raises "unknown gate"
    (Invalid_argument "Sdft.make: unknown gate \"gg\"") (fun () ->
      ignore
        (Sdft.make tree
           ~dynamic:[ ("b", triggered_dyn ()) ]
           ~triggers:[ ("gg", "b") ]))

let test_sdft_trigger_requires_switch () =
  let tree = Pumps.static_tree () in
  Alcotest.check_raises "no switch"
    (Invalid_argument
       "Sdft.of_indexed: d is triggered but has no on/off structure") (fun () ->
      ignore
        (Sdft.make tree
           ~dynamic:[ ("d", simple_dyn ()) ]
           ~triggers:[ ("pump1", "d") ]))

let test_sdft_double_trigger_rejected () =
  let tree = Pumps.static_tree () in
  Alcotest.check_raises "two triggers"
    (Invalid_argument "Sdft.of_indexed: d triggered by two gates") (fun () ->
      ignore
        (Sdft.make tree
           ~dynamic:[ ("d", triggered_dyn ()) ]
           ~triggers:[ ("pump1", "d"); ("pumps", "d") ]))

let test_sdft_cyclic_trigger_rejected () =
  (* d is under pump2; pump2 triggering d closes a cycle. *)
  let tree = Pumps.static_tree () in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Sdft.make: cyclic trigger structure") (fun () ->
      ignore
        (Sdft.make tree
           ~dynamic:[ ("d", triggered_dyn ()) ]
           ~triggers:[ ("pump2", "d") ]))

let test_sdft_accessors () =
  let sd = Pumps.sd_tree () in
  let tree = Sdft.tree sd in
  let b = Option.get (Fault_tree.basic_index tree "b") in
  let d = Option.get (Fault_tree.basic_index tree "d") in
  let pump1 = Option.get (Fault_tree.gate_index tree "pump1") in
  Alcotest.(check bool) "b dynamic" true (Sdft.is_dynamic sd b);
  Alcotest.(check bool) "a static" false (Sdft.is_dynamic sd 0);
  Alcotest.(check (list int)) "dynamic list" [ b; d ] (Sdft.dynamic_basics sd);
  Alcotest.(check (option int)) "trigger of d" (Some pump1) (Sdft.trigger_of sd d);
  Alcotest.(check (option int)) "trigger of b" None (Sdft.trigger_of sd b);
  Alcotest.(check (list int)) "triggered by pump1" [ d ] (Sdft.triggered_by sd pump1);
  Alcotest.(check (list (pair int int))) "edges" [ (pump1, d) ] (Sdft.trigger_edges sd)

(* ------------------------------------------------------------------ *)
(* Classification (Section V-A shapes of Figure 1) *)

(* Helper: tree with a trigger gate of a chosen shape. The triggered event
   [tgt] sits beside the shape under the top AND. *)
let classified_shape build_shape =
  let b = Fault_tree.Builder.create () in
  let tgt = Fault_tree.Builder.basic b "tgt" in
  let shape, dynamic = build_shape b in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ shape; tgt ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:(("tgt", triggered_dyn ()) :: dynamic)
      ~triggers:
        [ ((match shape with
           | Fault_tree.G g -> Fault_tree.gate_name tree g
           | Fault_tree.B _ -> assert false),
           "tgt") ]
  in
  let g =
    match shape with Fault_tree.G g -> g | Fault_tree.B _ -> assert false
  in
  (sd, g)

let test_classify_static_branching () =
  (* OR(dyn, static): one dynamic child per OR gate. *)
  let sd, g =
    classified_shape (fun b ->
        let x = Fault_tree.Builder.basic b "x" in
        let s = Fault_tree.Builder.basic b ~prob:0.1 "s" in
        let gate = Fault_tree.Builder.gate b "g" Fault_tree.Or [ x; s ] in
        (gate, [ ("x", simple_dyn ()) ]))
  in
  Alcotest.(check bool) "SB" true
    (Sdft_classify.classify sd g = Sdft_classify.Static_branching)

let test_classify_static_joins () =
  (* OR(dyn1, dyn2): two dynamic children under an OR, no AND with dynamic
     children — the simplest static-joins shape. *)
  let sd, g =
    classified_shape (fun b ->
        let x = Fault_tree.Builder.basic b "x" in
        let y = Fault_tree.Builder.basic b "y" in
        let gate = Fault_tree.Builder.gate b "g" Fault_tree.Or [ x; y ] in
        (gate, [ ("x", simple_dyn ()); ("y", simple_dyn ()) ]))
  in
  match Sdft_classify.classify sd g with
  | Sdft_classify.Static_joins _ -> ()
  | other ->
    Alcotest.failf "expected static joins, got %s"
      (Format.asprintf "%a" Sdft_classify.pp_class other)

let test_classify_and_only_is_static_branching () =
  (* AND(dyn1, dyn2): no OR gate in the subtree, so the static-branching
     condition holds vacuously (the paper's condition constrains OR gates
     only — Figure 1 left, case 3). *)
  let sd, g =
    classified_shape (fun b ->
        let x = Fault_tree.Builder.basic b "x" in
        let y = Fault_tree.Builder.basic b "y" in
        let gate = Fault_tree.Builder.gate b "g" Fault_tree.And [ x; y ] in
        (gate, [ ("x", simple_dyn ()); ("y", simple_dyn ()) ]))
  in
  Alcotest.(check bool) "vacuous SB" true
    (Sdft_classify.classify sd g = Sdft_classify.Static_branching)

let test_classify_general () =
  (* AND(OR(dyn1, dyn2), dyn3): the OR violates static branching and the
     AND (with dynamic children) violates static joins. *)
  let sd, g =
    classified_shape (fun b ->
        let x = Fault_tree.Builder.basic b "x" in
        let y = Fault_tree.Builder.basic b "y" in
        let z = Fault_tree.Builder.basic b "z" in
        let o = Fault_tree.Builder.gate b "o" Fault_tree.Or [ x; y ] in
        let gate = Fault_tree.Builder.gate b "g" Fault_tree.And [ o; z ] in
        ( gate,
          [ ("x", simple_dyn ()); ("y", simple_dyn ()); ("z", simple_dyn ()) ]
        ))
  in
  Alcotest.(check bool) "general" true
    (Sdft_classify.classify sd g = Sdft_classify.General)

let test_classify_pumps_running_example () =
  let sd = Pumps.sd_tree () in
  let tree = Sdft.tree sd in
  let pump1 = Option.get (Fault_tree.gate_index tree "pump1") in
  Alcotest.(check bool) "pump1 SB" true
    (Sdft_classify.classify sd pump1 = Sdft_classify.Static_branching);
  let r = Sdft_classify.report sd in
  Alcotest.(check int) "one trigger gate" 1 (List.length r.Sdft_classify.per_trigger_gate);
  Alcotest.(check int) "SB count" 1 r.Sdft_classify.n_static_branching

let test_classify_uniform_triggering () =
  (* Two triggered events under one OR, both triggered by the same external
     gate: static joins with uniform triggering. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let s = Fault_tree.Builder.basic b ~prob:0.2 "s" in
  let src = Fault_tree.Builder.gate b "src" Fault_tree.Or [ s ] in
  let g = Fault_tree.Builder.gate b "g" Fault_tree.Or [ x; y ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ src; g ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:[ ("x", triggered_dyn ()); ("y", triggered_dyn ()) ]
      ~triggers:[ ("src", "x"); ("src", "y") ]
  in
  let g_id = Option.get (Fault_tree.gate_index tree "g") in
  Alcotest.(check bool) "SJ uniform" true
    (Sdft_classify.classify sd g_id
    = Sdft_classify.Static_joins { uniform = true });
  Alcotest.(check bool) "uniform check" true (Sdft_classify.has_uniform_triggering sd g_id)

(* ------------------------------------------------------------------ *)
(* Translation (Section V-B) *)

let test_translate_pumps_preserves_mcs () =
  let sd = Pumps.sd_tree () in
  let tree = Sdft.tree sd in
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  let mcs_sd =
    Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 }
      translation.Sdft_translate.static_tree
  in
  let expected =
    Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 }
      tree
  in
  (* Basic-event indices are preserved by the translation. *)
  Alcotest.(check int) "same count" (List.length expected) (List.length mcs_sd);
  Alcotest.(check bool) "same sets" true
    (List.sort Int_set.compare mcs_sd = List.sort Int_set.compare expected)

let test_translate_worst_case_values () =
  let sd = Pumps.sd_tree () in
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  let tree = Sdft.tree sd in
  let b = Option.get (Fault_tree.basic_index tree "b") in
  let a = Option.get (Fault_tree.basic_index tree "a") in
  check_close ~eps:1e-10 "dynamic got worst case"
    (1.0 -. exp (-.Pumps.failure_rate *. 24.0))
    translation.Sdft_translate.worst_case.(b);
  check_close ~eps:1e-15 "static kept" 3e-3 translation.Sdft_translate.worst_case.(a)

let test_translate_adds_trigger_and () =
  let sd = Pumps.sd_tree () in
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  let t = translation.Sdft_translate.static_tree in
  Alcotest.(check bool) "wrapper gate exists" true
    (Fault_tree.gate_index t "d@trig" <> None);
  (* One extra gate compared to the original. *)
  Alcotest.(check int) "gate count" 5 (Fault_tree.n_gates t)

let test_translate_triggered_event_mcs_includes_trigger () =
  (* top = OR(d); d triggered by gate over a static z: the MCS must include
     z because d alone cannot fail. *)
  let b = Fault_tree.Builder.create () in
  let z = Fault_tree.Builder.basic b ~prob:0.3 "z" in
  let d = Fault_tree.Builder.basic b "d" in
  let src = Fault_tree.Builder.gate b "src" Fault_tree.Or [ z ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ d; src ] in
  ignore src;
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree ~dynamic:[ ("d", triggered_dyn ()) ] ~triggers:[ ("src", "d") ]
  in
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  let mcs =
    Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 }
      translation.Sdft_translate.static_tree
  in
  (* MCS: {z} alone (src fails top through OR). {d} is NOT an MCS; {d,z} is
     subsumed by {z}. *)
  Alcotest.(check (list (Alcotest.testable Int_set.pp Int_set.equal)))
    "only {z}"
    [ Int_set.singleton 0 ]
    mcs

(* ------------------------------------------------------------------ *)
(* Product semantics (Section III-C) *)

let test_product_static_tree_matches_exact () =
  let tree = Pumps.static_tree () in
  let sd = Sdft.static_only tree in
  let p = Sdft_product.solve sd ~horizon:5.0 in
  check_close ~eps:1e-12 "static product = enumeration"
    (Fault_tree.exact_top_probability_enumerate tree)
    p

let test_product_trigger_sequence_is_erlang () =
  (* top = AND(x, y), y triggered by a wrapper around x, both Exp(lambda)
     with no repairs and no passive failures: the top fails exactly when
     x fails and then y fails — an Erlang-2 time. *)
  let lambda = 0.2 in
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let wrap = Fault_tree.Builder.gate b "wrap" Fault_tree.Or [ x ] in
  ignore wrap;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x; y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [
          ("x", Dbe.exponential ~lambda ());
          ("y", Dbe.triggered_exponential ~lambda ~passive_factor:0.0 ());
        ]
      ~triggers:[ ("wrap", "y") ]
  in
  List.iter
    (fun t ->
      let p = Sdft_product.solve sd ~horizon:t in
      let lt = lambda *. t in
      check_close ~eps:1e-9 "erlang-2" (1.0 -. (exp (-.lt) *. (1.0 +. lt))) p)
    [ 1.0; 5.0; 20.0 ]

let test_product_untriggered_spare_never_fails () =
  (* A triggered event whose trigger never fires (source probability 0)
     cannot fail. *)
  let b = Fault_tree.Builder.create () in
  let z = Fault_tree.Builder.basic b ~prob:0.0 "z" in
  let y = Fault_tree.Builder.basic b "y" in
  let src = Fault_tree.Builder.gate b "src" Fault_tree.Or [ z ] in
  ignore src;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:[ ("y", Dbe.triggered_exponential ~lambda:5.0 ~passive_factor:0.0 ()) ]
      ~triggers:[ ("src", "y") ]
  in
  check_close ~eps:1e-12 "never" 0.0 (Sdft_product.solve sd ~horizon:100.0)

let test_product_passive_failures_do_count () =
  (* With passive failures enabled, the off-copy degrades too, but the
     event only *counts* as failed once triggered; with a never-failing
     trigger the top never fails. *)
  let b = Fault_tree.Builder.create () in
  let z = Fault_tree.Builder.basic b ~prob:0.0 "z" in
  let y = Fault_tree.Builder.basic b "y" in
  let src = Fault_tree.Builder.gate b "src" Fault_tree.Or [ z ] in
  ignore src;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:[ ("y", Dbe.triggered_exponential ~lambda:5.0 ~passive_factor:1.0 ()) ]
      ~triggers:[ ("src", "y") ]
  in
  check_close ~eps:1e-12 "broken but off is not failed" 0.0
    (Sdft_product.solve sd ~horizon:100.0)

let test_product_max_states_guard () =
  let sd = Pumps.sd_tree () in
  Alcotest.(check bool) "raises" true
    (match Sdft_product.build ~max_states:2 sd with
    | exception Sdft_product.Too_many_states _ -> true
    | _ -> false)

let test_product_pumps_value () =
  (* Golden value cross-checked against the Monte-Carlo simulator and the
     rare-event approximation. *)
  let sd = Pumps.sd_tree () in
  let p = Sdft_product.solve sd ~horizon:24.0 in
  check_close ~eps:1e-8 "pumps 24h" 3.505477e-4 p

(* ------------------------------------------------------------------ *)
(* Cutset models (Section V-C) *)

let pumps_sd = Pumps.sd_tree ()

let pumps_tree = Sdft.tree pumps_sd

let pidx name = Option.get (Fault_tree.basic_index pumps_tree name)

let pset names = Int_set.of_list (List.map pidx names)

let test_cutset_model_static_only () =
  let m = Cutset_model.build pumps_sd (pset [ "a"; "c" ]) in
  Alcotest.(check bool) "no model" true (m.Cutset_model.model = None);
  check_close ~eps:1e-15 "multiplier" 9e-6 m.Cutset_model.static_multiplier;
  let q = Cutset_model.quantify m ~horizon:24.0 in
  check_close ~eps:1e-15 "prob" 9e-6 q.Cutset_model.probability;
  Alcotest.(check int) "no chain" 0 q.Cutset_model.product_states

let test_cutset_model_dynamic_pair () =
  let m = Cutset_model.build pumps_sd (pset [ "b"; "d" ]) in
  Alcotest.(check int) "2 dynamic" 2 m.Cutset_model.n_dynamic_in_cutset;
  Alcotest.(check int) "0 added" 0 m.Cutset_model.n_added_dynamic;
  check_close ~eps:1e-15 "multiplier 1" 1.0 m.Cutset_model.static_multiplier;
  let q = Cutset_model.quantify m ~horizon:24.0 in
  Alcotest.(check bool) "chain built" true (q.Cutset_model.product_states > 0);
  Alcotest.(check bool) "nontrivial prob" true
    (q.Cutset_model.probability > 0.0 && q.Cutset_model.probability < 1.0)

let test_cutset_model_impossible () =
  (* {d} alone: d is triggered by pump1 but nothing of pump1 is in the
     cutset, so under static branching the trigger can never fire. *)
  let m = Cutset_model.build pumps_sd (pset [ "d" ]) in
  Alcotest.(check bool) "impossible" true m.Cutset_model.impossible;
  let q = Cutset_model.quantify m ~horizon:24.0 in
  check_close ~eps:0.0 "zero" 0.0 q.Cutset_model.probability

let test_cutset_model_always_triggered () =
  (* {a, d}: a (static, in C) fails pump1, so d is triggered from time 0;
     p~ = p(a) * P(d fails within t | on from 0). *)
  let m = Cutset_model.build pumps_sd (pset [ "a"; "d" ]) in
  Alcotest.(check bool) "has model" true (m.Cutset_model.model <> None);
  let q = Cutset_model.quantify m ~horizon:24.0 in
  let d_worst =
    Dbe.worst_case_failure_probability
      (Sdft.dbe pumps_sd (pidx "d"))
      ~horizon:24.0
  in
  check_close ~eps:1e-9 "p(a) * worst(d)" (3e-3 *. d_worst) q.Cutset_model.probability

let test_cutset_model_rea_matches_exact_pumps () =
  (* Sum of p~ over the five MCS vs the exact product semantics: the REA
     over-approximates but stays within a percent on this model. *)
  let r = Sdft_analysis.analyze pumps_sd in
  let exact = Sdft_product.solve pumps_sd ~horizon:24.0 in
  Alcotest.(check bool) "REA >= exact" true
    (r.Sdft_analysis.total >= exact -. 1e-12);
  Alcotest.(check bool) "REA within 1%" true
    (r.Sdft_analysis.total -. exact < 0.01 *. exact)

(* Static joins: the added event f must appear in FT_C, and the single-MCS
   rare-event approximation must equal the exact value. *)
let static_joins_model () =
  let b = Fault_tree.Builder.create () in
  let y = Fault_tree.Builder.basic b "y" in
  let f = Fault_tree.Builder.basic b "f" in
  let j = Fault_tree.Builder.basic b "j" in
  let g = Fault_tree.Builder.gate b "g" Fault_tree.Or [ y; f ] in
  ignore g;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ y; j ] in
  let tree = Fault_tree.Builder.build b ~top in
  Sdft.make tree
    ~dynamic:
      [
        ("y", Dbe.exponential ~lambda:0.08 ~mu:0.3 ());
        ("f", Dbe.exponential ~lambda:0.05 ~mu:0.4 ());
        ("j", Dbe.triggered_exponential ~lambda:0.1 ~mu:0.2 ~passive_factor:0.0 ());
      ]
    ~triggers:[ ("g", "j") ]

let test_cutset_model_static_joins_adds_events () =
  let sd = static_joins_model () in
  let tree = Sdft.tree sd in
  let y = Option.get (Fault_tree.basic_index tree "y") in
  let j = Option.get (Fault_tree.basic_index tree "j") in
  let g = Option.get (Fault_tree.gate_index tree "g") in
  (match Sdft_classify.classify sd g with
  | Sdft_classify.Static_joins _ -> ()
  | c -> Alcotest.failf "expected SJ, got %a" Sdft_classify.pp_class c);
  let m = Cutset_model.build sd (Int_set.of_list [ y; j ]) in
  Alcotest.(check int) "f added" 1 m.Cutset_model.n_added_dynamic;
  (* Exactness: {y, j} is the only MCS, and Failed({y,j}) is exactly the
     top-failure set, so p~ must equal the full product probability. *)
  let q = Cutset_model.quantify m ~horizon:24.0 in
  let exact = Sdft_product.solve sd ~horizon:24.0 in
  check_close ~eps:1e-9 "p~ = exact" exact q.Cutset_model.probability

(* The same comparison on a general-case trigger: the trigger gate is an
   AND over an OR of two dynamic events and a static guard that is not in
   the cutset, forcing the general Rel rule to pull the guard in. *)
let test_cutset_model_general_trigger_exact () =
  let b = Fault_tree.Builder.create () in
  let x1 = Fault_tree.Builder.basic b "x1" in
  let x2 = Fault_tree.Builder.basic b "x2" in
  let s = Fault_tree.Builder.basic b ~prob:0.6 "s" in
  let j = Fault_tree.Builder.basic b "j" in
  let o = Fault_tree.Builder.gate b "o" Fault_tree.Or [ x1; x2 ] in
  let g = Fault_tree.Builder.gate b "g" Fault_tree.And [ o; s ] in
  ignore g;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x1; j ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [
          ("x1", Dbe.exponential ~lambda:0.07 ~mu:0.25 ());
          ("x2", Dbe.exponential ~lambda:0.09 ~mu:0.35 ());
          ("j", Dbe.triggered_exponential ~lambda:0.2 ~mu:0.1 ~passive_factor:0.0 ());
        ]
      ~triggers:[ ("g", "j") ]
  in
  let g_id = Option.get (Fault_tree.gate_index tree "g") in
  Alcotest.(check bool) "general" true
    (Sdft_classify.classify sd g_id = Sdft_classify.General);
  let ids names = List.map (fun n -> Option.get (Fault_tree.basic_index tree n)) names in
  let m = Cutset_model.build sd (Int_set.of_list (ids [ "x1"; "j" ])) in
  (* x2 (dynamic) and s (static, not in C) are both pulled into FT_C. *)
  Alcotest.(check int) "x2 added" 1 m.Cutset_model.n_added_dynamic;
  Alcotest.(check int) "s added" 1 m.Cutset_model.n_added_static;
  let q = Cutset_model.quantify m ~horizon:12.0 in
  let exact = Sdft_product.solve sd ~horizon:12.0 in
  check_close ~eps:1e-9 "p~ = exact" exact q.Cutset_model.probability

(* ------------------------------------------------------------------ *)
(* Full analysis pipeline *)

let test_analysis_pumps_summary () =
  let r = Sdft_analysis.analyze pumps_sd in
  Alcotest.(check int) "5 cutsets" 5 r.Sdft_analysis.n_cutsets;
  Alcotest.(check int) "3 dynamic cutsets" 3 r.Sdft_analysis.n_dynamic_cutsets;
  check_close ~eps:1e-7 "golden total" 3.522e-4 r.Sdft_analysis.total;
  let h = Sdft_analysis.dynamic_histogram r in
  Alcotest.(check int) "hist 0" 2 (Sdft_util.Histogram.count h 0);
  Alcotest.(check int) "hist 1" 2 (Sdft_util.Histogram.count h 1);
  Alcotest.(check int) "hist 2" 1 (Sdft_util.Histogram.count h 2);
  check_close ~eps:1e-12 "no added events" 0.0 (Sdft_analysis.mean_added_dynamic r)

let test_analysis_cutoff_excludes () =
  let options =
    { Sdft_analysis.default_options with cutoff = 1e-4 }
  in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  (* Only {b,d} (1.98e-4) survives a 1e-4 cutoff in the final sum. *)
  Alcotest.(check bool) "total ~ 1.98e-4" true
    (Float.abs (r.Sdft_analysis.total -. 1.979e-4) < 1e-6)

let test_analysis_static_rare_event () =
  let tree = Pumps.static_tree () in
  let rea, n = Sdft_analysis.static_rare_event tree in
  Alcotest.(check int) "5 relevant" 5 n;
  check_close ~eps:1e-12 "rea" 1.9e-5 rea

let test_analysis_dynamic_importance () =
  let r = Sdft_analysis.analyze pumps_sd in
  (* FV of d: cutsets {b,d} and {a,d} carry its weight. *)
  let p_of names =
    let s = pset names in
    (List.find
       (fun (i : Sdft_analysis.cutset_info) -> Int_set.equal i.cutset s)
       r.Sdft_analysis.cutsets)
      .probability
  in
  let expected = (p_of [ "b"; "d" ] +. p_of [ "a"; "d" ]) /. r.Sdft_analysis.total in
  check_close ~eps:1e-12 "FV(d)" expected
    (Sdft_analysis.fussell_vesely r (pidx "d"));
  (* Ranking: the dynamic events dominate the static ones here. *)
  match Sdft_analysis.rank_by_fussell_vesely r ~n_basics:5 with
  | first :: _ ->
    Alcotest.(check bool) "most important is dynamic" true
      (Sdft.is_dynamic pumps_sd first)
  | [] -> Alcotest.fail "empty ranking"

let test_analysis_parallel_matches_sequential () =
  let sequential = Sdft_analysis.analyze pumps_sd in
  let options = { Sdft_analysis.default_options with domains = 3 } in
  let parallel = Sdft_analysis.analyze ~options pumps_sd in
  check_close ~eps:1e-15 "same total" sequential.Sdft_analysis.total
    parallel.Sdft_analysis.total;
  Alcotest.(check int) "same cutsets" sequential.Sdft_analysis.n_cutsets
    parallel.Sdft_analysis.n_cutsets

let test_analysis_engines_agree () =
  let total engine =
    let options = { Sdft_analysis.default_options with engine } in
    (Sdft_analysis.analyze ~options pumps_sd).Sdft_analysis.total
  in
  check_close ~eps:1e-12 "zdd" (total Sdft_analysis.Mocus_sound)
    (total Sdft_analysis.Zdd_engine)

let test_analysis_fv_respects_cutoff () =
  (* With cutoff 1e-4 only {b,d} survives into [total]; the FV sums must
     apply the same filter or fractions exceed 1 ({a,d} used to leak into
     FV(d)'s numerator but not into the denominator). *)
  let options = { Sdft_analysis.default_options with cutoff = 1e-4 } in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  for a = 0 to 4 do
    let fv = Sdft_analysis.fussell_vesely r a in
    if fv < 0.0 || fv > 1.0 then Alcotest.failf "FV out of [0,1]: %f" fv
  done;
  check_close ~eps:1e-12 "FV(d) = 1 (sole surviving cutset)" 1.0
    (Sdft_analysis.fussell_vesely r (pidx "d"));
  check_close ~eps:1e-12 "FV(a) = 0 (all its cutsets below cutoff)" 0.0
    (Sdft_analysis.fussell_vesely r (pidx "a"));
  (* The ranking must be driven by the same filtered sums. *)
  (match Sdft_analysis.rank_by_fussell_vesely r ~n_basics:5 with
  | first :: second :: _ ->
    let top2 = List.sort compare [ first; second ] in
    Alcotest.(check (list int)) "b and d lead" [ pidx "b"; pidx "d" ] top2
  | _ -> Alcotest.fail "short ranking");
  (* Sanity: without a binding cutoff the fractions are unchanged. *)
  let r0 = Sdft_analysis.analyze pumps_sd in
  let sum_fv =
    List.fold_left
      (fun acc a -> acc +. Sdft_analysis.fussell_vesely r0 a)
      0.0 [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "each event's FV still positive" true (sum_fv > 0.0)

let test_analysis_parallel_4_identical_probabilities () =
  let seq = Sdft_analysis.analyze pumps_sd in
  let options = { Sdft_analysis.default_options with domains = 4 } in
  let par = Sdft_analysis.analyze ~options pumps_sd in
  let key (i : Sdft_analysis.cutset_info) = (i.cutset, i.probability) in
  Alcotest.(check int) "same count" seq.Sdft_analysis.n_cutsets
    par.Sdft_analysis.n_cutsets;
  (* Per-cutset probabilities must be bit-identical, not merely close:
     the work distribution cannot change any numerical path. *)
  List.iter2
    (fun a b ->
      let ca, pa = key a and cb, pb = key b in
      Alcotest.(check bool) "same cutset" true (Int_set.equal ca cb);
      Alcotest.(check bool) "identical probability" true (pa = pb))
    seq.Sdft_analysis.cutsets par.Sdft_analysis.cutsets;
  (* The cost-descending schedule reorders work internally; the results
     must come back in input order, so the Kahan total sums identically. *)
  Alcotest.(check bool) "identical total" true
    (seq.Sdft_analysis.total = par.Sdft_analysis.total)

(* Error budget *)

let test_budget_certifies_pumps () =
  let r = Sdft_analysis.analyze pumps_sd in
  let b = r.Sdft_analysis.budget in
  Alcotest.(check bool) "not vacuous" false b.Sdft_analysis.vacuous;
  Alcotest.(check bool) "lower <= total" true (b.Sdft_analysis.lower <= r.Sdft_analysis.total);
  Alcotest.(check bool) "total <= upper" true (r.Sdft_analysis.total <= b.Sdft_analysis.upper);
  (* The certificate itself: the exact product-chain probability must lie
     inside the interval (pumps is small enough to solve exactly). *)
  let exact = Sdft_product.solve pumps_sd ~horizon:24.0 in
  Alcotest.(check bool) "lower <= exact" true (b.Sdft_analysis.lower <= exact +. 1e-12);
  Alcotest.(check bool) "exact <= upper" true (exact <= b.Sdft_analysis.upper +. 1e-12);
  (* Term structure: nothing pruned at the default cutoff, a positive but
     tiny solver budget, slack = total - lower. *)
  check_close ~eps:1e-15 "no pruned mass" 0.0 b.Sdft_analysis.pruned_mass;
  check_close ~eps:1e-15 "no below-cutoff mass" 0.0 b.Sdft_analysis.below_cutoff_mass;
  Alcotest.(check bool) "solver budget positive" true (b.Sdft_analysis.solver_error_total > 0.0);
  Alcotest.(check bool) "solver budget tiny" true (b.Sdft_analysis.solver_error_total < 1e-9);
  check_close ~eps:1e-15 "slack = total - lower"
    (r.Sdft_analysis.total -. b.Sdft_analysis.lower)
    b.Sdft_analysis.rare_event_slack;
  check_close ~eps:1e-15 "upper = total + terms"
    (r.Sdft_analysis.total +. b.Sdft_analysis.pruned_mass
    +. b.Sdft_analysis.below_cutoff_mass +. b.Sdft_analysis.solver_error_total)
    b.Sdft_analysis.upper

let test_budget_below_cutoff_mass () =
  (* Generation prunes on worst-case probabilities, the relevance filter on
     the (smaller) time-aware p~. Cutoff 3e-4 sits between the two for
     {b,d} (worst case 5.6e-4, p~ 1.98e-4): the cutset survives generation,
     is quantified, then excluded from [total] — and must show up, in full,
     as below-cutoff mass in the upper bound. *)
  let options = { Sdft_analysis.default_options with cutoff = 3e-4 } in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  let b = r.Sdft_analysis.budget in
  let excluded =
    List.filter
      (fun (i : Sdft_analysis.cutset_info) -> i.probability <= 3e-4)
      r.Sdft_analysis.cutsets
  in
  Alcotest.(check bool) "some quantified cutsets excluded" true
    (excluded <> []);
  let mass =
    List.fold_left (fun acc (i : Sdft_analysis.cutset_info) -> acc +. i.probability) 0.0 excluded
  in
  check_close ~eps:1e-15 "below-cutoff mass accounted" mass
    b.Sdft_analysis.below_cutoff_mass;
  (* The widened interval still contains the full-precision answer. *)
  let full = Sdft_analysis.analyze pumps_sd in
  Alcotest.(check bool) "upper covers the unfiltered total" true
    (full.Sdft_analysis.total <= b.Sdft_analysis.upper)

let test_budget_pruned_mass_from_generation () =
  (* A generation-time cutoff (not just the relevance filter) must surface
     as pruned mass and keep the interval sound. MOCUS prunes on worst-case
     translated probabilities, so use a cutoff between the smallest and
     largest cutset contributions. *)
  let options = { Sdft_analysis.default_options with cutoff = 1e-5 } in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  let b = r.Sdft_analysis.budget in
  Alcotest.(check bool) "not vacuous" false b.Sdft_analysis.vacuous;
  Alcotest.(check bool) "something pruned at generation" true
    (r.Sdft_analysis.generation.Mocus.pruned_by_cutoff > 0);
  Alcotest.(check bool) "pruned mass positive" true (b.Sdft_analysis.pruned_mass > 0.0);
  let exact = Sdft_product.solve pumps_sd ~horizon:24.0 in
  Alcotest.(check bool) "interval still contains exact" true
    (b.Sdft_analysis.lower <= exact +. 1e-12
    && exact <= b.Sdft_analysis.upper +. 1e-12)

let test_budget_vacuous_cases () =
  (* Vacuity has one cause: a truncated generation, which leaves mass
     unaccounted. MOCUS truncates when its cutset-count valve closes... *)
  let valve =
    Mocus.run
      ~options:{ Mocus.default_options with max_cutsets = Some 1 }
      pumps_tree
  in
  Alcotest.(check bool) "count valve truncates" true valve.Mocus.truncated;
  (* ...and the ZDD engine when a limit stops its compilation: the analysis
     interval must then degrade to a marked-vacuous [lower, >=1]. *)
  let options = { Sdft_analysis.default_options with deadline = Some 0.0 } in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  let b = r.Sdft_analysis.budget in
  Alcotest.(check bool) "generation truncated" true
    r.Sdft_analysis.generation.Mocus.truncated;
  Alcotest.(check bool) "truncated generation is vacuous" true
    b.Sdft_analysis.vacuous;
  Alcotest.(check bool) "vacuous upper covers everything" true
    (b.Sdft_analysis.upper >= 1.0);
  (* A cutoff alone never makes the interval vacuous: both engines account
     for what it drops. *)
  List.iter
    (fun engine ->
      let options = { Sdft_analysis.default_options with engine } in
      let r = Sdft_analysis.analyze ~options pumps_sd in
      Alcotest.(check bool)
        (Sdft_analysis.engine_name engine ^ " + cutoff not vacuous")
        false r.Sdft_analysis.budget.Sdft_analysis.vacuous)
    Sdft_analysis.engines

let test_budget_fallback_excluded_from_lower () =
  (* Starve the state bound so every dynamic cutset falls back to its
     worst-case product: those over-approximations must not anchor the
     lower bound, which falls to the best purely static cutset. *)
  let options = { Sdft_analysis.default_options with max_product_states = 1 } in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  Alcotest.(check bool) "fallbacks happened" true (r.Sdft_analysis.n_fallbacks > 0);
  let best_static =
    List.fold_left
      (fun acc (i : Sdft_analysis.cutset_info) ->
        if i.used_fallback then acc else Float.max acc i.probability)
      0.0 r.Sdft_analysis.cutsets
  in
  Alcotest.(check bool) "lower anchored by non-fallback cutsets" true
    (r.Sdft_analysis.budget.Sdft_analysis.lower <= best_static)

let test_trace_does_not_change_results () =
  (* Bit-identical analytic output with tracing on and off — tracing only
     observes. *)
  Sdft_util.Trace.reset ();
  let off = Sdft_analysis.analyze pumps_sd in
  Sdft_util.Trace.set_enabled true;
  let on =
    Fun.protect
      ~finally:(fun () ->
        Sdft_util.Trace.set_enabled false;
        Sdft_util.Trace.reset ())
      (fun () -> Sdft_analysis.analyze pumps_sd)
  in
  Alcotest.(check bool) "identical total" true
    (off.Sdft_analysis.total = on.Sdft_analysis.total);
  Alcotest.(check bool) "identical bounds" true
    (off.Sdft_analysis.budget.Sdft_analysis.lower
     = on.Sdft_analysis.budget.Sdft_analysis.lower
    && off.Sdft_analysis.budget.Sdft_analysis.upper
       = on.Sdft_analysis.budget.Sdft_analysis.upper);
  List.iter2
    (fun (a : Sdft_analysis.cutset_info) (b : Sdft_analysis.cutset_info) ->
      Alcotest.(check bool) "identical p~" true (a.probability = b.probability))
    off.Sdft_analysis.cutsets on.Sdft_analysis.cutsets

(* Quantification cache *)

let sweep_options_for horizon =
  { Sdft_analysis.default_options with horizon }

let test_cache_sweep_second_pass_hits () =
  let option_sets = List.map sweep_options_for [ 12.0; 24.0 ] in
  let cache = Quant_cache.create () in
  let first, _ = Sdft_analysis.sweep ~cache pumps_sd option_sets in
  let misses_after_first = Quant_cache.misses cache in
  Alcotest.(check bool) "first pass misses" true (misses_after_first > 0);
  let second, _ = Sdft_analysis.sweep ~cache pumps_sd option_sets in
  Alcotest.(check int) "second pass: no new misses" misses_after_first
    (Quant_cache.misses cache);
  Alcotest.(check bool) "second pass: hits" true
    (List.for_all (fun (p : Sdft_analysis.sweep_point) -> p.cache_hits > 0) second);
  (* Cached results must match independent uncached runs to 1e-12. *)
  List.iter2
    (fun (p : Sdft_analysis.sweep_point) opts ->
      let uncached = Sdft_analysis.analyze ~options:opts pumps_sd in
      check_close ~eps:1e-12 "cached total = uncached total"
        uncached.Sdft_analysis.total p.sweep_result.Sdft_analysis.total;
      List.iter2
        (fun (a : Sdft_analysis.cutset_info) (b : Sdft_analysis.cutset_info) ->
          Alcotest.(check bool) "same cutset" true (Int_set.equal a.cutset b.cutset);
          check_close ~eps:1e-12 "cached p~ = uncached p~" a.probability b.probability)
        uncached.Sdft_analysis.cutsets p.sweep_result.Sdft_analysis.cutsets)
    (first @ second) (option_sets @ option_sets)

let test_cache_isomorphic_cutsets_share () =
  (* OR(AND(x1,y1), AND(x2,y2)) with identical DBE descriptors: the two
     cutsets build isomorphic FT_C models, so one analyze call needs only
     one transient solve. *)
  let b = Fault_tree.Builder.create () in
  let mk name = Fault_tree.Builder.basic b name in
  let x1 = mk "x1" and y1 = mk "y1" and x2 = mk "x2" and y2 = mk "y2" in
  let a1 = Fault_tree.Builder.gate b "a1" Fault_tree.And [ x1; y1 ] in
  let a2 = Fault_tree.Builder.gate b "a2" Fault_tree.And [ x2; y2 ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ a1; a2 ] in
  let tree = Fault_tree.Builder.build b ~top in
  let dbe () = Dbe.erlang ~phases:2 ~lambda:1e-3 ~mu:0.05 () in
  let sd =
    Sdft.make tree
      ~dynamic:[ ("x1", dbe ()); ("y1", dbe ()); ("x2", dbe ()); ("y2", dbe ()) ]
      ~triggers:[]
  in
  let cache = Quant_cache.create () in
  let r = Sdft_analysis.analyze ~cache sd in
  Alcotest.(check int) "two cutsets" 2 r.Sdft_analysis.n_cutsets;
  Alcotest.(check int) "one miss" 1 (Quant_cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Quant_cache.hits cache);
  let uncached = Sdft_analysis.analyze sd in
  check_close ~eps:1e-12 "total matches uncached" uncached.Sdft_analysis.total
    r.Sdft_analysis.total

let test_cache_industrial_sweep_matches_uncached () =
  (* The acceptance scenario: a ≥3-horizon sweep on the (dynamized)
     industrial model must hit the cache and agree with independent
     uncached runs to 1e-12. *)
  let tree = Industrial.generate Industrial.small in
  let config =
    {
      Dynamize.default_config with
      dynamic_fraction = 0.3;
      trigger_fraction = 0.03;
      repair_rate = Some 0.05;
      chain_groups = Some (Industrial.run_event_groups tree);
    }
  in
  let sd = (Dynamize.run ~config tree).Dynamize.sd in
  let option_sets =
    List.map
      (fun horizon ->
        {
          Sdft_analysis.default_options with
          engine = Sdft_analysis.Zdd_engine;
          horizon;
        })
      [ 8.0; 24.0; 72.0 ]
  in
  let points, cache = Sdft_analysis.sweep sd option_sets in
  Alcotest.(check bool) "nonzero hit rate" true (Quant_cache.hits cache > 0);
  List.iter2
    (fun (p : Sdft_analysis.sweep_point) opts ->
      let uncached = Sdft_analysis.analyze ~options:opts sd in
      check_close ~eps:1e-12 "total matches uncached"
        uncached.Sdft_analysis.total p.sweep_result.Sdft_analysis.total;
      List.iter2
        (fun (a : Sdft_analysis.cutset_info) (b : Sdft_analysis.cutset_info) ->
          Alcotest.(check bool) "same cutset" true (Int_set.equal a.cutset b.cutset);
          check_close ~eps:1e-12 "p~ matches uncached" a.probability b.probability)
        uncached.Sdft_analysis.cutsets p.sweep_result.Sdft_analysis.cutsets)
    points option_sets

let test_cache_fingerprint_name_independent () =
  let model names =
    let b = Fault_tree.Builder.create () in
    let leaves = List.map (fun n -> Fault_tree.Builder.basic b n) names in
    let top = Fault_tree.Builder.gate b "g" Fault_tree.And leaves in
    let tree = Fault_tree.Builder.build b ~top in
    Sdft.make tree
      ~dynamic:(List.map (fun n -> (n, Dbe.exponential ~lambda:2e-3 ())) names)
      ~triggers:[]
  in
  Alcotest.(check string) "renaming preserves the fingerprint"
    (Quant_cache.fingerprint (model [ "u"; "v" ]))
    (Quant_cache.fingerprint (model [ "p"; "q" ]));
  Alcotest.(check bool) "different rates change it" true
    (Quant_cache.fingerprint (model [ "u"; "v" ])
    <> Quant_cache.fingerprint
         (let b = Fault_tree.Builder.create () in
          let leaves = [ Fault_tree.Builder.basic b "u"; Fault_tree.Builder.basic b "v" ] in
          let top = Fault_tree.Builder.gate b "g" Fault_tree.And leaves in
          let tree = Fault_tree.Builder.build b ~top in
          Sdft.make tree
            ~dynamic:[ ("u", Dbe.exponential ~lambda:2e-3 ());
                       ("v", Dbe.exponential ~lambda:3e-3 ()) ]
            ~triggers:[]))

(* Soundness properties on random SD fault trees (cutoff 0):

   - with the exact [All_events] relevant sets, the rare-event sum
     upper-bounds the exact product probability (property (i) of Section V:
     the failed runs are covered by the per-cutset reach events);
   - the paper's reduced relevant sets never yield more than the exact
     rule (they model a subset of the triggering paths);
   - untriggered models need no trigger logic at all, so there the paper
     rule itself upper-bounds the exact value. *)
let random_sd ?(n_triggers = 1) seed = Gen_sdft.sd ~n_triggers seed

let analyze_with ?(rel_rule = Cutset_model.Paper) sd =
  let options =
    { Sdft_analysis.default_options with cutoff = 0.0; horizon = 8.0; rel_rule }
  in
  (Sdft_analysis.analyze ~options sd).Sdft_analysis.total

let prop_analysis_bounds_exact_untriggered =
  QCheck.Test.make ~name:"REA >= exact (untriggered models)" ~count:60
    Gen_sdft.seed_gen
    (fun seed ->
      let sd = random_sd ~n_triggers:0 seed in
      match Sdft_product.solve sd ~horizon:8.0 with
      | exact -> analyze_with sd >= exact -. 1e-7
      | exception Sdft_product.Too_many_states _ -> QCheck.assume_fail ())

let prop_analysis_all_events_bounds_exact =
  QCheck.Test.make ~name:"REA (All_events rule) >= exact" ~count:60
    Gen_sdft.seed_gen
    (fun seed ->
      let sd = random_sd seed in
      match Sdft_product.solve sd ~horizon:8.0 with
      | exact ->
        analyze_with ~rel_rule:Cutset_model.All_events sd >= exact -. 1e-7
      | exception Sdft_product.Too_many_states _ -> QCheck.assume_fail ())

let prop_paper_rule_below_exact_rule =
  QCheck.Test.make ~name:"paper rule <= All_events rule" ~count:60
    Gen_sdft.seed_gen
    (fun seed ->
      let sd = random_sd seed in
      analyze_with sd <= analyze_with ~rel_rule:Cutset_model.All_events sd +. 1e-9)

let test_analysis_parallel_reordered_schedule_identical () =
  (* A model with heterogeneous cutset costs (0/1/2 dynamic events across
     cutsets) so the load-balancing sort genuinely permutes the schedule;
     every per-cutset field must still match the sequential run exactly. *)
  let sd = random_sd 4242 in
  let base = { Sdft_analysis.default_options with cutoff = 0.0; horizon = 8.0 } in
  let seq = Sdft_analysis.analyze ~options:base sd in
  List.iter
    (fun domains ->
      let par = Sdft_analysis.analyze ~options:{ base with domains } sd in
      Alcotest.(check bool) "identical total" true
        (seq.Sdft_analysis.total = par.Sdft_analysis.total);
      List.iter2
        (fun (a : Sdft_analysis.cutset_info) (b : Sdft_analysis.cutset_info) ->
          Alcotest.(check bool) "same cutset" true
            (Int_set.equal a.cutset b.cutset);
          Alcotest.(check bool) "identical probability" true
            (a.probability = b.probability);
          Alcotest.(check int) "same product states" a.product_states
            b.product_states;
          Alcotest.(check int) "same n_dynamic" a.n_dynamic b.n_dynamic)
        seq.Sdft_analysis.cutsets par.Sdft_analysis.cutsets)
    [ 2; 3 ]

let prop_packed_matches_generic =
  (* The mixed-radix packed exploration must be indistinguishable from the
     array-keyed generic path: same interning order, hence identical chain,
     initial distribution, failure labelling, and solve result (to the bit). *)
  QCheck.Test.make ~name:"packed product build = generic build" ~count:80
    Gen_sdft.seed_gen
    (fun seed ->
      let sd = random_sd seed in
      match Sdft_product.build sd with
      | exception Sdft_product.Too_many_states _ -> QCheck.assume_fail ()
      | packed ->
        let generic = Sdft_product.build ~generic:true sd in
        let transitions b =
          let acc = ref [] in
          Ctmc.iter_transitions b.Sdft_product.chain (fun s d r ->
              acc := (s, d, r) :: !acc);
          List.rev !acc
        in
        packed.Sdft_product.n_states = generic.Sdft_product.n_states
        && packed.Sdft_product.init = generic.Sdft_product.init
        && packed.Sdft_product.failed = generic.Sdft_product.failed
        && packed.Sdft_product.participants = generic.Sdft_product.participants
        && transitions packed = transitions generic
        && Sdft_product.unreliability packed ~horizon:8.0
           = Sdft_product.unreliability generic ~horizon:8.0)

let prop_analysis_single_mcs_exact =
  (* With a single minimal cutset and the exact relevant sets, the analysis
     equals the exact probability; the paper rule never exceeds it. *)
  QCheck.Test.make ~name:"single-MCS models are quantified exactly" ~count:60
    Gen_sdft.seed_gen
    (fun seed ->
      let rng = Sdft_util.Rng.create seed in
      let sd =
        Random_tree.sd rng ~max_prob:0.2 ~n_basics:4 ~n_gates:3 ~n_dynamic:2
          ~n_triggers:1
      in
      let options =
        { Sdft_analysis.default_options with cutoff = 0.0; horizon = 6.0;
          rel_rule = Cutset_model.All_events }
      in
      let r = Sdft_analysis.analyze ~options sd in
      if r.Sdft_analysis.n_cutsets <> 1 then QCheck.assume_fail ()
      else begin
        let exact = Sdft_product.solve sd ~horizon:6.0 in
        let paper =
          (Sdft_analysis.analyze
             ~options:{ options with rel_rule = Cutset_model.Paper }
             sd)
            .Sdft_analysis.total
        in
        Float.abs (r.Sdft_analysis.total -. exact) < 1e-7
        && paper <= exact +. 1e-7
      end)

(* ------------------------------------------------------------------ *)
(* Cut sequences *)

let test_sequences_triggered_order_forced () =
  (* {b, d}: the spare pump d can only fail after b has failed, so the only
     order is b -> d and it carries all of p~(C). *)
  let r = Cut_sequences.of_cutset pumps_sd (pset [ "b"; "d" ]) ~horizon:24.0 in
  Alcotest.(check int) "one order" 1 (List.length r.Cut_sequences.sequences);
  let s = List.hd r.Cut_sequences.sequences in
  Alcotest.(check (list int)) "b then d" [ pidx "b"; pidx "d" ] s.Cut_sequences.order;
  let m = Cutset_model.build pumps_sd (pset [ "b"; "d" ]) in
  let q = Cutset_model.quantify m ~horizon:24.0 in
  check_close ~eps:1e-12 "total = p~" q.Cutset_model.probability r.Cut_sequences.total

let test_sequences_symmetric_split () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x; y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [ ("x", Dbe.exponential ~lambda:0.1 ()); ("y", Dbe.exponential ~lambda:0.1 ()) ]
      ~triggers:[]
  in
  let r =
    Cut_sequences.of_cutset sd (Int_set.of_list [ 0; 1 ]) ~horizon:10.0
  in
  Alcotest.(check int) "two orders" 2 (List.length r.Cut_sequences.sequences);
  (match r.Cut_sequences.sequences with
  | [ s1; s2 ] -> check_close ~eps:1e-12 "50/50" s1.Cut_sequences.probability s2.Cut_sequences.probability
  | _ -> Alcotest.fail "expected two sequences");
  (* total = (1 - e^-1)^2 *)
  let p1 = 1.0 -. exp (-1.0) in
  check_close ~eps:1e-9 "closed form" (p1 *. p1) r.Cut_sequences.total

let test_sequences_static_cutset () =
  let r = Cut_sequences.of_cutset pumps_sd (pset [ "a"; "c" ]) ~horizon:24.0 in
  Alcotest.(check int) "one empty order" 1 (List.length r.Cut_sequences.sequences);
  check_close ~eps:1e-15 "static probability" 9e-6 r.Cut_sequences.total

let test_sequences_asymmetric_rates () =
  (* x fails much faster than y: the order x -> y must dominate. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x; y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [ ("x", Dbe.exponential ~lambda:1.0 ()); ("y", Dbe.exponential ~lambda:0.05 ()) ]
      ~triggers:[]
  in
  let r = Cut_sequences.of_cutset sd (Int_set.of_list [ 0; 1 ]) ~horizon:10.0 in
  match r.Cut_sequences.sequences with
  | s1 :: _ ->
    Alcotest.(check (list int)) "x first dominates" [ 0; 1 ] s1.Cut_sequences.order;
    Alcotest.(check bool) "dominant" true
      (s1.Cut_sequences.probability > 0.8 *. r.Cut_sequences.total)
  | [] -> Alcotest.fail "no sequences"

let test_sequences_sum_matches_quantification () =
  (* On the static-joins model the sequence masses must add up to p~. *)
  let sd = static_joins_model () in
  let tree = Sdft.tree sd in
  let ids = List.map (fun n -> Option.get (Fault_tree.basic_index tree n)) in
  let cutset = Int_set.of_list (ids [ "y"; "j" ]) in
  let r = Cut_sequences.of_cutset sd cutset ~horizon:24.0 in
  let q = Cutset_model.quantify (Cutset_model.build sd cutset) ~horizon:24.0 in
  check_close ~eps:1e-9 "sum = p~" q.Cutset_model.probability r.Cut_sequences.total;
  Alcotest.(check bool) "several orders" true (List.length r.Cut_sequences.sequences >= 2)

(* ------------------------------------------------------------------ *)
(* Steady-state availability *)

let test_availability_exponential () =
  let lambda = 0.02 and mu = 0.4 in
  let d = Dbe.exponential ~lambda ~mu () in
  match Availability.event_unavailability d with
  | Some q -> check_close ~eps:1e-9 "q" (lambda /. (lambda +. mu)) q
  | None -> Alcotest.fail "expected steady state"

let test_availability_unrepairable () =
  let d = Dbe.exponential ~lambda:0.02 () in
  Alcotest.(check bool) "no steady state" true
    (Availability.event_unavailability d = None)

let test_availability_triggered () =
  (* The on-copy of a triggered exponential with repair is the plain
     repairable machine. *)
  let lambda = 0.05 and mu = 0.3 in
  let d = Dbe.triggered_exponential ~lambda ~mu ~passive_factor:0.0 () in
  match Availability.event_unavailability d with
  | Some q -> check_close ~eps:1e-9 "q" (lambda /. (lambda +. mu)) q
  | None -> Alcotest.fail "expected steady state"

let test_availability_analyze () =
  (* top = AND(x, y), both repairable: long-run unavailability is the
     product of the two steady-state unavailabilities (REA over one
     cutset). *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x; y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [
          ("x", Dbe.exponential ~lambda:0.02 ~mu:0.5 ());
          ("y", Dbe.exponential ~lambda:0.03 ~mu:0.4 ());
        ]
      ~triggers:[]
  in
  match Availability.analyze ~cutoff:0.0 sd with
  | Some r ->
    let qx = 0.02 /. 0.52 and qy = 0.03 /. 0.43 in
    check_close ~eps:1e-9 "product" (qx *. qy) r.Availability.unavailability;
    Alcotest.(check int) "one cutset" 1 r.Availability.n_cutsets
  | None -> Alcotest.fail "expected result"

let test_availability_mixed_static () =
  (* OR of a static event and a repairable one. *)
  let b = Fault_tree.Builder.create () in
  let s = Fault_tree.Builder.basic b ~prob:1e-3 "s" in
  let x = Fault_tree.Builder.basic b "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ s; x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree ~dynamic:[ ("x", Dbe.exponential ~lambda:0.01 ~mu:1.0 ()) ] ~triggers:[]
  in
  match Availability.analyze ~cutoff:0.0 sd with
  | Some r ->
    check_close ~eps:1e-9 "sum" (1e-3 +. (0.01 /. 1.01)) r.Availability.unavailability
  | None -> Alcotest.fail "expected result"

let test_availability_rejects_unrepairable_model () =
  let sd = Pumps.sd_tree () in
  ignore sd;
  (* pumps has repairable dynamics, so it should work... build an
     unrepairable one instead. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let bad =
    Sdft.make tree ~dynamic:[ ("x", Dbe.exponential ~lambda:0.01 ()) ] ~triggers:[]
  in
  Alcotest.(check bool) "None for unrepairable" true (Availability.analyze bad = None)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "dbe",
        [
          Alcotest.test_case "init sums to 1" `Quick test_dbe_init_must_sum_to_one;
          Alcotest.test_case "needs failed state" `Quick test_dbe_needs_failed_state;
          Alcotest.test_case "failed must be on" `Quick test_dbe_failed_must_be_on;
          Alcotest.test_case "starts off" `Quick test_dbe_triggered_starts_off;
          Alcotest.test_case "partner modes" `Quick test_dbe_partner_opposite_mode;
          Alcotest.test_case "exponential worst case" `Quick test_dbe_exponential_worst_case;
          Alcotest.test_case "erlang worst case" `Quick test_dbe_erlang_worst_case;
          Alcotest.test_case "triggered = untriggered worst case" `Quick
            test_dbe_triggered_equals_untriggered_worst_case;
          Alcotest.test_case "triggered structure" `Quick test_dbe_triggered_structure;
          Alcotest.test_case "repair only on" `Quick test_dbe_repair_only_when_on;
          Alcotest.test_case "repair when off" `Quick test_dbe_repair_when_off;
        ] );
      ( "sdft",
        [
          Alcotest.test_case "unknown names" `Quick test_sdft_unknown_names;
          Alcotest.test_case "trigger needs switch" `Quick test_sdft_trigger_requires_switch;
          Alcotest.test_case "double trigger" `Quick test_sdft_double_trigger_rejected;
          Alcotest.test_case "cyclic trigger" `Quick test_sdft_cyclic_trigger_rejected;
          Alcotest.test_case "accessors" `Quick test_sdft_accessors;
        ] );
      ( "classify",
        [
          Alcotest.test_case "static branching" `Quick test_classify_static_branching;
          Alcotest.test_case "static joins" `Quick test_classify_static_joins;
          Alcotest.test_case "AND-only is SB" `Quick test_classify_and_only_is_static_branching;
          Alcotest.test_case "general" `Quick test_classify_general;
          Alcotest.test_case "running example" `Quick test_classify_pumps_running_example;
          Alcotest.test_case "uniform triggering" `Quick test_classify_uniform_triggering;
        ] );
      ( "translate",
        [
          Alcotest.test_case "preserves MCS" `Quick test_translate_pumps_preserves_mcs;
          Alcotest.test_case "worst-case values" `Quick test_translate_worst_case_values;
          Alcotest.test_case "adds AND gates" `Quick test_translate_adds_trigger_and;
          Alcotest.test_case "trigger in MCS" `Quick test_translate_triggered_event_mcs_includes_trigger;
        ] );
      ( "product",
        (qc [ prop_packed_matches_generic ])
        @ [
          Alcotest.test_case "static = enumeration" `Quick test_product_static_tree_matches_exact;
          Alcotest.test_case "trigger sequence = Erlang" `Quick test_product_trigger_sequence_is_erlang;
          Alcotest.test_case "unfired trigger" `Quick test_product_untriggered_spare_never_fails;
          Alcotest.test_case "passive failure not failed" `Quick test_product_passive_failures_do_count;
          Alcotest.test_case "max states guard" `Quick test_product_max_states_guard;
          Alcotest.test_case "pumps golden" `Quick test_product_pumps_value;
        ] );
      ( "cutset model",
        [
          Alcotest.test_case "static only" `Quick test_cutset_model_static_only;
          Alcotest.test_case "dynamic pair" `Quick test_cutset_model_dynamic_pair;
          Alcotest.test_case "impossible" `Quick test_cutset_model_impossible;
          Alcotest.test_case "always triggered" `Quick test_cutset_model_always_triggered;
          Alcotest.test_case "REA vs exact (pumps)" `Quick test_cutset_model_rea_matches_exact_pumps;
          Alcotest.test_case "static joins adds events" `Quick test_cutset_model_static_joins_adds_events;
          Alcotest.test_case "general trigger exact" `Quick test_cutset_model_general_trigger_exact;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "pumps summary" `Quick test_analysis_pumps_summary;
          Alcotest.test_case "cutoff" `Quick test_analysis_cutoff_excludes;
          Alcotest.test_case "static rare event" `Quick test_analysis_static_rare_event;
          Alcotest.test_case "engines agree" `Quick test_analysis_engines_agree;
          Alcotest.test_case "parallel = sequential" `Quick
            test_analysis_parallel_matches_sequential;
          Alcotest.test_case "parallel(4) identical probabilities" `Quick
            test_analysis_parallel_4_identical_probabilities;
          Alcotest.test_case "parallel reordered schedule identical" `Quick
            test_analysis_parallel_reordered_schedule_identical;
          Alcotest.test_case "dynamic importance" `Quick test_analysis_dynamic_importance;
          Alcotest.test_case "FV respects cutoff" `Quick test_analysis_fv_respects_cutoff;
        ]
        @ [
            Alcotest.test_case "budget certifies pumps" `Quick test_budget_certifies_pumps;
            Alcotest.test_case "budget below-cutoff mass" `Quick test_budget_below_cutoff_mass;
            Alcotest.test_case "budget pruned mass" `Quick test_budget_pruned_mass_from_generation;
            Alcotest.test_case "budget vacuous cases" `Quick test_budget_vacuous_cases;
            Alcotest.test_case "budget fallback lower bound" `Quick test_budget_fallback_excluded_from_lower;
            Alcotest.test_case "trace does not change results" `Quick test_trace_does_not_change_results;
          ]
        @ qc
            [
              prop_analysis_bounds_exact_untriggered;
              prop_analysis_all_events_bounds_exact;
              prop_paper_rule_below_exact_rule;
              prop_analysis_single_mcs_exact;
            ] );
      ( "quant cache",
        [
          Alcotest.test_case "sweep second pass hits" `Quick
            test_cache_sweep_second_pass_hits;
          Alcotest.test_case "isomorphic cutsets share" `Quick
            test_cache_isomorphic_cutsets_share;
          Alcotest.test_case "fingerprint name-independent" `Quick
            test_cache_fingerprint_name_independent;
          Alcotest.test_case "industrial sweep matches uncached" `Slow
            test_cache_industrial_sweep_matches_uncached;
        ] );
      ( "cut sequences",
        [
          Alcotest.test_case "triggered order forced" `Quick test_sequences_triggered_order_forced;
          Alcotest.test_case "symmetric split" `Quick test_sequences_symmetric_split;
          Alcotest.test_case "static cutset" `Quick test_sequences_static_cutset;
          Alcotest.test_case "asymmetric rates" `Quick test_sequences_asymmetric_rates;
          Alcotest.test_case "sum = quantification" `Quick test_sequences_sum_matches_quantification;
        ] );
      ( "availability",
        [
          Alcotest.test_case "exponential" `Quick test_availability_exponential;
          Alcotest.test_case "unrepairable" `Quick test_availability_unrepairable;
          Alcotest.test_case "triggered" `Quick test_availability_triggered;
          Alcotest.test_case "analyze" `Quick test_availability_analyze;
          Alcotest.test_case "mixed static" `Quick test_availability_mixed_static;
          Alcotest.test_case "rejects unrepairable" `Quick
            test_availability_rejects_unrepairable_model;
        ] );
    ]
