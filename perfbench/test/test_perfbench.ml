(* Tests of the benchmark's own helpers: seeded inputs and mix are
   deterministic, and the rebuilt traced pipeline gives the program's
   analysis total bit for bit. *)

let model1 seed = Inputs.batch ~workload:"model1-dyn" ~seed

let test_inputs_deterministic () =
  Alcotest.(check string) "same seed, same text" (model1 5) (model1 5);
  Alcotest.(check bool) "other seed, other text" false (model1 5 = model1 6);
  Alcotest.(check string)
    "seed 0 is the preset" (model1 0)
    (Sdft_format.to_string (Inputs.model1_dyn ()))

let test_jitter_keeps_structure () =
  let a = Sdft_format.of_string (model1 0) and b = Sdft_format.of_string (model1 9) in
  Alcotest.(check int) "basic events" (Sdft.n_basics a) (Sdft.n_basics b);
  Alcotest.(check (list int)) "dynamic events" (Sdft.dynamic_basics a)
    (Sdft.dynamic_basics b);
  Alcotest.(check (list (pair int int))) "triggers" (Sdft.trigger_edges a)
    (Sdft.trigger_edges b)

let test_mix_deterministic () =
  let digest seed n = Inputs.mix_digest (Inputs.mix ~seed n) in
  Alcotest.(check string) "same seed, same stream" (digest 3 300) (digest 3 300);
  Alcotest.(check bool) "other seed, other stream" false (digest 3 300 = digest 4 300);
  Alcotest.(check string) "a prefix is the shorter stream" (digest 3 100)
    (Inputs.mix_digest (List.filteri (fun i _ -> i < 100) (Inputs.mix ~seed:3 300)));
  let reqs = Inputs.mix ~seed:3 900 in
  List.iter
    (fun kind ->
      let n = List.length (List.filter (fun r -> r.Inputs.kind = kind) reqs) in
      if n < 250 || n > 350 then
        Alcotest.failf "%s: %d of 900 requests" (Inputs.kind_name kind) n)
    [ Inputs.Repeat; Inputs.Pumps; Inputs.Variant ];
  let variants =
    List.filter_map
      (fun r -> if r.Inputs.kind = Inputs.Variant then Some r.Inputs.model_id else None)
      reqs
  in
  Alcotest.(check int) "every variant is new"
    (List.length variants)
    (List.length (List.sort_uniq compare variants))

(* The rebuilt pipeline against [Sdft_analysis.analyze], sharing one memo
   across analyses as the traced run does, so both the solve path and the
   memo-hit path are compared. *)
let test_pipeline_bit_identical () =
  let spans = Spans.create () and l = Pipeline.layers () in
  let memo = Hashtbl.create 64 in
  let reqs =
    List.filteri (fun i _ -> i < 12) (Inputs.mix ~seed:1 40)
    @ Inputs.mix ~seed:1 3
  in
  List.iter
    (fun (r : Inputs.request) ->
      let text = r.Inputs.model and horizon = r.Inputs.req_horizon in
      let o = Pipeline.run spans l memo ~text ~horizon in
      let ref_ = Pipeline.reference ~text ~horizon () in
      if not (Pipeline.same_float o.Pipeline.total ref_.Sdft_analysis.total) then
        Alcotest.failf "%s at %gh: rebuilt %h, analyze %h" r.Inputs.model_id
          horizon o.Pipeline.total ref_.Sdft_analysis.total;
      Alcotest.(check int) "one model per cutset" ref_.Sdft_analysis.n_cutsets
        (List.length o.Pipeline.models))
    reqs;
  Alcotest.(check bool) "memo was hit" true
    (Spans.count spans "product_build" < l.Pipeline.keyed);
  Alcotest.(check int) "a span per analysis" (List.length reqs)
    (Spans.count spans "analysis")

let test_same_float () =
  Alcotest.(check bool) "equal" true (Pipeline.same_float 0.1 0.1);
  Alcotest.(check bool) "one ulp apart" false
    (Pipeline.same_float 0.1 (Float.succ 0.1));
  Alcotest.(check bool) "signed zeros differ" false (Pipeline.same_float 0.0 (-0.0))

let test_spans_nest () =
  let s = Spans.create () in
  Spans.time s "outer" (fun () ->
      Spans.time s "inner" (fun () -> ());
      Spans.time s "inner" (fun () -> ()));
  Alcotest.(check int) "inner spans" 2 (Spans.count s "inner");
  Alcotest.(check bool) "outer covers inner" true
    (Spans.total s "outer" >= Spans.total s "inner")

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded inputs are deterministic" `Quick
            test_inputs_deterministic;
          Alcotest.test_case "jitter keeps the structure" `Quick
            test_jitter_keeps_structure;
          Alcotest.test_case "seeded mix is deterministic" `Quick
            test_mix_deterministic;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "rebuilt total is bit-identical" `Quick
            test_pipeline_bit_identical;
          Alcotest.test_case "float identity is bitwise" `Quick test_same_float;
          Alcotest.test_case "spans nest" `Quick test_spans_nest;
        ] );
    ]
