(* Tests for the resource-governance layer: guards, failpoints, crash
   containment, and the graceful-degradation ladder of the analysis.

   The soundness invariant exercised throughout: however the analysis is
   degraded — expired deadline, simulated OOM, injected worker crashes —
   it must terminate normally and its certified interval
   [budget.lower, budget.upper] must still contain the exact
   product-semantics probability. *)

module Guard = Sdft_util.Guard
module Failpoint = Sdft_util.Failpoint

let with_failpoints spec f =
  Failpoint.configure_string spec;
  Fun.protect ~finally:Failpoint.clear_all f

(* Guard *)

let test_guard_none () =
  Alcotest.(check bool) "unlimited" true (Guard.unlimited Guard.none);
  Alcotest.(check bool) "status" true (Guard.status Guard.none = None);
  for _ = 1 to 10_000 do
    Guard.check Guard.none
  done;
  Guard.check_now Guard.none;
  Alcotest.(check bool) "remaining" true (Guard.remaining_s Guard.none = infinity)

let test_guard_deadline () =
  let g = Guard.create ~deadline:0.0 () in
  (* The deadline comparison is strict, so let the clock tick past it. *)
  ignore (Unix.select [] [] [] 0.002);
  Alcotest.(check bool) "tripped" true (Guard.status g = Some Guard.Deadline);
  Alcotest.(check bool) "negative remaining" true (Guard.remaining_s g <= 0.0);
  (match Guard.check_now g with
  | exception Guard.Limit_hit Guard.Deadline -> ()
  | _ -> Alcotest.fail "check_now should raise");
  let far = Guard.create ~deadline:3600.0 () in
  Alcotest.(check bool) "not tripped" true (Guard.status far = None);
  Guard.check_now far

let test_guard_check_is_amortized () =
  let g = Guard.create ~deadline:0.0 () in
  (* [check] probes only every ~4096 calls; it must still raise within a
     bounded number of iterations on an expired guard. *)
  let raised_at = ref 0 in
  (try
     for i = 1 to 10_000 do
       Guard.check g;
       raised_at := i
     done
   with Guard.Limit_hit Guard.Deadline -> ());
  if !raised_at >= 5_000 then
    Alcotest.failf "check never probed (ran %d iterations)" !raised_at

let test_guard_mem_limit () =
  let g = Guard.create ~mem_limit_mb:1 () in
  (* Force the major heap well past 1 MB. *)
  (* The ballast must stay live across the probe: once dead, the collector
     returns its pages to the OS and [heap_words] shrinks again. *)
  let ballast = Array.make (2 * 1024 * 1024) 0.0 in
  let st = Guard.status g in
  ignore (Sys.opaque_identity ballast);
  (match st with
  | Some Guard.Mem_limit -> ()
  | other ->
    Alcotest.failf "status %s with heap_words=%d"
      (match other with
      | None -> "none"
      | Some r -> Guard.reason_to_string r)
      (Gc.quick_stat ()).Gc.heap_words)

let test_guard_invalid_args () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative deadline" true
    (invalid (fun () -> Guard.create ~deadline:(-1.0) ()));
  Alcotest.(check bool) "zero ceiling" true
    (invalid (fun () -> Guard.create ~mem_limit_mb:0 ()))

(* Failpoint *)

let test_failpoint_nth () =
  Fun.protect ~finally:Failpoint.clear_all (fun () ->
      Failpoint.set "t.nth" ~trigger:(Failpoint.Nth 3) Failpoint.Raise;
      Failpoint.hit "t.nth";
      Failpoint.hit "t.nth";
      (match Failpoint.hit "t.nth" with
      | exception Failpoint.Injected "t.nth" -> ()
      | _ -> Alcotest.fail "3rd hit should fire");
      Failpoint.hit "t.nth";
      Alcotest.(check int) "hit count" 4 (Failpoint.hit_count "t.nth"))

let test_failpoint_prob_deterministic () =
  let firing () =
    Failpoint.set "t.prob"
      ~trigger:(Failpoint.Prob (0.5, 42))
      Failpoint.Raise;
    let fired = ref [] in
    for i = 1 to 100 do
      match Failpoint.hit "t.prob" with
      | () -> ()
      | exception Failpoint.Injected _ -> fired := i :: !fired
    done;
    !fired
  in
  Fun.protect ~finally:Failpoint.clear_all (fun () ->
      let a = firing () in
      let b = firing () in
      Alcotest.(check bool) "some fire" true (a <> []);
      Alcotest.(check bool) "some pass" true (List.length a < 100);
      Alcotest.(check (list int)) "deterministic" a b)

let test_failpoint_configure_string () =
  Fun.protect ~finally:Failpoint.clear_all (fun () ->
      Failpoint.configure_string "t.cfg=deadline@nth:2";
      Failpoint.hit "t.cfg";
      (match Failpoint.hit "t.cfg" with
      | exception Guard.Limit_hit Guard.Deadline -> ()
      | _ -> Alcotest.fail "2nd hit should raise Limit_hit Deadline"));
  (match Failpoint.configure_string "nonsense" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed spec should fail");
  match Failpoint.configure_string "a.b=explode" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown action should fail"

let test_failpoint_env () =
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SDFT_FAILPOINTS" "";
      Failpoint.clear_all ())
    (fun () ->
      Unix.putenv "SDFT_FAILPOINTS" "t.env=oom";
      Failpoint.load_env ();
      match Failpoint.hit "t.env" with
      | exception Out_of_memory -> ()
      | _ -> Alcotest.fail "env-armed site should fire")

(* Parallel crash containment *)

let test_map_init_result_contains () =
  let work = Array.init 10 Fun.id in
  let f () x = if x = 5 then failwith "poisoned" else x * x in
  List.iter
    (fun domains ->
      let r = Sdft_util.Parallel.map_init_result ~domains (fun () -> ()) f work in
      Array.iteri
        (fun i slot ->
          match slot with
          | Ok y when i <> 5 -> Alcotest.(check int) "value" (i * i) y
          | Error (Failure m, _) when i = 5 ->
            Alcotest.(check string) "message" "poisoned" m
          | Ok _ -> Alcotest.failf "slot %d should be Error" i
          | Error _ -> Alcotest.failf "slot %d should be Ok" i)
        r)
    [ 1; 4 ]

let test_map_init_result_failpoint () =
  with_failpoints "parallel.worker=raise@nth:1" (fun () ->
      let work = Array.init 8 Fun.id in
      let r =
        Sdft_util.Parallel.map_init_result ~domains:2
          (fun () -> ())
          (fun () x -> x + 1)
          work
      in
      let errors =
        Array.to_list r
        |> List.filter (function Error _ -> true | Ok _ -> false)
      in
      (* nth:1 fires on exactly the first hit of the site, wherever the
         scheduler sent it; it must be contained in that one slot. *)
      Alcotest.(check int) "one contained crash" 1 (List.length errors))

(* MOCUS degradation *)

let test_mocus_limit_folds_stack () =
  let tree = Pumps.static_tree () in
  with_failpoints "mocus.expand=deadline@nth:3" (fun () ->
      let r = Mocus.run ~guard:(Guard.create ~deadline:3600.0 ()) tree in
      Alcotest.(check bool) "limit recorded" true
        (r.Mocus.limit_hit = Some Guard.Deadline);
      (* The partials still on the stack were folded into the pruned mass,
         so the interval stays sound (and non-vacuous: truncated is about
         order bounds, not resource limits). *)
      Alcotest.(check bool) "mass folded" true (r.Mocus.pruned_mass > 0.0);
      Alcotest.(check bool) "not truncated" true (not r.Mocus.truncated));
  (* Without failpoints the same run is clean. *)
  let r = Mocus.run tree in
  Alcotest.(check bool) "clean" true (r.Mocus.limit_hit = None)

(* Analysis degradation ladder *)

(* The [mocus.expand] failpoint site and MOCUS's sound partial results
   under a limit only exist on the MOCUS engine, so the tests of those
   paths pin it instead of inheriting the default engine. *)
let mocus_options =
  { Sdft_analysis.default_options with engine = Sdft_analysis.Mocus_sound }

let interval_contains r exact =
  let lower = r.Sdft_analysis.budget.Sdft_analysis.lower in
  let upper = r.Sdft_analysis.budget.Sdft_analysis.upper in
  if not (lower <= exact +. 1e-9 && exact <= upper +. 1e-9) then
    Alcotest.failf "interval [%g, %g] misses exact %g" lower upper exact

let test_analyze_expired_deadline () =
  let sd = Pumps.sd_tree () in
  let exact = Sdft_product.solve sd ~horizon:24.0 in
  (* MOCUS finishes this small tree before its amortized guard probe fires,
     so the expired deadline reaches the quantification phase. *)
  let options = { mocus_options with deadline = Some 0.0 } in
  let r = Sdft_analysis.analyze ~options sd in
  Alcotest.(check bool) "degraded" true (Sdft_analysis.degraded r);
  let deadline_fallbacks =
    List.filter
      (fun info -> info.Sdft_analysis.degraded = Some Guard.Deadline)
      r.Sdft_analysis.cutsets
  in
  Alcotest.(check bool) "deadline fallbacks" true (deadline_fallbacks <> []);
  List.iter
    (fun info ->
      Alcotest.(check bool) "fallback flagged" true
        info.Sdft_analysis.used_fallback)
    deadline_fallbacks;
  interval_contains r exact;
  (* The summary leads with the DEGRADED banner. *)
  let summary = Format.asprintf "%a" Sdft_analysis.pp_summary r in
  Alcotest.(check bool) "banner" true
    (String.length summary >= 8 && String.sub summary 0 8 = "DEGRADED")

let test_analyze_generation_limit () =
  let sd = Pumps.sd_tree () in
  let exact = Sdft_product.solve sd ~horizon:24.0 in
  with_failpoints "mocus.expand=deadline@nth:3" (fun () ->
      let r = Sdft_analysis.analyze ~options:mocus_options sd in
      Alcotest.(check bool) "generation limit" true
        (r.Sdft_analysis.degradation.Sdft_analysis.generation_limit
        = Some Guard.Deadline);
      Alcotest.(check bool) "degraded" true (Sdft_analysis.degraded r);
      interval_contains r exact)

let test_analyze_transient_oom () =
  let sd = Pumps.sd_tree () in
  let exact = Sdft_product.solve sd ~horizon:24.0 in
  (* [always]: translation's per-event worst-case solves degrade to the
     trivial bound, and every dynamic cutset's product solve falls back. *)
  with_failpoints "transient.step=oom" (fun () ->
      let r = Sdft_analysis.analyze sd in
      let mem_fallbacks =
        List.filter
          (fun (reason, _) -> reason = Guard.Mem_limit)
          r.Sdft_analysis.degradation.Sdft_analysis.degraded_cutsets
      in
      Alcotest.(check bool) "mem fallback counted" true (mem_fallbacks <> []);
      interval_contains r exact)

let test_analyze_worker_crash_parallel () =
  let sd = Pumps.sd_tree () in
  let exact = Sdft_product.solve sd ~horizon:24.0 in
  with_failpoints "parallel.worker=raise@nth:1" (fun () ->
      let options = { Sdft_analysis.default_options with domains = 2 } in
      let r = Sdft_analysis.analyze ~options sd in
      let crashes =
        List.assoc_opt Guard.Worker_crash
          r.Sdft_analysis.degradation.Sdft_analysis.degraded_cutsets
      in
      Alcotest.(check (option int)) "one contained crash" (Some 1) crashes;
      interval_contains r exact)

let test_analyze_cache_crash_contained () =
  let sd = Pumps.sd_tree () in
  let exact = Sdft_product.solve sd ~horizon:24.0 in
  with_failpoints "cache.lookup=raise" (fun () ->
      let cache = Quant_cache.create () in
      let r = Sdft_analysis.analyze ~cache sd in
      let crashes =
        List.assoc_opt Guard.Worker_crash
          r.Sdft_analysis.degradation.Sdft_analysis.degraded_cutsets
      in
      Alcotest.(check bool) "crashes contained" true (crashes <> None);
      interval_contains r exact)

let test_delay_failpoints_preserve_results () =
  let sd = Pumps.sd_tree () in
  let baseline = Sdft_analysis.analyze ~options:mocus_options sd in
  with_failpoints
    "mocus.expand=delay:0.0002@nth:3,transient.step=delay:0.0001@nth:2"
    (fun () ->
      let r = Sdft_analysis.analyze ~options:mocus_options sd in
      (* Delays perturb timing only: every numerical output is bit-identical
         to the undisturbed run. *)
      Alcotest.(check bool) "total" true
        (r.Sdft_analysis.total = baseline.Sdft_analysis.total);
      Alcotest.(check bool) "upper" true
        (r.Sdft_analysis.budget.Sdft_analysis.upper
        = baseline.Sdft_analysis.budget.Sdft_analysis.upper);
      Alcotest.(check bool) "lower" true
        (r.Sdft_analysis.budget.Sdft_analysis.lower
        = baseline.Sdft_analysis.budget.Sdft_analysis.lower);
      Alcotest.(check int) "cutsets" baseline.Sdft_analysis.n_cutsets
        r.Sdft_analysis.n_cutsets;
      Alcotest.(check bool) "not degraded" true (not (Sdft_analysis.degraded r)))

let test_product_guard_limit () =
  let sd = Pumps.sd_tree () in
  with_failpoints "product.explore=mem@nth:2" (fun () ->
      match Sdft_product.build ~guard:(Guard.create ~deadline:3600.0 ()) sd with
      | exception Guard.Limit_hit Guard.Mem_limit -> ()
      | _ -> Alcotest.fail "exploration should hit the injected limit")

let test_failpoint_first () =
  Fun.protect ~finally:Failpoint.clear_all (fun () ->
      Failpoint.configure_string "t.first=raise@first:2";
      (* A transient fault: fires on hits 1..2, then heals for good. *)
      (match Failpoint.hit "t.first" with
      | exception Failpoint.Injected "t.first" -> ()
      | _ -> Alcotest.fail "1st hit should fire");
      (match Failpoint.hit "t.first" with
      | exception Failpoint.Injected "t.first" -> ()
      | _ -> Alcotest.fail "2nd hit should fire");
      Failpoint.hit "t.first";
      Failpoint.hit "t.first";
      Alcotest.(check int) "hit count" 4 (Failpoint.hit_count "t.first"))

(* ------------------------------------------------------------------ *)
(* Process-level chaos: kill -9 a checkpointed sweep mid-run, resume it,
   and demand output bit-identical to an uninterrupted run. *)

let sdft_bin = "../bin/main.exe"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Spawn the CLI with stdout redirected to [out]; [extra_env] entries
   replace same-named inherited variables. Returns the pid. *)
let spawn_cli ?(extra_env = []) args ~out =
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let overridden = List.map (fun kv -> String.sub kv 0 (String.index kv '=')) extra_env in
  let inherited =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           match String.index_opt kv '=' with
           | None -> true
           | Some i -> not (List.mem (String.sub kv 0 i) overridden))
  in
  let env = Array.of_list (inherited @ extra_env) in
  let pid =
    Unix.create_process_env sdft_bin
      (Array.of_list (sdft_bin :: args))
      env Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  pid

let run_cli ?extra_env args ~out =
  snd (Unix.waitpid [] (spawn_cli ?extra_env args ~out))

(* The numeric content of a sweep table: the printed (horizon,
   frequency, cutsets) columns of each data row. String equality on the
   printed representation is bit-identity at full printf precision. *)
let data_rows text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match
           String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
         with
         | h :: f :: c :: _ when float_of_string_opt h <> None ->
           Some (h ^ " " ^ f ^ " " ^ c)
         | _ -> None)

let test_chaos_sweep_kill9_resume () =
  if not (Sys.file_exists sdft_bin) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_file "sdft_chaos" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
    @@ fun () ->
    let path name = Filename.concat dir name in
    let model = path "pumps.sdft" in
    (match run_cli [ "gen"; "pumps"; "-o"; model ] ~out:(path "gen.out") with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "gen failed");
    let sweep = [ "sweep"; model; "--horizons"; "6,12,18" ] in
    let golden_out = path "golden.out" in
    (match run_cli sweep ~out:golden_out with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "golden sweep failed");
    let golden = data_rows (read_file golden_out) in
    Alcotest.(check int) "golden has 3 points" 3 (List.length golden);
    (* Interrupted pass: every point slowed to >= 0.45 s by a delay
       failpoint (delays never change results), then SIGKILL as soon as
       the first data row appears. A printed row means the point is
       already journaled: rows are emitted by the [on_point] hook, which
       runs after [record_point]. *)
    let ck = path "sweep.ckpt" in
    let killed_out = path "killed.out" in
    let pid =
      spawn_cli
        ~extra_env:[ "SDFT_FAILPOINTS=cache.lookup=delay:0.15" ]
        (sweep @ [ "--checkpoint"; ck ])
        ~out:killed_out
    in
    let deadline = Unix.gettimeofday () +. 60.0 in
    let rec poll () =
      if data_rows (read_file killed_out) <> [] then ()
      else if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "sweep produced no data row within 60 s"
      end
      else
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          ignore (Unix.select [] [] [] 0.01);
          poll ()
        | _ -> Alcotest.fail "sweep exited before producing a data row"
    in
    poll ();
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    (* Resume at full speed: journaled points are replayed, the rest
       recomputed, and the table is bit-identical to the golden run. *)
    let resumed_out = path "resumed.out" in
    (match run_cli (sweep @ [ "--checkpoint"; ck; "--resume" ]) ~out:resumed_out with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "resumed sweep failed");
    let resumed_text = read_file resumed_out in
    Alcotest.(check (list string)) "resume bit-identical to uninterrupted run"
      golden (data_rows resumed_text);
    Alcotest.(check bool) "at least one point served from the journal" true
      (contains resumed_text "(checkpointed)")
  end

(* Degradation soundness under randomized fault injection: whatever the
   failpoints do to the pipeline, the analysis must terminate and its
   certified interval must still contain the exact product-semantics
   probability. It deliberately runs on the default [Paper] relevant sets,
   whose dropped trigger paths no budget term covers: 11 of the seeds
   0..100000 (2270 the first) fail for that reason alone, with or without
   the failpoints (DESIGN.md, "A precision caveat in Section V-C"). *)
let prop_degraded_interval_sound =
  QCheck.Test.make ~name:"degraded certified interval contains exact value"
    ~count:30 Gen_sdft.seed_gen (fun seed ->
      let sd = Gen_sdft.sd seed in
      let exact = Sdft_product.solve sd ~horizon:3.0 in
      let spec =
        Printf.sprintf
          "transient.step=oom@prob:0.2:%d,mocus.expand=deadline@nth:%d"
          seed
          (20 + (seed mod 50))
      in
      with_failpoints spec (fun () ->
          let options = { mocus_options with horizon = 3.0 } in
          let r = Sdft_analysis.analyze ~options sd in
          let lower = r.Sdft_analysis.budget.Sdft_analysis.lower in
          let upper = r.Sdft_analysis.budget.Sdft_analysis.upper in
          lower <= exact +. 1e-9 && exact <= upper +. 1e-9))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "robustness"
    [
      ( "guard",
        [
          Alcotest.test_case "none" `Quick test_guard_none;
          Alcotest.test_case "deadline" `Quick test_guard_deadline;
          Alcotest.test_case "amortized check" `Quick test_guard_check_is_amortized;
          Alcotest.test_case "mem limit" `Quick test_guard_mem_limit;
          Alcotest.test_case "invalid args" `Quick test_guard_invalid_args;
        ] );
      ( "failpoint",
        [
          Alcotest.test_case "nth trigger" `Quick test_failpoint_nth;
          Alcotest.test_case "prob trigger" `Quick test_failpoint_prob_deterministic;
          Alcotest.test_case "configure string" `Quick test_failpoint_configure_string;
          Alcotest.test_case "env" `Quick test_failpoint_env;
          Alcotest.test_case "first:N transient trigger" `Quick
            test_failpoint_first;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "containment" `Quick test_map_init_result_contains;
          Alcotest.test_case "worker failpoint" `Quick test_map_init_result_failpoint;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "mocus stack fold" `Quick test_mocus_limit_folds_stack;
          Alcotest.test_case "expired deadline" `Quick test_analyze_expired_deadline;
          Alcotest.test_case "generation limit" `Quick test_analyze_generation_limit;
          Alcotest.test_case "transient oom" `Quick test_analyze_transient_oom;
          Alcotest.test_case "parallel worker crash" `Quick
            test_analyze_worker_crash_parallel;
          Alcotest.test_case "cache crash contained" `Quick
            test_analyze_cache_crash_contained;
          Alcotest.test_case "delay bit-identity" `Quick
            test_delay_failpoints_preserve_results;
          Alcotest.test_case "product limit" `Quick test_product_guard_limit;
        ]
        @ qc [ prop_degraded_interval_sound ] );
      ( "chaos",
        [
          Alcotest.test_case "kill -9 checkpointed sweep, resume bit-identical"
            `Quick test_chaos_sweep_kill9_resume;
        ] );
    ]
