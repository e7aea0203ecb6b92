(* sdft — command-line front end for the SD fault tree toolkit. *)

open Cmdliner

(* Exit discipline: 2 = bad input (unparseable model, missing file), 1 = the
   analysis itself reached a failing verdict (disjoint verification
   intervals, --on-limit=fail degradation, unusable model). Raised instead
   of calling [exit] directly so that the [Fun.protect] finalizers of
   [with_observability] still flush the --metrics/--trace dumps on the way
   out — [exit] does not unwind the stack. *)
exception Exit_code of int

let load_model path =
  try
    if Filename.check_suffix path ".xml" then
      Ok (Sdft.static_only (Open_psa.of_file path))
    else Ok (Sdft_format.of_file path)
  with
  | Sdft_format.Error m -> Error m
  | Open_psa.Error m -> Error m
  | Sys_error m -> Error m
  | Failure m -> Error m
  | Invalid_argument m -> Error m

let or_die = function
  | Ok v -> v
  | Error m ->
    Printf.eprintf "sdft: %s\n" m;
    raise (Exit_code 2)

(* Shared arguments. *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Model file (SD fault tree text format).")

let horizon_arg =
  Arg.(value & opt float 24.0 & info [ "horizon"; "t" ] ~docv:"HOURS" ~doc:"Analysis horizon in hours.")

let cutoff_arg =
  Arg.(value & opt float 1e-15 & info [ "cutoff"; "c" ] ~docv:"P" ~doc:"Probabilistic cutoff $(i,c*) for cutset generation.")

(* Observability: every analysis-flavoured subcommand accepts the same
   [--metrics FILE] / [--metrics-format] / [--trace FILE] / [--progress]
   quartet.  Tracing is enabled before the command body runs (the library's
   spans are no-ops otherwise) and both dumps are written on the way out,
   even if the body raises.  The body receives an {!Sdft_util.Obs.t} built
   on the process-default registries — identical instrumentation routing to
   the pre-context CLI — optionally carrying a live stderr progress
   reporter; results are bit-identical either way. *)

type observability = {
  obs_metrics : string option;
  obs_format : Sdft_util.Metrics.format;
  obs_trace : string option;
  obs_progress : bool;
}

let observability_term =
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc:"Dump internal counters, span timers and histograms to $(docv) on exit (format per $(b,--metrics-format)).")
  in
  let format =
    Arg.(value
         & opt (enum [ ("json", Sdft_util.Metrics.Json_format);
                       ("prom", Sdft_util.Metrics.Prom_format) ])
             Sdft_util.Metrics.Json_format
         & info [ "metrics-format" ] ~docv:"FMT" ~doc:"Format of the $(b,--metrics) dump: $(b,json) (default) or $(b,prom) (Prometheus text exposition 0.0.4: counters, gauges, spans as summaries, histograms with cumulative $(i,le) buckets).")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Record hierarchical trace spans and write them to $(docv) on exit ($(b,.json) selects the Chrome trace-event format, anything else JSONL).")
  in
  let progress =
    Arg.(value & flag & info [ "progress" ] ~doc:"Live one-line progress reporter on stderr: phase, cutsets done/total, cost-weighted ETA, elapsed time and peak heap. Purely observational — results are bit-identical with and without it.")
  in
  Term.(const (fun obs_metrics obs_format obs_trace obs_progress ->
            { obs_metrics; obs_format; obs_trace; obs_progress })
        $ metrics $ format $ trace $ progress)

let with_observability obs f =
  if obs.obs_trace <> None then Sdft_util.Trace.set_enabled true;
  let ctx =
    if obs.obs_progress then
      Sdft_util.Obs.with_progress Sdft_util.Obs.default
        (Sdft_util.Progress.create ())
    else Sdft_util.Obs.default
  in
  let write () =
    Sdft_util.Obs.finish_progress ctx;
    (match obs.obs_metrics with
    | None -> ()
    | Some path -> (
      try Sdft_util.Metrics.write_file ~format:obs.obs_format path
      with Sys_error m -> Printf.eprintf "sdft: %s\n" m));
    match obs.obs_trace with
    | None -> ()
    | Some path -> (
      try Sdft_util.Trace.write_file path
      with Sys_error m -> Printf.eprintf "sdft: %s\n" m)
  in
  Fun.protect ~finally:write (fun () -> f ctx)

(* Resource governance: analysis-flavoured subcommands accept the same
   --deadline / --mem-limit-mb / --on-limit triple. *)

type resource = {
  res_deadline : float option;
  res_mem_mb : int option;
  res_fail : bool; (* --on-limit=fail: degraded results exit nonzero *)
}

let resource_term =
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Wall-clock budget for the analysis. When it expires the analysis degrades gracefully (conservative bounds, DEGRADED banner) instead of running on.")
  in
  let mem =
    Arg.(value & opt (some int) None & info [ "mem-limit-mb" ] ~docv:"MB" ~doc:"Major-heap ceiling in megabytes; exceeded means degrade, like $(b,--deadline).")
  in
  let on_limit =
    Arg.(value & opt (enum [ ("degrade", false); ("fail", true) ]) false
         & info [ "on-limit" ] ~docv:"POLICY" ~doc:"What a degraded result means for the exit status: $(b,degrade) (default) exits 0 with the DEGRADED banner, $(b,fail) exits 1.")
  in
  Term.(const (fun res_deadline res_mem_mb res_fail ->
            { res_deadline; res_mem_mb; res_fail })
        $ deadline $ mem $ on_limit)

(* The guard doubles as the progress heartbeat: a --progress run without
   limits still gets a (passive) guard whose probe drives the reporter. *)
let guard_of_resource ctx res =
  match (res.res_deadline, res.res_mem_mb, Sdft_util.Obs.on_probe ctx) with
  | None, None, None -> Sdft_util.Guard.none
  | deadline, mem_limit_mb, on_probe ->
    Sdft_util.Guard.create ?deadline ?mem_limit_mb ?on_probe ()

(* For subcommands that drive MOCUS directly: report an interrupted
   generation and apply the --on-limit policy. *)
let warn_generation_limit res (generation : Mocus.result) =
  match generation.Mocus.limit_hit with
  | None -> ()
  | Some r ->
    Printf.eprintf
      "sdft: DEGRADED: cutset generation stopped early (%s); results cover \
       only the cutsets generated before the limit\n"
      (Sdft_util.Guard.reason_to_string r);
    if res.res_fail then raise (Exit_code 1)

let check_on_limit_fail res result =
  if res.res_fail && Sdft_analysis.degraded result then begin
    Printf.eprintf "sdft: analysis degraded (%s) and --on-limit=fail is set\n"
      (Sdft_analysis.degradation_description result);
    raise (Exit_code 1)
  end

(* Persistent quantification cache: the analysis-flavoured subcommands
   share one [--cache FILE] option (env: SDFT_CACHE). The store is opened
   before the command body and flushed/closed on the way out, even if the
   body raises; IO trouble degrades to memory-only silently here and
   visibly through [report_disk_cache]. *)

let cache_arg =
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"FILE" ~env:(Cmd.Env.info "SDFT_CACHE")
           ~doc:"Persistent cross-run quantification cache: warm-start from \
                 $(docv) (created if absent) and append fresh solves to it on \
                 exit. A corrupted tail or a file written by a different \
                 solver build is ignored (and rewritten); when another \
                 process holds the writer lock the file is shared \
                 read-only.")

let with_disk_cache path_opt f =
  match path_opt with
  | None -> f None
  | Some path ->
    let cache = Quant_cache.open_disk path in
    Fun.protect
      ~finally:(fun () ->
        try Quant_cache.close cache
        with Sys_error m -> Printf.eprintf "sdft: cache: %s\n" m)
      (fun () -> f (Some cache))

let report_disk_cache cache =
  match Quant_cache.disk_stats cache with
  | None -> ()
  | Some s ->
    Printf.printf
      "disk cache: %s%s — %d entries loaded (%.1f ms), %d disk hits / %d \
       disk misses, %d appended\n"
      s.Quant_cache.disk_path
      (if s.Quant_cache.read_only then " (read-only)" else "")
      s.Quant_cache.entries_loaded s.Quant_cache.load_ms
      s.Quant_cache.disk_hits s.Quant_cache.disk_misses s.Quant_cache.appends;
    (match s.Quant_cache.disk_error with
    | Some e ->
      Printf.eprintf "sdft: cache degraded to memory-only: %s\n" e
    | None -> ())

let engine_arg =
  Arg.(value
       & opt
           (enum
              (List.map
                 (fun e -> (Sdft_analysis.engine_name e, e))
                 Sdft_analysis.engines))
           Sdft_analysis.default_options.Sdft_analysis.engine
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Cutset engine: $(b,zdd) (modular ZDD weighted counting, \
                 exact residual-mass accounting) or $(b,mocus) (the paper's \
                 algorithm; its pruned mass is an upper bound).")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"N" ~doc:"Worker domains for cutset quantification.")

(* analyze *)

let analyze_cmd =
  let run file horizon cutoff top_n show_histogram show_budget engine domains
      cache_path save_path diff_path res obs =
    with_observability obs (fun ctx ->
        with_disk_cache cache_path (fun disk_cache ->
        let sd = or_die (load_model file) in
        let options =
          {
            Sdft_analysis.default_options with
            horizon;
            cutoff;
            engine;
            domains;
            deadline = res.res_deadline;
            mem_limit_mb = res.res_mem_mb;
          }
        in
        (* --save/--diff need a cache even without --cache: --save exports
           its entries into the manifest, --diff seeds them back so only
           changed-fingerprint cutsets re-solve. *)
        let cache =
          match disk_cache with
          | Some c -> Some c
          | None ->
            if save_path <> None || diff_path <> None then
              Some (Quant_cache.create ())
            else None
        in
        let old_manifest =
          Option.map (fun p -> or_die (Manifest.load p)) diff_path
        in
        (match (old_manifest, cache) with
        | Some m, Some c ->
          if Manifest.stamp_matches m then
            ignore (Quant_cache.seed c m.Manifest.cache_entries)
          else
            Printf.eprintf
              "sdft: note: manifest %s was written by a different solver \
               build; its cached results are not trusted, every dynamic \
               cutset re-solves\n"
              (Option.get diff_path)
        | _ -> ());
        let result = Sdft_analysis.analyze ~options ?cache ~obs:ctx sd in
        Format.printf "%a@." Sdft_analysis.pp_summary result;
        if show_budget then Format.printf "%a@." Sdft_analysis.pp_budget result;
        if show_histogram then begin
          print_endline "dynamic events per minimal cutset:";
          Sdft_util.Histogram.print_ascii
            (Sdft_analysis.dynamic_histogram result)
        end;
        if top_n > 0 then begin
          Printf.printf "top %d cutsets:\n" top_n;
          let tree = Sdft.tree sd in
          List.iteri
            (fun i (info : Sdft_analysis.cutset_info) ->
              if i < top_n then
                Format.printf "  %.3e  %a  (%d dynamic, %d states)@."
                  info.probability (Cutset.pp tree) info.cutset info.n_dynamic
                  info.product_states)
            result.cutsets
        end;
        (match old_manifest with
        | Some m ->
          Format.printf "%a@." Manifest.pp_diff (Manifest.diff m sd result)
        | None -> ());
        (match save_path with
        | Some path ->
          Manifest.save path (Manifest.of_result ?cache sd options result);
          Printf.printf "manifest saved to %s\n" path
        | None -> ());
        (match cache with Some c -> report_disk_cache c | None -> ());
        check_on_limit_fail res result))
  in
  let top_n =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Print the $(docv) most important cutsets (0 disables).")
  in
  let histogram =
    Arg.(value & flag & info [ "histogram" ] ~doc:"Print the dynamic-events-per-cutset histogram (Figure 2).")
  in
  let budget =
    Arg.(value & flag & info [ "budget" ] ~doc:"Print the itemized error budget behind the certified interval.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc:"Save the result as a JSON manifest (parameters, certified interval, per-cutset quantifications, warm-start cache entries) for later $(b,--diff).")
  in
  let diff =
    Arg.(value & opt (some string) None & info [ "diff" ] ~docv:"FILE" ~doc:"Differential re-analysis against a manifest saved with $(b,--save): warm-start from its cache entries so only cutsets whose canonical fingerprints changed re-solve, then report which cutsets moved the certified interval and by how much.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the full SD fault tree analysis (Section V).")
    Term.(const run $ file_arg $ horizon_arg $ cutoff_arg $ top_n $ histogram $ budget $ engine_arg $ domains_arg $ cache_arg $ save $ diff $ resource_term $ observability_term)

(* explain *)

let explain_cmd =
  let run file horizon cutoff top_n spans_n engine domains cache_path res obs =
    with_observability obs (fun ctx ->
        with_disk_cache cache_path (fun disk_cache ->
        (* Tracing is always on inside [explain]: the top-spans section needs
           it even when no --trace file was requested. *)
        Sdft_util.Trace.set_enabled true;
        let sd = or_die (load_model file) in
        let options =
          {
            Sdft_analysis.default_options with
            horizon;
            cutoff;
            engine;
            domains;
            deadline = res.res_deadline;
            mem_limit_mb = res.res_mem_mb;
          }
        in
        let cache =
          match disk_cache with
          | Some c -> c
          | None -> Quant_cache.create ()
        in
        let result = Sdft_analysis.analyze ~options ~cache ~obs:ctx sd in
        let tree = Sdft.tree sd in
        Format.printf "%a@.@." Sdft_analysis.pp_summary result;
        Format.printf "%a@.@." Sdft_analysis.pp_budget result;
        let report = Sdft_classify.report sd in
        if report.Sdft_classify.per_trigger_gate <> [] then
          Format.printf "%a@.@." (Sdft_classify.pp_report sd) report;
        let shown = min top_n result.Sdft_analysis.n_cutsets in
        Printf.printf "top %d of %d cutsets (by contribution):\n" shown
          result.Sdft_analysis.n_cutsets;
        Printf.printf "%12s %7s %4s %8s %9s %7s %6s %9s  %s\n" "p~(C)"
          "share" "dyn" "states" "trans" "steps" "cache" "time" "cutset";
        List.iteri
          (fun i (info : Sdft_analysis.cutset_info) ->
            if i < top_n then begin
              let share =
                if result.Sdft_analysis.total > 0.0 then
                  100.0 *. info.probability /. result.Sdft_analysis.total
                else 0.0
              in
              Format.printf "%12.3e %6.2f%% %4d %8d %9d %7d %6s %9s  %a@."
                info.probability share info.n_dynamic info.product_states
                info.product_transitions info.solver_steps
                (* Degraded cutsets show the reason for their worst-case
                   fallback where exact solves show cache provenance. *)
                (match info.degraded with
                 | Some Sdft_util.Guard.Deadline -> "ddl!"
                 | Some Sdft_util.Guard.Mem_limit -> "mem!"
                 | Some Sdft_util.Guard.State_limit -> "state!"
                 | Some Sdft_util.Guard.Worker_crash -> "crash!"
                 | None ->
                   if info.used_fallback then "fall!"
                   else if info.from_cache then "hit"
                   else if info.product_states > 0 then "miss"
                   else "-")
                (Format.asprintf "%a" Sdft_util.Timer.pp_duration
                   info.solve_seconds)
                (Cutset.pp tree) info.cutset
            end)
          result.Sdft_analysis.cutsets;
        Printf.printf "\nquantification cache: %d hits / %d misses\n"
          (Quant_cache.hits cache) (Quant_cache.misses cache);
        report_disk_cache cache;
        let spans = Sdft_util.Trace.aggregate () in
        if spans <> [] then begin
          Printf.printf "\ntop trace spans (by total time):\n";
          Printf.printf "%-28s %8s %12s\n" "span" "count" "total";
          List.iteri
            (fun i (name, (count, total)) ->
              if i < spans_n then
                Format.printf "%-28s %8d %12s@." name count
                  (Format.asprintf "%a" Sdft_util.Timer.pp_duration total))
            spans
        end;
        let histograms =
          List.filter
            (fun (_, h) -> h.Sdft_util.Metrics.count > 0)
            (Sdft_util.Metrics.snapshot ()).Sdft_util.Metrics.histograms
        in
        if histograms <> [] then begin
          Printf.printf "\nlatency/throughput histograms (bucket quantiles):\n";
          Printf.printf "%-28s %8s %11s %11s %11s\n" "histogram" "count"
            "p50" "p90" "p99";
          List.iter
            (fun (name, h) ->
              let q p = Sdft_util.Metrics.hist_quantile h p in
              Printf.printf "%-28s %8d %11.3e %11.3e %11.3e\n" name
                h.Sdft_util.Metrics.count (q 0.5) (q 0.9) (q 0.99))
            histograms
        end;
        check_on_limit_fail res result))
  in
  let top_n =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Rows of the per-cutset provenance table (0 disables).")
  in
  let spans_n =
    Arg.(value & opt int 10 & info [ "spans" ] ~docv:"N" ~doc:"Rows of the top-trace-spans table.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Account for an analysis result: per-cutset provenance (contribution, chain sizes, solver effort, cache traffic, degradation), the error budget behind the certified interval, and the top trace spans.")
    Term.(const run $ file_arg $ horizon_arg $ cutoff_arg $ top_n $ spans_n $ engine_arg $ domains_arg $ cache_arg $ resource_term $ observability_term)

(* sweep *)

let sweep_cmd =
  let print_header () =
    Printf.printf "%10s %14s %9s %11s %11s\n" "horizon" "frequency" "cutsets"
      "cache-hits" "cache-miss"
  in
  (* Rows are flushed as they complete so a killed sweep leaves a readable
     prefix on the terminal to match the checkpoint journal's state. *)
  let print_item = function
    | Sdft_analysis.Sweep_run p ->
      Printf.printf "%10g %14.6e %9d %11d %11d\n%!"
        p.Sdft_analysis.sweep_options.Sdft_analysis.horizon
        p.Sdft_analysis.sweep_result.Sdft_analysis.total
        p.Sdft_analysis.sweep_result.Sdft_analysis.n_cutsets
        p.Sdft_analysis.cache_hits p.Sdft_analysis.cache_misses
    | Sdft_analysis.Sweep_skipped pt ->
      Printf.printf "%10g %14.6e %9d %11d %11d (checkpointed)\n%!"
        pt.Checkpoint.pt_horizon pt.Checkpoint.pt_total
        pt.Checkpoint.pt_n_cutsets 0 0
  in
  let item_degradation = function
    | Sdft_analysis.Sweep_run p ->
      if Sdft_analysis.degraded p.Sdft_analysis.sweep_result then
        Some
          ( p.Sdft_analysis.sweep_options.Sdft_analysis.horizon,
            Sdft_analysis.degradation_description
              p.Sdft_analysis.sweep_result )
      else None
    | Sdft_analysis.Sweep_skipped pt ->
      Option.map
        (fun d -> (pt.Checkpoint.pt_horizon, d))
        pt.Checkpoint.pt_degraded
  in
  let finish_sweep res items cache =
    Printf.printf "cache: %d hits / %d misses\n" (Quant_cache.hits cache)
      (Quant_cache.misses cache);
    report_disk_cache cache;
    let degradations = List.filter_map item_degradation items in
    List.iter
      (fun (h, d) -> Printf.printf "DEGRADED at horizon %g: %s\n" h d)
      degradations;
    if res.res_fail && degradations <> [] then begin
      Printf.eprintf "sdft: sweep degraded and --on-limit=fail is set\n";
      raise (Exit_code 1)
    end
  in
  let run file horizons cutoff engine domains cache_path ckpt_path resume res
      obs =
    with_observability obs (fun ctx ->
        with_disk_cache cache_path (fun disk_cache ->
        let sd = or_die (load_model file) in
        let option_sets =
          List.map
            (fun horizon ->
              {
                Sdft_analysis.default_options with
                horizon;
                cutoff;
                engine;
                domains;
                deadline = res.res_deadline;
                mem_limit_mb = res.res_mem_mb;
              })
            horizons
        in
        match ckpt_path with
        | None ->
          if resume then
            or_die (Error "--resume needs --checkpoint FILE");
          let points, cache =
            Sdft_analysis.sweep ?cache:disk_cache ~obs:ctx sd option_sets
          in
          print_header ();
          List.iter (fun p -> print_item (Sdft_analysis.Sweep_run p)) points;
          finish_sweep res
            (List.map (fun p -> Sdft_analysis.Sweep_run p) points)
            cache
        | Some path ->
          let journal =
            try Checkpoint.open_ path with
            | Sys_error m | Failure m ->
              or_die (Error (Printf.sprintf "checkpoint %s: %s" path m))
            | Unix.Unix_error (e, _, _) ->
              or_die
                (Error
                   (Printf.sprintf "checkpoint %s: %s" path
                      (Unix.error_message e)))
          in
          Fun.protect
            ~finally:(fun () ->
              try Checkpoint.close journal
              with Sys_error m ->
                Printf.eprintf "sdft: checkpoint: %s\n" m)
            (fun () ->
              print_header ();
              let items, cache =
                Sdft_analysis.sweep_checkpointed ?cache:disk_cache ~obs:ctx
                  ~journal ~resume ~on_point:print_item sd option_sets
              in
              (match Checkpoint.journal_error journal with
              | Some m ->
                Printf.eprintf
                  "sdft: checkpoint degraded (results unaffected): %s\n" m
              | None -> ());
              finish_sweep res items cache)))
  in
  let horizons =
    Arg.(value & opt (list float) [ 8.0; 24.0; 72.0 ]
         & info [ "horizons" ] ~docv:"H1,H2,.." ~doc:"Comma-separated analysis horizons in hours.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Append a crash-safe journal record to $(docv) after every \
                   completed sweep point (and after every fresh \
                   quantification), so a killed sweep can be finished with \
                   $(b,--resume) instead of recomputed. The journal uses the \
                   same CRC-framed store format as $(b,--cache); a torn tail \
                   from a crash is truncated away on reopen.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume from the $(b,--checkpoint) journal: sweep points \
                   already certified there are printed from the journal \
                   (marked $(i,checkpointed)) without re-analysis, cached \
                   quantifications are warm-started, and only unfinished \
                   points run. The completed output is bit-identical to an \
                   uninterrupted run.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Analyze one model over several horizons, sharing the quantification cache across points.")
    Term.(const run $ file_arg $ horizons $ cutoff_arg $ engine_arg $ domains_arg $ cache_arg $ checkpoint $ resume $ resource_term $ observability_term)

(* mcs *)

let mcs_cmd =
  let run file cutoff engine horizon cache_path res obs =
    with_observability obs (fun ctx ->
        (* mcs performs no quantification, so the cache sees no traffic; the
           option is still honoured (uniform interface, and SDFT_CACHE can
           stay exported across a whole pipeline run: opening repairs a torn
           tail and validates the stamp). *)
        with_disk_cache cache_path (fun _disk_cache ->
        let sd = or_die (load_model file) in
        let guard = guard_of_resource ctx res in
        let translation = Sdft_translate.translate sd ~horizon in
        let tree = translation.Sdft_translate.static_tree in
        Sdft_util.Obs.begin_phase ctx "generation" ();
        let generation =
          Sdft_analysis.generate_cutsets ~cutoff ~guard ~obs:ctx engine tree
        in
        (match generation.Mocus.limit_hit with
        | Some r when generation.Mocus.truncated && generation.Mocus.cutsets = []
          ->
          (* Unlike MOCUS, an interrupted ZDD compilation has no sound
             partial cutset list to print. *)
          Printf.eprintf
            "sdft: %s cutset generation hit the %s; rerun with a larger \
             budget or --engine mocus\n"
            (Sdft_analysis.engine_name engine)
            (Sdft_util.Guard.reason_to_string r);
          raise (Exit_code 1)
        | _ -> warn_generation_limit res generation);
        let cutsets = generation.Mocus.cutsets in
        Printf.printf "%d minimal cutsets (engine: %s)\n" (List.length cutsets)
          (Sdft_analysis.engine_name engine);
        if generation.Mocus.pruned_mass > 0.0 then
          Printf.printf "mass below cutoff/order bounds: %.3e%s\n"
            generation.Mocus.pruned_mass
            (if engine = Sdft_analysis.Zdd_engine then " (exact)"
             else " (upper bound)");
        List.iter
          (fun c ->
            Format.printf "%.3e  %a@." (Cutset.probability tree c)
              (Cutset.pp tree) c)
          (Cutset.sort_by_probability tree cutsets)))
  in
  Cmd.v
    (Cmd.info "mcs" ~doc:"Generate minimal cutsets of the translated static tree.")
    Term.(const run $ file_arg $ cutoff_arg $ engine_arg $ horizon_arg $ cache_arg $ resource_term $ observability_term)

(* classify *)

let classify_cmd =
  let run file =
    let sd = or_die (load_model file) in
    let report = Sdft_classify.report sd in
    Format.printf "%a@." (Sdft_classify.pp_report sd) report
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify every triggering gate (static branching / static joins / general).")
    Term.(const run $ file_arg)

(* simulate *)

let simulate_cmd =
  let run file horizon trials seed method_ domains batch bias no_forcing
      rel_error level verify cutoff engine cache_path obs =
    with_observability obs (fun ctx ->
        with_disk_cache cache_path (fun disk_cache ->
        let sd = or_die (load_model file) in
        let z =
          match level with
          | `P90 -> 1.6448536269514722
          | `P95 -> Rare_event.z95
          | `P99 -> Rare_event.z99
        in
        let pct = match level with `P90 -> 90 | `P95 -> 95 | `P99 -> 99 in
        let lo, hi =
          match method_ with
          | `Crude ->
            let stats = Simulator.unreliability ~seed sd ~horizon ~trials in
            let lo, hi = Simulator.wilson_interval ~z stats in
            Printf.printf
              "method: crude Monte-Carlo\n\
               failures: %d / %d\n\
               estimate: %.4e (%d%% Wilson CI [%.4e, %.4e])\n"
              stats.Simulator.failures stats.Simulator.trials
              stats.Simulator.estimate pct lo hi;
            (lo, hi)
          | `Is ->
            let options =
              {
                Rare_event.default_options with
                trials;
                seed;
                domains;
                batch;
                static_bias = bias;
                forcing = not no_forcing;
                target_rel_error = rel_error;
              }
            in
            let e = Rare_event.run ~options ~obs:ctx sd ~horizon in
            let lo, hi = Rare_event.confidence ~z e in
            Printf.printf
              "method: importance sampling (%s, static bias x%g)\n\
               trials: %d (hits: %d)\n\
               estimate: %.4e (%d%% CI [%.4e, %.4e])\n\
               std error: %.3e (rel %.2e)\n\
               mean likelihood weight: %.4f\n"
              (if no_forcing then "no forcing" else "forcing")
              bias e.Rare_event.trials e.Rare_event.hits
              e.Rare_event.estimate pct lo hi e.Rare_event.std_error
              e.Rare_event.rel_error e.Rare_event.mean_weight;
            (match Rare_event.variance_reduction e with
            | Some f -> Printf.printf "variance reduction vs crude MC: %.3gx\n" f
            | None -> ());
            (lo, hi)
        in
        if verify then begin
          let options =
            { Sdft_analysis.default_options with horizon; cutoff; engine }
          in
          (* The verification side is an ordinary analysis, so a warm
             persistent cache makes repeated cross-checks nearly free. *)
          let result =
            Sdft_analysis.analyze ~options ?cache:disk_cache ~obs:ctx sd
          in
          let check = Sdft_analysis.verify_sim result ~sim_ci:(lo, hi) in
          Printf.printf "analytic rare-event total: %.4e\n"
            result.Sdft_analysis.total;
          Format.printf "%a@." Sdft_analysis.pp_sim_check check;
          (match disk_cache with
          | Some c -> report_disk_cache c
          | None -> ());
          if not check.Sdft_analysis.overlaps then raise (Exit_code 1)
        end))
  in
  let trials =
    Arg.(value & opt int 100_000 & info [ "trials"; "n" ] ~docv:"N" ~doc:"Number of Monte-Carlo trials.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.") in
  let method_ =
    Arg.(value & opt (enum [ ("is", `Is); ("crude", `Crude) ]) `Is
         & info [ "method" ] ~docv:"METHOD" ~doc:"$(b,is) (rare-event importance sampling, the default) or $(b,crude) (plain Monte-Carlo).")
  in
  let batch =
    Arg.(value & opt int 4096 & info [ "batch" ] ~docv:"N" ~doc:"Trials per RNG stream (importance sampling).")
  in
  let bias =
    Arg.(value & opt float 50.0 & info [ "bias" ] ~docv:"F" ~doc:"Multiplicative failure-biasing boost of static probabilities; 1 disables.")
  in
  let no_forcing =
    Arg.(value & flag & info [ "no-forcing" ] ~doc:"Disable forcing (truncated-exponential conditioning of jump times).")
  in
  let rel_error =
    Arg.(value & opt (some float) None & info [ "target-rel-error" ] ~docv:"R" ~doc:"Stop early once the relative standard error falls below $(docv).")
  in
  let level =
    Arg.(value & opt (enum [ ("90", `P90); ("95", `P95); ("99", `P99) ]) `P95
         & info [ "level" ] ~docv:"PCT" ~doc:"Confidence level of the reported interval: 90, 95 or 99.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Also run the analytic pipeline and check that the simulation CI overlaps its certified budget interval; exit 1 when the intervals are disjoint.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Statistical estimate of the failure probability (full SD semantics): rare-event importance sampling or crude Monte-Carlo, optionally cross-checked against the analytic certified interval.")
    Term.(const run $ file_arg $ horizon_arg $ trials $ seed $ method_ $ domains_arg $ batch $ bias $ no_forcing $ rel_error $ level $ verify $ cutoff_arg $ engine_arg $ cache_arg $ observability_term)

(* exact *)

let exact_cmd =
  let run file horizon max_states res obs =
    with_observability obs (fun ctx ->
        let sd = or_die (load_model file) in
        let guard = guard_of_resource ctx res in
        Sdft_util.Obs.begin_phase ctx "exact" ();
        match Sdft_product.solve ~max_states ~guard ~obs:ctx sd ~horizon with
        | p -> Printf.printf "p(FT, %gh) = %.6e\n" horizon p
        | exception Sdft_product.Too_many_states n ->
          Printf.eprintf
            "sdft: product state space exceeds %d states; use 'analyze' or 'simulate'\n"
            n;
          raise (Exit_code 1)
        | exception Sdft_util.Guard.Limit_hit r ->
          (* Exact semantics cannot degrade — a partial product chain is
             not a bound on anything. *)
          Printf.eprintf
            "sdft: exact analysis hit the %s; use 'analyze' (which degrades \
             gracefully) or 'simulate'\n"
            (Sdft_util.Guard.reason_to_string r);
          raise (Exit_code 1))
  in
  let max_states =
    Arg.(value & opt int 1_000_000 & info [ "max-states" ] ~docv:"N" ~doc:"State-space safety limit.")
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact failure probability via the full product Markov chain (small models only).")
    Term.(const run $ file_arg $ horizon_arg $ max_states $ resource_term $ observability_term)

(* translate *)

let translate_cmd =
  let run file horizon =
    let sd = or_die (load_model file) in
    let translation = Sdft_translate.translate sd ~horizon in
    print_string
      (Sdft_format.to_string (Sdft.static_only translation.Sdft_translate.static_tree))
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Print the static fault tree with equivalent minimal cutsets (Section V-B).")
    Term.(const run $ file_arg $ horizon_arg)

(* importance *)

let importance_cmd =
  let run file cutoff horizon top_n res obs =
    with_observability obs (fun ctx ->
        let sd = or_die (load_model file) in
        let translation = Sdft_translate.translate sd ~horizon in
        let tree = translation.Sdft_translate.static_tree in
        let options = { Mocus.default_options with cutoff } in
        Sdft_util.Obs.begin_phase ctx "generation" ();
        let generation =
          Mocus.run ~options ~guard:(guard_of_resource ctx res) ~obs:ctx tree
        in
        warn_generation_limit res generation;
        let cutsets = generation.Mocus.cutsets in
        let imp = Importance.compute tree cutsets in
        Printf.printf "%-30s %12s %12s %10s %10s\n" "event" "FV" "Birnbaum"
          "RAW" "RRW";
        List.iteri
          (fun i a ->
            if i < top_n then
              Printf.printf "%-30s %12.4e %12.4e %10.3f %10.3f\n"
                (Fault_tree.basic_name tree a)
                (Importance.fussell_vesely imp a)
                (Importance.birnbaum imp a) (Importance.raw imp a)
                (Importance.rrw imp a))
          (Importance.rank_by_fussell_vesely imp))
  in
  let top_n =
    Arg.(value & opt int 25 & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) most important events.")
  in
  Cmd.v
    (Cmd.info "importance" ~doc:"Importance measures (Fussell-Vesely, Birnbaum, RAW, RRW).")
    Term.(const run $ file_arg $ cutoff_arg $ horizon_arg $ top_n $ resource_term $ observability_term)

(* uncertainty *)

let uncertainty_cmd =
  let run file cutoff horizon samples seed error_factor res obs =
    with_observability obs (fun ctx ->
        let sd = or_die (load_model file) in
        let translation = Sdft_translate.translate sd ~horizon in
        let tree = translation.Sdft_translate.static_tree in
        let options = { Mocus.default_options with cutoff } in
        Sdft_util.Obs.begin_phase ctx "generation" ();
        let generation =
          Mocus.run ~options ~guard:(guard_of_resource ctx res) ~obs:ctx tree
        in
        warn_generation_limit res generation;
        let cutsets = generation.Mocus.cutsets in
        let spec _ = Uncertainty.Lognormal { error_factor } in
        let stats = Uncertainty.propagate ~samples ~seed tree cutsets ~spec in
        Format.printf "%a@." Uncertainty.pp_stats stats)
  in
  let samples =
    Arg.(value & opt int 2000 & info [ "samples"; "n" ] ~docv:"N" ~doc:"Monte-Carlo parameter samples.")
  in
  let seed = Arg.(value & opt int 20240 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.") in
  let ef =
    Arg.(value & opt float 3.0 & info [ "error-factor" ] ~docv:"EF" ~doc:"Lognormal error factor applied to every basic event.")
  in
  Cmd.v
    (Cmd.info "uncertainty" ~doc:"Propagate lognormal parameter uncertainty over the cutset list.")
    Term.(const run $ file_arg $ cutoff_arg $ horizon_arg $ samples $ seed $ ef $ resource_term $ observability_term)

(* sensitivity *)

let sensitivity_cmd =
  let run file cutoff horizon factor top_n res obs =
    with_observability obs (fun ctx ->
        let sd = or_die (load_model file) in
        let translation = Sdft_translate.translate sd ~horizon in
        let tree = translation.Sdft_translate.static_tree in
        let options = { Mocus.default_options with cutoff } in
        Sdft_util.Obs.begin_phase ctx "generation" ();
        let generation =
          Mocus.run ~options ~guard:(guard_of_resource ctx res) ~obs:ctx tree
        in
        warn_generation_limit res generation;
        let cutsets = generation.Mocus.cutsets in
        let t = Sensitivity.tornado ~factor tree cutsets in
        Sensitivity.print_ascii tree ~top:top_n t)
  in
  let factor =
    Arg.(value & opt float 10.0 & info [ "factor" ] ~docv:"F" ~doc:"Multiplicative swing applied to each probability.")
  in
  let top_n =
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) largest swings.")
  in
  Cmd.v
    (Cmd.info "sensitivity" ~doc:"One-at-a-time tornado sensitivity over the cutset list.")
    Term.(const run $ file_arg $ cutoff_arg $ horizon_arg $ factor $ top_n $ resource_term $ observability_term)

(* convert *)

let convert_cmd =
  let run file output format =
    let sd = or_die (load_model file) in
    let contents =
      match format with
      | `Sdft -> Sdft_format.to_string sd
      | `Opsa ->
        (* The exchange format carries the static structure only; dynamic
           annotations are dropped with a warning. *)
        if Sdft.dynamic_basics sd <> [] then
          prerr_endline
            "sdft: note: Open-PSA output drops the dynamic annotations";
        Open_psa.to_string (Sdft.tree sd)
    in
    match output with
    | None -> print_string contents
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc contents)
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Write to $(docv) instead of stdout.")
  in
  let format =
    Arg.(value & opt (enum [ ("sdft", `Sdft); ("opsa", `Opsa) ]) `Sdft
         & info [ "to" ] ~docv:"FORMAT" ~doc:"Output format: $(b,sdft) (native) or $(b,opsa) (Open-PSA XML, static part).")
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert between the native text format and Open-PSA XML (input format by extension).")
    Term.(const run $ file_arg $ output $ format)

(* sequences *)

let sequences_cmd =
  let run file horizon cutoff top_n res obs =
    with_observability obs (fun ctx ->
        let sd = or_die (load_model file) in
        let translation = Sdft_translate.translate sd ~horizon in
        let options = { Mocus.default_options with cutoff } in
        Sdft_util.Obs.begin_phase ctx "generation" ();
        let generation =
          Mocus.run ~options ~guard:(guard_of_resource ctx res) ~obs:ctx
            translation.Sdft_translate.static_tree
        in
        warn_generation_limit res generation;
        let cutsets = generation.Mocus.cutsets in
        let tree = Sdft.tree sd in
        List.iteri
          (fun i c ->
            if i < top_n then begin
              let r = Cut_sequences.of_cutset sd c ~horizon in
              Format.printf "%a (p~ = %.3e):@." (Cutset.pp tree) c
                r.Cut_sequences.total;
              List.iter
                (fun s -> Format.printf "  %a@." (Cut_sequences.pp sd) s)
                r.Cut_sequences.sequences
            end)
          (Cutset.sort_by_probability translation.Sdft_translate.static_tree
             cutsets))
  in
  let top_n =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"Analyse the $(docv) most important cutsets.")
  in
  Cmd.v
    (Cmd.info "sequences" ~doc:"Minimal cut sequences: failure orders of each cutset with their probabilities.")
    Term.(const run $ file_arg $ horizon_arg $ cutoff_arg $ top_n $ resource_term $ observability_term)

(* availability *)

let availability_cmd =
  let run file cutoff res obs =
    with_observability obs (fun ctx ->
        let sd = or_die (load_model file) in
        let guard = guard_of_resource ctx res in
        Sdft_util.Obs.begin_phase ctx "generation" ();
        match Availability.analyze ~cutoff ~guard ~obs:ctx sd with
        | Some r ->
          (* A deadline guard stays tripped after expiry, so probing it here
             tells us whether generation was cut short. *)
          (match Sdft_util.Guard.status guard with
          | Some reason ->
            Printf.eprintf
              "sdft: DEGRADED: cutset generation stopped early (%s); the \
               unavailability sum covers only the cutsets generated before \
               the limit\n"
              (Sdft_util.Guard.reason_to_string reason);
            if res.res_fail then raise (Exit_code 1)
          | None -> ());
          Printf.printf
            "steady-state unavailability (REA over %d cutsets): %.4e\n"
            r.Availability.n_cutsets r.Availability.unavailability;
          let tree = Sdft.tree sd in
          List.iter
            (fun (b, q) ->
              Printf.printf "  %-30s q = %.4e\n"
                (Fault_tree.basic_name tree b) q)
            r.Availability.per_event
        | None ->
          Printf.eprintf
            "sdft: some dynamic event has no steady state (not repairable)\n";
          raise (Exit_code 1))
  in
  Cmd.v
    (Cmd.info "availability" ~doc:"Long-run unavailability of a repairable SD fault tree.")
    Term.(const run $ file_arg $ cutoff_arg $ resource_term $ observability_term)

(* dot *)

let dot_cmd =
  let run file output =
    let sd = or_die (load_model file) in
    let tree = Sdft.tree sd in
    let dot =
      Dot.to_dot
        ~dynamic_basics:(Sdft.is_dynamic sd)
        ~trigger_edges:(Sdft.trigger_edges sd) tree
    in
    match output with
    | None -> print_string dot
    | Some path -> Dot.write_file path dot
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the model as a Graphviz graph.")
    Term.(const run $ file_arg $ output)

(* gen *)

let gen_cmd =
  let run which output =
    let sd =
      match which with
      | `Pumps -> Pumps.sd_tree ()
      | `Bwr ->
        Bwr.build
          {
            Bwr.default_config with
            repair_rate = Some 0.1;
            triggers = Bwr.all_trigger_sites;
          }
      | `Small -> Sdft.static_only (Industrial.generate Industrial.small)
      | `Medium -> Sdft.static_only (Industrial.generate Industrial.medium)
      | `Model1 -> Sdft.static_only (Industrial.generate Industrial.model_1)
      | `Model2 -> Sdft.static_only (Industrial.generate Industrial.model_2)
    in
    match output with
    | None -> print_string (Sdft_format.to_string sd)
    | Some path -> Sdft_format.to_file path sd
  in
  let which =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("pumps", `Pumps);
                  ("bwr", `Bwr);
                  ("small", `Small);
                  ("medium", `Medium);
                  ("model1", `Model1);
                  ("model2", `Model2);
                ]))
          None
      & info [] ~docv:"MODEL" ~doc:"One of pumps, bwr, small, medium, model1, model2.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit one of the bundled models in the text format.")
    Term.(const run $ which $ output)

(* serve — the resident analysis daemon. *)

let listen_arg =
  Arg.(value & opt string "unix:sdft.sock"
       & info [ "listen" ] ~docv:"ADDR"
           ~doc:"Endpoint to serve on: $(b,unix:PATH) (default: \
                 $(b,unix:sdft.sock)), $(b,tcp:HOST:PORT), or a bare path \
                 (a Unix socket). A stale socket file is replaced.")

let serve_cmd =
  let run listen workers queue quota request_domains default_deadline
      default_mem watchdog idem_window cache_path metrics_path metrics_format
      =
    let addr = or_die (Sdft_server.Daemon.addr_of_string listen) in
    let config =
      {
        Sdft_server.Server_core.default_config with
        Sdft_server.Server_core.workers;
        queue_capacity = queue;
        client_quota = quota;
        max_request_domains = request_domains;
        default_deadline;
        default_mem_limit_mb = default_mem;
        watchdog_timeout = (if watchdog > 0.0 then Some watchdog else None);
        response_window = idem_window;
      }
    in
    (* A client vanishing mid-response must degrade to a failed write on
       that connection, not a fatal SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    with_disk_cache cache_path (fun disk_cache ->
        let cache =
          match disk_cache with Some c -> c | None -> Quant_cache.create ()
        in
        let core = Sdft_server.Server_core.create ~config ~cache () in
        let stop_on_signal =
          Sys.Signal_handle
            (fun _ -> Sdft_server.Daemon.request_stop core)
        in
        Sys.set_signal Sys.sigint stop_on_signal;
        Sys.set_signal Sys.sigterm stop_on_signal;
        let write_metrics () =
          match metrics_path with
          | None -> ()
          | Some path -> (
            try
              Sdft_util.Metrics.write_file_in ~format:metrics_format
                (Sdft_server.Server_core.metrics core)
                path
            with Sys_error m -> Printf.eprintf "sdft: %s\n" m)
        in
        Fun.protect ~finally:write_metrics (fun () ->
            Sdft_server.Daemon.serve core addr ~on_ready:(fun () ->
                Printf.printf
                  "sdft: serving on %s (%d workers, queue %d, quota %d)\n%!"
                  (Sdft_server.Daemon.addr_to_string addr)
                  config.Sdft_server.Server_core.workers queue quota));
        (match disk_cache with
        | Some c -> report_disk_cache c
        | None -> ());
        Printf.printf "sdft: server stopped\n%!")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains executing analyze requests.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue bound; a saturated queue rejects with a \
                   structured $(i,retry_after) response instead of queueing \
                   unboundedly.")
  in
  let quota =
    Arg.(value & opt int 16
         & info [ "quota" ] ~docv:"N"
             ~doc:"Maximum in-flight (queued plus running) requests per \
                   client.")
  in
  let request_domains =
    Arg.(value & opt int 1
         & info [ "request-domains" ] ~docv:"N"
             ~doc:"Clamp on the per-request $(i,domains) parameter (solver \
                   domains nested inside one worker).")
  in
  let default_deadline =
    Arg.(value & opt (some float) None
         & info [ "default-deadline" ] ~docv:"SECONDS"
             ~doc:"Guard deadline applied to requests that do not set \
                   their own; requests degrade gracefully when it \
                   expires.")
  in
  let default_mem =
    Arg.(value & opt (some int) None
         & info [ "default-mem-limit-mb" ] ~docv:"MB"
             ~doc:"Guard heap ceiling applied to requests that do not set \
                   their own.")
  in
  let watchdog =
    Arg.(value & opt float 60.0
         & info [ "watchdog" ] ~docv:"SECONDS"
             ~doc:"Declare a busy worker domain lost after $(docv) seconds \
                   without a heartbeat: its request is failed with a \
                   retryable $(i,worker_lost) error and its pool slot is \
                   respawned, so one hung analysis cannot shrink the pool. \
                   $(b,0) disables the watchdog.")
  in
  let idem_window =
    Arg.(value & opt int 128
         & info [ "idem-window" ] ~docv:"N"
             ~doc:"Remember the last $(docv) response lines per \
                   (client, idem) pair so retried requests carrying an \
                   $(i,idem) key are answered verbatim instead of \
                   recomputed. $(b,0) disables the window.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Dump the server registry (requests, rejections, request \
                   latency histogram, cache roll-up) to $(docv) on exit. \
                   The live equivalents are the $(b,metrics) op and a plain \
                   HTTP $(b,GET /metrics) on the same socket.")
  in
  let metrics_format =
    Arg.(value
         & opt (enum [ ("json", Sdft_util.Metrics.Json_format);
                       ("prom", Sdft_util.Metrics.Prom_format) ])
             Sdft_util.Metrics.Json_format
         & info [ "metrics-format" ] ~docv:"FMT"
             ~doc:"Format of the $(b,--metrics) dump: $(b,json) or \
                   $(b,prom).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Resident analysis server: accept newline-delimited JSON \
             analysis requests over a Unix or TCP socket, multiplexed over \
             a worker-domain pool and one shared quantification cache \
             (flushed on graceful shutdown). Each request runs under its \
             own observability context and resource guard; errors are \
             answered, never fatal.")
    Term.(const run $ listen_arg $ workers $ queue $ quota $ request_domains
          $ default_deadline $ default_mem $ watchdog $ idem_window
          $ cache_arg $ metrics $ metrics_format)

(* client — line-oriented scripting client for serve. *)

let client_cmd =
  let run connect op file id client_name idem timeout retries horizon cutoff
      engine domains deadline mem_limit_mb max_order failpoints verbose raw =
    let addr = or_die (Sdft_server.Daemon.addr_of_string connect) in
    (* Retried analyzes get an idempotency key automatically so a resend
       after a broken socket or a lost worker is answered from the
       server's response window instead of recomputed. *)
    let idem =
      match (idem, raw, op) with
      | (Some _ as k), _, _ -> k
      | None, None, "analyze" when retries > 0 ->
        Some
          (Digest.to_hex
             (Digest.string
                (Printf.sprintf "%d|%.9f|%s" (Unix.getpid ())
                   (Unix.gettimeofday ()) connect)))
      | _ -> None
    in
    let line =
      match raw with
      | Some l -> l
      | None -> (
        match op with
        | "analyze" ->
          let path =
            match file with
            | Some f -> f
            | None ->
              or_die (Error "analyze needs a MODEL file (or use --raw)")
          in
          (* .xml goes through the Open-PSA reader and is re-serialized;
             the native text format travels as-is. *)
          let model =
            if Filename.check_suffix path ".xml" then
              Sdft_format.to_string (or_die (load_model path))
            else
              or_die
                (try
                   Ok In_channel.(with_open_bin path input_all)
                 with Sys_error m -> Error m)
          in
          Sdft_server.Protocol.analyze_line ?id ?client:client_name ?idem
            ?horizon ?cutoff ?engine ?domains ?deadline ?mem_limit_mb
            ?max_order ?failpoints ~verbose ~model ()
        | other -> Sdft_server.Protocol.simple_line ?id ?client:client_name other)
    in
    let cl =
      try Sdft_server.Client.connect ?timeout ~retries addr with
      | Unix.Unix_error (e, _, _) ->
        or_die
          (Error
             (Printf.sprintf "cannot connect to %s: %s" connect
                (Unix.error_message e)))
      | Sdft_server.Client.Timeout tmo ->
        or_die
          (Error
             (Printf.sprintf "connecting to %s timed out after %gs" connect
                tmo))
    in
    let response =
      match Sdft_server.Client.request cl line with
      | r -> r
      | exception End_of_file ->
        or_die (Error "server closed the connection before replying")
      | exception Unix.Unix_error (e, _, _) ->
        or_die (Error (Unix.error_message e))
      | exception Sdft_server.Client.Timeout tmo ->
        or_die
          (Error (Printf.sprintf "no response after %gs (--timeout)" tmo))
    in
    Sdft_server.Client.close cl;
    (* The metrics op unwraps to the raw exposition text (scrape-friendly);
       everything else prints the raw response line for jq-style piping. *)
    let module J = Sdft_util.Json in
    (match
       if op = "metrics" && raw = None then
         Option.bind (Result.to_option (J.parse response)) (fun v ->
             Option.bind (J.member "result" v) (fun r ->
                 Option.bind (J.member "prometheus" r) J.to_string))
       else None
     with
    | Some text -> print_string text
    | None -> print_endline response);
    match Result.to_option (J.parse response) with
    | Some v when J.member "ok" v = Some (J.Bool true) -> ()
    | _ -> raise (Exit_code 1)
  in
  let connect =
    Arg.(value & opt string "unix:sdft.sock"
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Server endpoint: $(b,unix:PATH), $(b,tcp:HOST:PORT) or a \
                   bare socket path.")
  in
  let op =
    Arg.(value
         & opt (enum [ ("analyze", "analyze"); ("ping", "ping");
                       ("metrics", "metrics"); ("stats", "stats");
                       ("health", "health"); ("shutdown", "shutdown") ])
             "analyze"
         & info [ "op" ] ~docv:"OP"
             ~doc:"Request op: $(b,analyze) (default), $(b,ping), \
                   $(b,metrics), $(b,stats), $(b,health) or \
                   $(b,shutdown).")
  in
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"MODEL" ~doc:"Model file for $(b,analyze).")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"ID" ~doc:"Request id, echoed in the response.")
  in
  let client_name =
    Arg.(value & opt (some string) None
         & info [ "client" ] ~docv:"NAME" ~doc:"Quota bucket to bill this request to.")
  in
  let idem =
    Arg.(value & opt (some string) None
         & info [ "idem" ] ~docv:"KEY"
             ~doc:"Idempotency key: the server answers a retry of the same \
                   (client, $(docv)) pair with the remembered response line \
                   instead of recomputing. Auto-generated for $(b,analyze) \
                   when $(b,--retries) is positive.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Give up on the connect handshake or on waiting for the \
                   response after $(docv) seconds, with a structured error \
                   and exit 2, instead of blocking forever. Timeouts are \
                   never retried.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry budget for this request: reconnect-and-resend on a \
                   broken socket and re-submit after $(i,retry_after) on \
                   retryable rejections (saturated, quota_exceeded, \
                   shutting_down, worker_lost), with capped exponential \
                   backoff. Default $(b,0): fail fast.")
  in
  let horizon =
    Arg.(value & opt (some float) None
         & info [ "horizon"; "t" ] ~docv:"HOURS" ~doc:"Analysis horizon.")
  in
  let cutoff =
    Arg.(value & opt (some float) None
         & info [ "cutoff"; "c" ] ~docv:"P" ~doc:"Generation cutoff.")
  in
  let engine =
    Arg.(value & opt (some string) None
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"Cutset engine: zdd or mocus (omitted: the server default).")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains"; "j" ] ~docv:"N"
             ~doc:"Requested solver domains (server clamps).")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Per-request guard deadline.")
  in
  let mem_limit =
    Arg.(value & opt (some int) None
         & info [ "mem-limit-mb" ] ~docv:"MB" ~doc:"Per-request heap ceiling.")
  in
  let max_order =
    Arg.(value & opt (some int) None
         & info [ "max-order" ] ~docv:"K" ~doc:"Cutset order bound.")
  in
  let failpoints =
    Arg.(value & opt (some string) None
         & info [ "failpoints" ] ~docv:"SPEC"
             ~doc:"Fault-injection spec armed on this request's private \
                   registry only (SDFT_FAILPOINTS syntax).")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ]
             ~doc:"Ask for the nondeterministic timing/cache section in \
                   the response.")
  in
  let raw =
    Arg.(value & opt (some string) None
         & info [ "raw" ] ~docv:"LINE"
             ~doc:"Send $(docv) verbatim as the request frame (overrides \
                   every other request option).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running $(b,sdft serve) daemon and \
             print the response line (exit 0 on ok, 1 on a structured \
             error, 2 on transport trouble).")
    Term.(const run $ connect $ op $ file $ id $ client_name $ idem
          $ timeout $ retries $ horizon $ cutoff $ engine $ domains
          $ deadline $ mem_limit $ max_order $ failpoints $ verbose $ raw)

let main_cmd =
  let info =
    Cmd.info "sdft" ~version:"1.0.0"
      ~doc:"Scalable analysis of fault trees with dynamic features (SD fault trees)"
  in
  Cmd.group info
    [
      analyze_cmd;
      explain_cmd;
      sweep_cmd;
      mcs_cmd;
      classify_cmd;
      simulate_cmd;
      exact_cmd;
      translate_cmd;
      importance_cmd;
      uncertainty_cmd;
      availability_cmd;
      sequences_cmd;
      convert_cmd;
      sensitivity_cmd;
      dot_cmd;
      gen_cmd;
      serve_cmd;
      client_cmd;
    ]

(* [~catch:false] so our exceptions reach this handler instead of cmdliner's
   generic backtrace printer: [Exit_code] carries the intended exit status
   (2 = bad input, 1 = analysis verdict), and the named input-error
   exceptions become one-line diagnostics with exit 2. *)
let () =
  let code =
    try Cmd.eval ~catch:false main_cmd with
    | Exit_code n -> n
    | Sdft_format.Error m | Open_psa.Error m | Sys_error m | Failure m ->
      Printf.eprintf "sdft: %s\n" m;
      2
  in
  (* Fold cmdliner's own usage-error code into the input-error convention:
     2 = bad input (files, models, flags), 1 = analysis verdict. *)
  let code = if code = Cmd.Exit.cli_error then 2 else code in
  exit code
