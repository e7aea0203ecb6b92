(* The benchmark's in-process half; run.py drives it.

     pbh gen --workload W --seed N --dir D
       writes D/model.sdft and D/reference.json (the in-process answer)
     pbh open-disk --store F
       times the calibration kernel, then one Quant_cache.open_disk of F
     pbh calibrate
       times the calibration kernel (Calib) once per line read from stdin
     pbh serve-run --seed N --seconds S --sdft EXE --dir D [--setups K]
       server-mix: K timed daemon starts, then the closed loop; writes
       D/samples.json
     pbh trace --workload W --seed N --seconds S --sdft EXE --dir D
       the traced run; prints the per-layer metrics as one JSON object *)

module Json = Sdft_util.Json

let clients = 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("pbh: " ^ m); exit 2) fmt

let args = Array.to_list Sys.argv |> List.tl

let flag name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

let req name = match flag name with Some v -> v | None -> die "missing %s" name

let int_flag name = int_of_string (req name)

let float_flag name = float_of_string (req name)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let json_obj fields =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, emit) ->
      if i > 0 then Buffer.add_string buf ", ";
      Json.add_string buf k;
      Buffer.add_string buf ": ";
      emit buf)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let num x b = Json.add_float b x

let int n b = Buffer.add_string b (string_of_int n)

let str s b = Json.add_string b s

let bool v b = Buffer.add_string b (if v then "true" else "false")

let raw s b = Buffer.add_string b s

let list emit xs b =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      emit x b)
    xs;
  Buffer.add_char b ']'

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* {1 gen} *)

let gen () =
  let workload = req "--workload" and seed = int_flag "--seed" in
  let dir = req "--dir" in
  let text = Inputs.batch ~workload ~seed in
  write_file (Filename.concat dir "model.sdft") text;
  let cache = Quant_cache.create () in
  let r =
    Pipeline.reference ~cache ~domains:clients ~text ~horizon:Inputs.horizon ()
  in
  let bud = r.Sdft_analysis.budget in
  let printed =
    [
      Printf.sprintf "failure frequency (rare-event approx): %.3e"
        r.Sdft_analysis.total;
      Printf.sprintf "certified interval: [%.3e, %.3e]" bud.Sdft_analysis.lower
        bud.Sdft_analysis.upper;
      Printf.sprintf "minimal cutsets: %d (%d with dynamic events), engine: %s"
        r.Sdft_analysis.n_cutsets r.Sdft_analysis.n_dynamic_cutsets
        (Sdft_analysis.engine_name r.Sdft_analysis.engine_used);
    ]
  in
  write_file
    (Filename.concat dir "reference.json")
    (json_obj
       [
         ("workload", str workload);
         ("seed", int seed);
         ("digest", str (Inputs.digest text));
         ("bytes", int (String.length text));
         ("cutsets", int r.Sdft_analysis.n_cutsets);
         ("dynamic_cutsets", int r.Sdft_analysis.n_dynamic_cutsets);
         ("distinct_keys", int (List.length (Quant_cache.export cache)));
         ("fallbacks", int r.Sdft_analysis.n_fallbacks);
         ("degraded", bool (Sdft_analysis.degraded r));
         ("total_hex", str (Printf.sprintf "%h" r.Sdft_analysis.total));
         ("printed", list str printed);
       ])

(* {1 open-disk} *)

let open_disk () =
  let path = req "--store" in
  let cal_s, _ = Calib.run () in
  let cache, seconds =
    Sdft_util.Timer.time (fun () -> Quant_cache.open_disk path)
  in
  let entries =
    match Quant_cache.disk_stats cache with
    | Some d -> d.Quant_cache.entries_loaded
    | None -> -1
  in
  Quant_cache.close cache;
  print_endline
    (json_obj [ ("load_s", num seconds); ("cal_s", num cal_s); ("entries", int entries) ])

(* One kernel run per line read from stdin, until EOF: a lane keeps one
   such process on its CPU. *)
let calibrate () =
  try
    while true do
      ignore (input_line stdin);
      let cal_s, sum = Calib.run () in
      print_endline (json_obj [ ("cal_s", num cal_s); ("sum", num sum) ])
    done
  with End_of_file -> ()

(* {1 serve-run} *)

(* The stream is long enough for [seconds] at a few times the expected
   rate; the loop stops at [seconds] (after at least [min_requests]). *)
let stream_length ~seconds = max 1500 (int_of_float (300.0 *. seconds))

let min_requests = 1000

(* One [pbh calibrate] process per client. [time_all ()] runs the kernel
   once in each, all at once, so that each CPU the loop loads is timed. *)
let kernels () =
  let self = Sys.executable_name in
  let procs =
    List.init clients (fun _ -> Unix.open_process_args self [| self; "calibrate" |])
  in
  let time_all () =
    List.iter
      (fun (_, oc) ->
        output_char oc '\n';
        flush oc)
      procs;
    List.map
      (fun (ic, _) ->
        match Json.parse (input_line ic) with
        | Ok v -> (
          match Option.bind (Json.member "cal_s" v) Json.to_float with
          | Some t -> t
          | None -> die "calibrate printed no time")
        | Error _ -> die "calibrate printed no JSON")
      procs
  in
  let close () = List.iter (fun p -> ignore (Unix.close_process p)) procs in
  (time_all, close)

(* Seconds of load between two pauses of the loop for the kernels. *)
let pause_every = 1.0

let serve_run () =
  let seed = int_flag "--seed" and seconds = float_flag "--seconds" in
  let sdft = req "--sdft" and dir = req "--dir" in
  let setups = int_flag "--setups" in
  let requests = Array.of_list (Inputs.mix ~seed (stream_length ~seconds)) in
  let lines = Array.map (fun r -> Inputs.request_line r) requests in
  let path f = Filename.concat dir f in
  (* Each start is timed after one kernel run in this process. *)
  let setup_s, setup_cal_s =
    List.split
      (List.init setups (fun k ->
           let cal, _ = Calib.run () in
           ( Serve.with_daemon ~graceful:false ~sdft ~workers:2
               ~store:(path (Printf.sprintf "setup-%d.store" k))
               ~sock:"setup.sock"
               (fun _ ready -> ready),
             cal )))
  in
  let time_all, close_kernels = kernels () in
  let kernel_s = ref [] in
  let samples, wall, rss_mb =
    Fun.protect ~finally:close_kernels @@ fun () ->
    Serve.with_daemon ~sdft ~workers:2 ~store:(path "load.store")
      ~sock:"load.sock" (fun d _ ->
        (* The peak after a fixed prefix of the stream, so that it does
           not grow with the throughput. *)
        let rss_mb = ref nan in
        kernel_s := time_all ();
        let samples, wall =
          Serve.closed_loop ~sock:d.Serve.sock ~clients ~lines ~requests
            ~seconds ~min_requests
            ~at:(min_requests - 1, fun () -> rss_mb := Serve.vm_hwm_mb d.Serve.pid)
            ~pause:(pause_every, fun () -> kernel_s := time_all () @ !kernel_s)
            ()
        in
        kernel_s := time_all () @ !kernel_s;
        (samples, wall, !rss_mb))
  in
  let checked = Serve.check_all ~domains:clients samples in
  let failures =
    List.filter_map (function Ok _ -> None | Error why -> Some why) checked
  in
  let sample ((s : Serve.sample), checked) =
    raw
      (json_obj
         [
           ("kind", str (Inputs.kind_name s.Serve.request.Inputs.kind));
           ("rtt", num s.Serve.rtt);
           ("ok", bool (Result.is_ok checked));
         ])
  in
  write_file (path "samples.json")
    (json_obj
       [
         ("digest", str (Inputs.mix_digest (Array.to_list requests)));
         ("setup_s", list num setup_s);
         ("setup_cal_s", list num setup_cal_s);
         ("kernel_s", list num !kernel_s);
         ("wall_s", num wall);
         ("rss_mb", num rss_mb);
         ("failures", list str (List.filteri (fun i _ -> i < 5) failures));
         ("samples", list sample (List.combine samples checked));
       ])

(* {1 trace} *)

type tally = { mutable attempted : int; mutable failed : int }

let account tally ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

(* The traced analyses: the batch model at the pinned horizon, or the
   distinct (model, horizon) pairs among the server stream's first 200
   requests. Also returns the request stream the daemon phases replay. *)
let trace_inputs ~workload ~seed ~seconds =
  if workload = "server-mix" then begin
    let requests = Inputs.mix ~seed (stream_length ~seconds) in
    let seen = Hashtbl.create 64 in
    let analyses =
      List.filter
        (fun (r : Inputs.request) ->
          let k = (r.Inputs.model_id, r.Inputs.req_horizon) in
          r.Inputs.index < 200
          && not (Hashtbl.mem seen k)
          && (Hashtbl.add seen k (); true))
        requests
    in
    (analyses, requests)
  end
  else
    let text = Inputs.batch ~workload ~seed in
    let request index =
      {
        Inputs.index;
        kind = Inputs.Repeat;
        model_id = workload;
        model = text;
        req_horizon = Inputs.horizon;
      }
    in
    ([ request 0 ], List.init 200 request)

(* The untraced [analyze] on every input, then the traced pipeline; each
   rebuilt total must equal the reference bit for bit. *)
let trace_pipeline tally ~ref_cache analyses =
  let refs, untraced_s =
    Sdft_util.Timer.time (fun () ->
        List.map
          (fun (r : Inputs.request) ->
            Pipeline.reference ~cache:ref_cache ~text:r.Inputs.model
              ~horizon:r.Inputs.req_horizon ())
          analyses)
  in
  let spans = Spans.create () and l = Pipeline.layers () in
  let memo : Pipeline.memo = Hashtbl.create 4096 in
  let outcomes =
    List.map2
      (fun (r : Inputs.request) (rf : Sdft_analysis.result) ->
        let o =
          Pipeline.run spans l memo ~text:r.Inputs.model
            ~horizon:r.Inputs.req_horizon
        in
        let same = Pipeline.same_float o.Pipeline.total rf.Sdft_analysis.total in
        if not same then
          Printf.eprintf "pbh: rebuilt total %h differs from analyze %h (%s)\n%!"
            o.Pipeline.total rf.Sdft_analysis.total r.Inputs.model_id;
        account tally same;
        (r, o))
      analyses refs
  in
  (spans, l, memo, outcomes, untraced_s)

type cache_layer = { hits : int; misses : int; disk_hits : int; appends : int }

(* Persist the solved entries to a fresh store, reopen it warm and look
   every cutset up through [Quant_cache.quantify]. *)
let trace_cache spans ~store memo outcomes =
  (try Sys.remove store with Sys_error _ -> ());
  let cold = Quant_cache.open_disk store in
  ignore (Quant_cache.seed cold (Hashtbl.fold (fun k e acc -> (k, e) :: acc) memo []));
  let appends =
    match Quant_cache.disk_stats cold with Some d -> d.Quant_cache.appends | None -> 0
  in
  Quant_cache.close cold;
  let warm = Spans.time spans "cache.load" (fun () -> Quant_cache.open_disk store) in
  let workspace = Transient.workspace () in
  List.iter
    (fun ((r : Inputs.request), (o : Pipeline.outcome)) ->
      let opts = Inputs.options ~horizon:r.Inputs.req_horizon () in
      List.iter
        (fun m ->
          Spans.time spans "cache.lookup" (fun () ->
              ignore
                (Quant_cache.quantify warm
                   ~epsilon:opts.Sdft_analysis.transient_epsilon
                   ~max_states:opts.Sdft_analysis.max_product_states ~workspace
                   ~engine_tag:(Sdft_analysis.engine_name Inputs.engine)
                   m ~horizon:r.Inputs.req_horizon)))
        o.Pipeline.models)
    outcomes;
  let disk_hits =
    match Quant_cache.disk_stats warm with Some d -> d.Quant_cache.disk_hits | None -> 0
  in
  let layer =
    { hits = Quant_cache.hits warm; misses = Quant_cache.misses warm; disk_hits; appends }
  in
  Quant_cache.close warm;
  layer

type server_phase = {
  throughput : float;  (** answered requests per second *)
  ping_rtt : float;
  service_s : float;
  overhead_s : float;
  rejected : int;
}

(* One daemon with [workers] workers: 50 pings, then the verbose stream for
   a quarter of the run. [store] (when given) is copied in first, so that
   each daemon starts equally warm. *)
let trace_server tally ~sdft ~dir ~seconds ~store ~reference ~workers stream =
  let store' = Filename.concat dir (Printf.sprintf "trace-%dw.store" workers) in
  (try Sys.remove store' with Sys_error _ -> ());
  Option.iter
    (fun src ->
      let ic = open_in_bin src in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      write_file store' s)
    store;
  let lines = Array.map (fun r -> Inputs.request_line ~verbose:true r) stream in
  let pings, samples, wall =
    Serve.with_daemon ~sdft ~workers ~store:store' ~sock:"trace.sock" (fun d _ ->
        let addr = Sdft_server.Daemon.Unix_sock d.Serve.sock in
        let ping () =
          let c = Sdft_server.Client.connect ~timeout:10.0 addr in
          let (), s =
            Sdft_util.Timer.time (fun () ->
                ignore
                  (Sdft_server.Client.request c
                     (Sdft_server.Protocol.simple_line "ping")))
          in
          Sdft_server.Client.close c;
          s
        in
        let pings = List.init 50 (fun _ -> ping ()) in
        let samples, wall =
          Serve.closed_loop ~sock:d.Serve.sock ~clients ~lines ~requests:stream
            ~seconds:(seconds /. 4.0) ~min_requests:(2 * clients) ()
        in
        (pings, samples, wall))
  in
  let service = ref [] and overhead = ref [] and rejected = ref 0 in
  List.iter
    (fun (s : Serve.sample) ->
      let checked = Serve.check reference s in
      account tally (Result.is_ok checked);
      match checked with
      | Ok { Serve.service_s = Some sv; _ } ->
        service := sv :: !service;
        overhead := (s.Serve.rtt -. sv) :: !overhead
      | Ok _ -> ()
      | Error why ->
        if String.starts_with ~prefix:"refused:" why then incr rejected)
    samples;
  {
    throughput = float_of_int (List.length samples) /. wall;
    ping_rtt = median pings;
    service_s = median !service;
    overhead_s = median !overhead;
    rejected = !rejected;
  }

(* Mean seconds per [Protocol.parse_request] over the stream's first 200
   request lines, parsed as the daemon parses them. *)
let protocol_parse_s tally stream =
  let lines =
    Array.map (fun r -> Inputs.request_line ~verbose:true r)
      (Array.sub stream 0 (min 200 (Array.length stream)))
  in
  let (), s =
    Sdft_util.Timer.time (fun () ->
        Array.iter
          (fun line ->
            match Sdft_server.Protocol.parse_request ~max_bytes:(8 lsl 20) line with
            | Ok _ -> ()
            | Error _ -> account tally false)
          lines)
  in
  s /. float_of_int (Array.length lines)

let metrics_json ms =
  json_obj
    (List.map
       (fun (name, value, unit) ->
         (name, raw (json_obj [ ("value", num value); ("unit", str unit) ])))
       ms)

let trace () =
  let workload = req "--workload" and seed = int_flag "--seed" in
  let seconds = float_flag "--seconds" in
  let sdft = req "--sdft" and dir = req "--dir" in
  let tally = { attempted = 0; failed = 0 } in
  let analyses, requests = trace_inputs ~workload ~seed ~seconds in
  let ref_cache = Quant_cache.create () in
  let spans, l, memo, outcomes, untraced_s =
    trace_pipeline tally ~ref_cache analyses
  in
  let traced_s = Spans.total spans "analysis" in
  let store = Filename.concat dir "trace.store" in
  let cache = trace_cache spans ~store memo outcomes in
  (* Batch workloads send their model warm from the store just written;
     the server stream starts on a fresh store. *)
  let stream = Array.of_list requests in
  let reference = Serve.reference_checker ~cache:ref_cache () in
  let phase workers =
    trace_server tally ~sdft ~dir ~seconds ~reference ~workers stream
      ~store:(if workload = "server-mix" then None else Some store)
  in
  let two = phase 2 in
  let one = phase 1 in
  Spans.write spans (Filename.concat dir "spans.jsonl");
  let t name = Spans.total spans name
  and c name = float_of_int (Spans.count spans name) in
  let f = float_of_int in
  let distinct = Hashtbl.length memo in
  let gc = Gc.quick_stat () in
  let metrics =
    [
      ("parse.s", t "parse", "s");
      ("parse.bytes", f l.Pipeline.parse_bytes, "bytes");
      ("translate.s", t "translate", "s");
      ("classify.s", t "classify", "s");
      ("classify.trigger_gates", f l.Pipeline.trigger_gates, "count");
      ("generate.s", t "generate", "s");
      ("generate.cutsets", f l.Pipeline.cutsets, "count");
      ("generate.modules", f l.Pipeline.modules, "count");
      ("generate.peak_zdd_nodes", f l.Pipeline.peak_zdd_nodes, "count");
      ("ftc_build.s", t "ftc_build", "s");
      ("ftc_build.calls", c "ftc_build", "count");
      ("fingerprint.s", t "fingerprint", "s");
      ("fingerprint.distinct", f distinct, "count");
      ("fingerprint.distinct_ratio", f distinct /. f (max 1 l.Pipeline.keyed), "ratio");
      ("cache.load_s", t "cache.load", "s");
      ("cache.lookup_s", t "cache.lookup" /. Float.max 1.0 (c "cache.lookup"), "s");
      ("cache.hits", f cache.hits, "count");
      ("cache.misses", f cache.misses, "count");
      ( "cache.hit_ratio",
        f cache.hits /. f (max 1 (cache.hits + cache.misses)),
        "ratio" );
      ("cache.disk_hits", f cache.disk_hits, "count");
      ("cache.appends", f cache.appends, "count");
      ("product_build.s", t "product_build", "s");
      ("product_build.calls", c "product_build", "count");
      ("product_build.states", f l.Pipeline.states, "count");
      ("product_build.transitions", f l.Pipeline.transitions, "count");
      ( "product_build.states_per_s",
        f l.Pipeline.states /. Float.max 1e-9 (t "product_build"),
        "1/s" );
      ("transient.s", t "transient", "s");
      ("transient.calls", c "transient", "count");
      ("transient.steps", f l.Pipeline.steps, "count");
      ("protocol.parse_s", protocol_parse_s tally stream, "s");
      ("server.service_s", two.service_s, "s");
      ("server.overhead_s", two.overhead_s, "s");
      ("server.rejected", f (two.rejected + one.rejected), "count");
      ("server.scaling_eff", two.throughput /. (2.0 *. one.throughput), "ratio");
      ("client.ping_rtt_s", two.ping_rtt, "s");
      ( "heap.top_mb",
        f gc.Gc.top_heap_words *. f (Sys.word_size / 8) /. 1048576.0,
        "MB" );
      ("trace.overhead_s", traced_s -. untraced_s, "s");
    ]
  in
  print_endline
    (json_obj
       [
         ("attempted", int tally.attempted);
         ("failed", int tally.failed);
         ("metrics", raw (metrics_json metrics));
       ])

let () =
  match args with
  | "gen" :: _ -> gen ()
  | "open-disk" :: _ -> open_disk ()
  | "calibrate" :: _ -> calibrate ()
  | "serve-run" :: _ -> serve_run ()
  | "trace" :: _ -> trace ()
  | _ -> die "usage: pbh (gen|open-disk|calibrate|serve-run|trace) ..."
