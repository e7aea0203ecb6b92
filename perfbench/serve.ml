(* Driving [sdft serve]: start a daemon, wait for its first ping, run a
   closed loop of blocking clients over a request stream, check every
   answer against an in-process reference, and stop the daemon. *)

module Client = Sdft_server.Client
module Json = Sdft_util.Json

type daemon = { pid : int; sock : string }

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spawn ~sdft ~workers ~store ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = devnull () in
  let pid =
    Unix.create_process sdft
      [|
        sdft; "serve"; "--listen"; "unix:" ^ sock; "--workers";
        string_of_int workers; "--cache"; store;
      |]
      null null Unix.stderr
  in
  Unix.close null;
  { pid; sock }

let ping_once sock =
  match Client.connect ~timeout:5.0 (Sdft_server.Daemon.Unix_sock sock) with
  | exception _ -> false
  | c ->
    let ok =
      match Client.request c (Sdft_server.Protocol.simple_line "ping") with
      | line -> String.length line > 0
      | exception _ -> false
    in
    Client.close c;
    ok

let stop d =
  (match Client.connect ~timeout:10.0 (Sdft_server.Daemon.Unix_sock d.sock) with
  | c ->
    (try ignore (Client.request c (Sdft_server.Protocol.simple_line "shutdown"))
     with _ -> ());
    Client.close c
  | exception _ -> Unix.kill d.pid Sys.sigterm);
  ignore (Unix.waitpid [] d.pid)

let kill d =
  Unix.kill d.pid Sys.sigkill;
  ignore (Unix.waitpid [] d.pid)

(* [with_daemon ... f] spawns a daemon, waits until a ping answers (polling
   every millisecond), runs [f daemon seconds_to_first_ping] and stops the
   daemon, also when [f] raises. With [~graceful:false] the daemon is
   killed instead of shut down, which takes it about 0.5 s: for a daemon
   whose store is thrown away. *)
let with_daemon ?(graceful = true) ~sdft ~workers ~store ~sock f =
  let t0 = Unix.gettimeofday () in
  let d = spawn ~sdft ~workers ~store ~sock in
  let rec wait () =
    if ping_once sock then Unix.gettimeofday () -. t0
    else if Unix.gettimeofday () -. t0 > 30.0 then
      failwith "daemon did not answer a ping within 30 s"
    else begin
      Unix.sleepf 0.001;
      wait ()
    end
  in
  match wait () with
  | exception e ->
    kill d;
    raise e
  | ready ->
    Fun.protect
      ~finally:(fun () -> if graceful then stop d else kill d)
      (fun () -> f d ready)

(* Peak resident set of the daemon so far, in MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  find ()

type sample = {
  request : Inputs.request;
  rtt : float;
  response : (string, string) result;  (** the line, or why there is none *)
}

(* Between requests, clients park at a closed gate while the loop pauses. *)
type gate = {
  m : Mutex.t;
  cv : Condition.t;
  mutable closed : bool;
  mutable parked : int;
  mutable running : int;  (** clients still in the loop *)
  mutable paused_s : float;  (** time with every running client parked *)
  mutable last_exit : float;
}

let park g =
  Mutex.protect g.m (fun () ->
      if g.closed then begin
        g.parked <- g.parked + 1;
        Condition.broadcast g.cv;
        while g.closed do
          Condition.wait g.cv g.m
        done;
        g.parked <- g.parked - 1
      end)

(* Every [period] seconds: close the gate, wait until no request is in
   flight, run [f ()], reopen. Returns when no client is running. *)
let rec coordinate g ~period f =
  Unix.sleepf period;
  let go_on =
    Mutex.protect g.m (fun () ->
        if g.running > 0 then begin
          g.closed <- true;
          while g.parked < g.running do
            Condition.wait g.cv g.m
          done
        end;
        g.running > 0)
  in
  if go_on then begin
    let p0 = Unix.gettimeofday () in
    f ();
    Mutex.protect g.m (fun () ->
        g.paused_s <- g.paused_s +. (Unix.gettimeofday () -. p0);
        g.closed <- false;
        Condition.broadcast g.cv);
    coordinate g ~period f
  end

(* [clients] domains, each with its own blocking connection, take the next
   request of the stream as soon as their previous one is answered. The
   loop runs for [seconds] and at least [min_requests] requests, and never
   past the end of the stream. [at] (when given) runs [f ()] once, in the
   client that takes request [index], before it sends it. [pause] (when
   given) is [(period, f)]: every [period] seconds the clients stop between
   requests while [f ()] runs; the paused time is not counted. Returns the
   samples and the loop's running time. *)
let closed_loop ?at ?pause ~sock ~clients ~lines ~requests ~seconds ~min_requests
    () =
  let n = Array.length lines in
  let next = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let g =
    {
      m = Mutex.create (); cv = Condition.create (); closed = false; parked = 0;
      running = clients; paused_s = 0.0; last_exit = t0;
    }
  in
  let running_s () =
    Mutex.protect g.m (fun () -> Unix.gettimeofday () -. t0 -. g.paused_s)
  in
  let client () =
    let c = Client.connect ~timeout:60.0 (Sdft_server.Daemon.Unix_sock sock) in
    let rec loop acc =
      park g;
      let i = Atomic.fetch_and_add next 1 in
      if i >= n || (running_s () >= seconds && i >= min_requests) then acc
      else begin
        (match at with Some (index, f) when index = i -> f () | _ -> ());
        let s = Unix.gettimeofday () in
        let response =
          match Client.request c lines.(i) with
          | line -> Ok line
          | exception Client.Timeout t -> Error (Printf.sprintf "timeout %gs" t)
          | exception e -> Error (Printexc.to_string e)
        in
        let rtt = Unix.gettimeofday () -. s in
        loop ({ request = requests.(i); rtt; response } :: acc)
      end
    in
    Fun.protect
      ~finally:(fun () ->
        Client.close c;
        Mutex.protect g.m (fun () ->
            g.running <- g.running - 1;
            g.last_exit <- Unix.gettimeofday ();
            Condition.broadcast g.cv))
      (fun () -> loop [])
  in
  let ds = List.init clients (fun _ -> Domain.spawn client) in
  Option.iter (fun (period, f) -> coordinate g ~period f) pause;
  let samples = List.concat_map Domain.join ds in
  let wall = g.last_exit -. t0 -. g.paused_s in
  ( List.sort (fun a b -> compare a.request.Inputs.index b.request.Inputs.index)
      samples,
    wall )

(* The fields of an analyze answer the benchmark checks. Floats travel
   with 17 significant digits, so parsing them back is bit-exact. *)
type answer = {
  total : float;
  lower : float;
  upper : float;
  n_cutsets : int;
  n_dynamic_cutsets : int;
  degraded : bool;
  service_s : float option;  (** mcs_s + quant_s of a verbose answer *)
  error_code : string option;
}

let parse_answer line =
  match Json.parse line with
  | Error _ -> None
  | Ok v -> (
    let num name r = Option.bind (Json.member name r) Json.to_float in
    let int name r = Option.bind (Json.member name r) Json.to_int in
    match Option.bind (Json.member "ok" v) Json.to_bool with
    | Some false ->
      let code =
        Option.bind (Json.member "error" v) (fun e ->
            Option.bind (Json.member "code" e) Json.to_string)
      in
      Some
        {
          total = nan; lower = nan; upper = nan; n_cutsets = 0;
          n_dynamic_cutsets = 0; degraded = false; service_s = None;
          error_code = Some (Option.value code ~default:"unknown");
        }
    | Some true -> (
      match Json.member "result" v with
      | None -> None
      | Some r -> (
        match
          ( num "total" r, num "lower" r, num "upper" r, int "n_cutsets" r,
            int "n_dynamic_cutsets" r,
            Option.bind (Json.member "degraded" r) Json.to_bool )
        with
        | Some total, Some lower, Some upper, Some n_cutsets,
          Some n_dynamic_cutsets, Some degraded ->
          let service_s =
            Option.bind (Json.member "timing" r) (fun t ->
                match (num "mcs_s" t, num "quant_s" t) with
                | Some a, Some b -> Some (a +. b)
                | _ -> None)
          in
          Some
            {
              total; lower; upper; n_cutsets; n_dynamic_cutsets; degraded;
              service_s; error_code = None;
            }
        | _ -> None))
    | None -> None)

(* Reference answers by (model, horizon), computed in-process after the
   clock stops, sharing one memory cache as the daemon shares its own. *)
let reference_checker ?(cache = Quant_cache.create ()) () =
  let memo = Hashtbl.create 256 in
  fun (r : Inputs.request) ->
    let key = (r.Inputs.model_id, r.Inputs.req_horizon) in
    match Hashtbl.find_opt memo key with
    | Some res -> res
    | None ->
      let res =
        Pipeline.reference ~cache ~text:r.Inputs.model ~horizon:r.Inputs.req_horizon ()
      in
      Hashtbl.add memo key res;
      res

(* [Ok answer] when the answer matches the reference bit for bit,
   [Error why] otherwise. *)
let check reference (s : sample) =
  match s.response with
  | Error why -> Error why
  | Ok line -> (
    match parse_answer line with
    | None -> Error "unparsable answer"
    | Some { error_code = Some code; _ } -> Error ("refused: " ^ code)
    | Some a ->
      let r : Sdft_analysis.result = reference s.request in
      let b = r.Sdft_analysis.budget in
      if
        Pipeline.same_float a.total r.Sdft_analysis.total
        && Pipeline.same_float a.lower b.Sdft_analysis.lower
        && Pipeline.same_float a.upper b.Sdft_analysis.upper
        && a.n_cutsets = r.Sdft_analysis.n_cutsets
        && a.n_dynamic_cutsets = r.Sdft_analysis.n_dynamic_cutsets
        && not a.degraded
      then Ok a
      else Error "answer differs from the in-process reference")

(* [check] over all samples, split across [domains] domains that each keep
   their own references. Results are in sample order. *)
let check_all ~domains samples =
  let arr = Array.of_list samples in
  let n = Array.length arr in
  let slice k =
    Domain.spawn (fun () ->
        let reference = reference_checker () in
        let lo = k * n / domains and hi = (k + 1) * n / domains in
        Array.init (hi - lo) (fun i -> check reference arr.(lo + i)))
  in
  Array.to_list (Array.concat (List.map Domain.join (List.init domains slice)))
