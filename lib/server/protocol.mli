(** Wire protocol of the resident analysis server: newline-delimited JSON
    request/response framing.

    One request is one line holding one JSON object; the server answers
    each request with exactly one line holding one JSON object. Responses
    to pipelined requests on a single connection may arrive out of order —
    the echoed [id] is the correlation key. The codec is {e total}: any
    byte garbage, truncated frame or type-confused field parses to a
    structured {!error}, never an exception, because this parser is the
    daemon's network-facing front door.

    Requests:
    {v
    {"id": <any JSON value, echoed verbatim>,
     "client": "<quota bucket, optional>",
     "idem": "<idempotency key, optional>",
     "op": "analyze" | "ping" | "metrics" | "stats" | "health" | "shutdown",
     "model": "<sdft model text>",            // analyze only
     "params": {"horizon": 24, "cutoff": 1e-15, "engine": "zdd",
                "domains": 1, "deadline": 0.5, "mem_limit_mb": 512,
                "max_order": 3},              // all optional
     "failpoints": "cache.lookup=raise@nth:2",  // optional, per-request
     "verbose": false}
    v}

    Responses:
    {v
    {"id": ..., "ok": true,  "result": {...}}
    {"id": ..., "ok": false, "error": {"code": "saturated",
                                       "message": "...",
                                       "retry_after": 0.25}}
    v}

    The [result] body of an [analyze] response contains only deterministic
    fields (probabilities, certified bounds, cutset counts, engine,
    degradation) rendered with {!Sdft_util.Json.add_float}'s
    17-significant-digit format, so equal requests produce bit-identical
    response lines regardless of scheduling, cache hits or concurrency.
    [verbose: true] appends a [timing]/[cache] section that is exempt from
    that guarantee. *)

type error_code =
  | Bad_request  (** malformed frame, unknown op, bad model or parameter *)
  | Saturated  (** admission queue full; comes with [retry_after] *)
  | Quota_exceeded
      (** per-client in-flight quota reached; comes with [retry_after] *)
  | Crash  (** contained internal failure of this one request *)
  | Shutting_down  (** daemon is draining; no new work accepted *)
  | Worker_lost
      (** the watchdog declared the worker domain running this request
          hung or dead; the slot was respawned and a retry is safe *)

val error_code_name : error_code -> string
(** The wire spelling: ["bad_request"], ["saturated"], ["quota_exceeded"],
    ["crash"], ["shutting_down"], ["worker_lost"]. *)

type error = {
  code : error_code;
  message : string;
  retry_after : float option;
      (** seconds after which a retry is likely to be admitted; only on
          [Saturated] and [Quota_exceeded] *)
}

type analyze_params = {
  model_text : string;  (** inline SDFT model source *)
  horizon : float;
  cutoff : float;
  engine : Sdft_analysis.engine;
  domains : int;  (** requested solver domains (server clamps) *)
  deadline : float option;
  mem_limit_mb : int option;
  max_order : int option;
  verbose : bool;
}

type op =
  | Analyze of analyze_params
  | Ping
  | Metrics  (** Prometheus exposition of the server registry *)
  | Stats  (** queue/cache/uptime snapshot *)
  | Health
      (** liveness snapshot: worker states, queue depth, breaker state,
          uptime — cheap enough for an external prober *)
  | Shutdown  (** request a graceful drain-and-flush shutdown *)

type request = {
  id : Sdft_util.Json.value;  (** echoed verbatim; [Null] when absent *)
  client : string option;
      (** quota bucket; defaults to the connection identity *)
  failpoints : string option;
      (** {!Sdft_util.Failpoint.configure_string} spec armed on this
          request's private registry only *)
  idem : string option;
      (** idempotency key: the server remembers the response line it sent
          for each (client, idem) pair in a bounded window, and answers a
          retried request from that window instead of recomputing *)
  op : op;
}

val parse_request :
  max_bytes:int -> string -> (request, Sdft_util.Json.value * error) result
(** Parse one request line. Total: never raises. The [Error] carries the
    request id when one could be recovered from the frame (so even a
    rejection can be correlated), [Null] otherwise. *)

val ok_response : id:Sdft_util.Json.value -> (Buffer.t -> unit) -> string
(** [ok_response ~id body] is the response line
    [{"id":<id>,"ok":true,"result":{<body>}}] (no trailing newline). *)

val error_response : id:Sdft_util.Json.value -> error -> string
(** The response line for a failed request (no trailing newline). *)

(** {1 Request builders}

    Used by the [sdft client] helper and the test suite; emit exactly the
    frames {!parse_request} accepts. *)

val analyze_line :
  ?id:string ->
  ?client:string ->
  ?idem:string ->
  ?horizon:float ->
  ?cutoff:float ->
  ?engine:string ->
  ?domains:int ->
  ?deadline:float ->
  ?mem_limit_mb:int ->
  ?max_order:int ->
  ?failpoints:string ->
  ?verbose:bool ->
  model:string ->
  unit ->
  string
(** An [analyze] request line; omitted parameters are left to server
    defaults. *)

val simple_line : ?id:string -> ?client:string -> string -> string
(** [simple_line op] is a request line for a model-less op
    (["ping"], ["metrics"], ["stats"], ["health"], ["shutdown"]). *)
