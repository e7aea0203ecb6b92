(* In-memory spans recorded around calls into the program's public
   functions. Spans nest: each one records the span that was open when it
   started. Nothing is written until [write] runs at the end of the
   traced run. Single-domain. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start : float;
  stop : float;
}

type t = { mutable spans : span list; mutable open_ : int list; mutable next : int }

let create () = { spans = []; open_ = []; next = 1 }

let now = Unix.gettimeofday

let time t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> 0 in
  t.open_ <- id :: t.open_;
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = now () in
      t.open_ <- List.tl t.open_;
      t.spans <- { id; parent; name; start; stop } :: t.spans)
    f

let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 t.spans

let count t name =
  List.fold_left (fun acc s -> if s.name = name then acc + 1 else acc) 0 t.spans

(* One JSON object per line, in start order. *)
let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.9f,\"stop\":%.9f}\n"
        s.id s.parent s.name s.start s.stop)
    (List.sort (fun a b -> compare a.id b.id) t.spans)
