(* A fixed calibration kernel, timed next to and inside the samples so
   that a run can divide out the host's speed of the moment (see
   README.md, "Host-normalized times"). It uses only the OCaml standard library, so
   no change to the program under test can change its work. Its shape
   follows the product-chain workload: a breadth-first build of a state
   space keyed by int arrays in a hash table, then sweeps of a sparse
   float matrix-vector product. *)

(* One build and solve: every vector of [dims] counters in 0..[cap] whose
   sum is at most [budget], with an edge for each counter increment. *)
let solve ~dims ~cap ~budget ~sweeps =
  let index = Hashtbl.create 1024 and queue = Queue.create () in
  let start = Array.make dims 0 in
  Hashtbl.replace index start 0;
  Queue.push (start, 0) queue;
  let edges = ref [] in
  while not (Queue.is_empty queue) do
    let s, sum = Queue.pop queue in
    let i = Hashtbl.find index s in
    if sum < budget then
      for k = 0 to dims - 1 do
        if s.(k) < cap then begin
          let s' = Array.copy s in
          s'.(k) <- s.(k) + 1;
          let j =
            match Hashtbl.find_opt index s' with
            | Some j -> j
            | None ->
              let j = Hashtbl.length index in
              Hashtbl.replace index s' j;
              Queue.push (s', sum + 1) queue;
              j
          in
          edges := (i, j, 0.1 *. float_of_int (k + 1)) :: !edges
        end
      done
  done;
  let n = Hashtbl.length index and edges = Array.of_list !edges in
  let v = Array.make n 0.0 and w = Array.make n 0.0 in
  v.(0) <- 1.0;
  for _ = 1 to sweeps do
    Array.fill w 0 n 0.0;
    Array.iter
      (fun (i, j, rate) ->
        let flow = rate *. v.(i) in
        w.(j) <- w.(j) +. flow;
        w.(i) <- w.(i) -. flow)
      edges;
    for i = 0 to n - 1 do
      v.(i) <- v.(i) +. (0.01 *. w.(i))
    done
  done;
  v.(n - 1)

let reps = 4

(* Seconds that [reps] solves take, and their checksum. *)
let run () =
  let t0 = Unix.gettimeofday () in
  let sum = ref 0.0 in
  for _ = 1 to reps do
    sum := !sum +. solve ~dims:8 ~cap:3 ~budget:7 ~sweeps:30
  done;
  (Unix.gettimeofday () -. t0, !sum)
