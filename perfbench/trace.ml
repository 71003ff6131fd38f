(* In-memory span recorder for the traced benchmark run.

   A span wraps one call into a layer's public function: name, layer,
   start, end, parent span and request id.  Spans are appended to a
   per-domain buffer (no locking on the hot path) and merged when the
   run ends.  With tracing off, [span] is a plain call: the untraced,
   timed arm carries no recording at all. *)

type span = {
  id : int;
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
  parent : int;  (* 0 = none *)
  req : int;     (* 0 = outside any timed request (setup, probes) *)
}

let enabled = ref false
let next_id = Atomic.make 1

(* the request the calling domain is serving; worker domains read it *)
let current_req = Atomic.make 0

(* innermost open span of the client domain (the one sending requests):
   the parent of spans opened at depth 0 in worker domains it spawned *)
let client_top = Atomic.make 0

type dstate = {
  mutable stack : int list;
  mutable spans : span list;
  mutable counters : (string * int * float) list;
  client : bool;
}

let all_states : dstate list ref = ref []
let all_lock = Mutex.create ()
let client_domain = Domain.self ()

let key =
  Domain.DLS.new_key (fun () ->
      let d =
        { stack = []; spans = []; counters = [];
          client = Domain.self () = client_domain }
      in
      Mutex.protect all_lock (fun () -> all_states := d :: !all_states);
      d)

let now = Unix.gettimeofday

let span layer name f =
  if not !enabled then f ()
  else begin
    let d = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent =
      match d.stack with
      | p :: _ -> p
      | [] -> if d.client then 0 else Atomic.get client_top
    in
    d.stack <- id :: d.stack;
    if d.client then Atomic.set client_top id;
    let req = Atomic.get current_req in
    let t0 = now () in
    let close () =
      let t1 = now () in
      d.stack <- List.tl d.stack;
      if d.client then
        Atomic.set client_top (match d.stack with p :: _ -> p | [] -> 0);
      d.spans <- { id; name; layer; t0; t1; parent; req } :: d.spans
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

(* Add [v] to a named counter, tagged with the current request (summed
   across domains at the end). *)
let count name v =
  if !enabled then begin
    let d = Domain.DLS.get key in
    d.counters <- (name, Atomic.get current_req, v) :: d.counters
  end

let spans () =
  Mutex.protect all_lock (fun () ->
      List.concat_map (fun d -> d.spans) !all_states)

(* Sum of a counter over the requests [keep] selects. *)
let counter ~keep name =
  Mutex.protect all_lock (fun () ->
      List.fold_left
        (fun acc d ->
           List.fold_left
             (fun acc (n, r, v) ->
                if keep r && String.equal n name then acc +. v else acc)
             acc d.counters)
        0. !all_states)

(* Self time of each span: its duration minus the part of its interval
   covered by the union of its children (which may overlap when they ran
   on several domains). *)
let self_times (spans : span list) : (span * float) list =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
       let ivs =
         Hashtbl.find_all children s.id
         |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
         |> List.filter (fun (a, b) -> b > a)
         |> List.sort compare
       in
       let covered, _ =
         List.fold_left
           (fun (acc, hi) (a, b) ->
              let a = Float.max a hi in
              if b > a then (acc +. (b -. a), b) else (acc, hi))
           (0., neg_infinity) ivs
       in
       (s, Float.max 0. (s.t1 -. s.t0 -. covered)))
    spans

let write_jsonl path (spans : span list) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
       Printf.fprintf oc
         "{\"id\":%d,\"name\":%S,\"layer\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"req\":%d}\n"
         s.id s.name s.layer s.t0 s.t1 s.parent s.req)
    (List.sort (fun a b -> compare a.id b.id) spans)
