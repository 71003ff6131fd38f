(* Lease-based multi-process work queue over a v2 store file.  See the
   interface for the state machine; the load-bearing decisions here:

   - arbitration is structural, not temporal: the fold accepts the
     FIRST record for a given (index, epoch) and ignores later ones, so
     whoever's write(2) landed first owns the lease — claimants verify
     by refreshing their cursor after they append;
   - the fold takes one entry at a time, so a cursor folds only the
     records appended since its last refresh: a claim costs the new
     bytes, not the journal;
   - the fold is clock-free: expiry is judged only by claimants, at
     claim time, against the effective deadline the fold computed —
     so every process reading the file derives the identical view;
   - appends carry a leading newline so that a peer killed mid-write
     damages only its own (checksummed) record, never ours. *)

module Store = Ldx_store.Store
module Obs = Ldx_obs

type lease = { holder : string; epoch : int; deadline_us : int }

type task_state =
  | Free of { next_epoch : int }
  | Leased of lease
  | Done of { payload : string }

type view = {
  manifest : Store.manifest;
  states : task_state array;
  expired_owners : string list array;
  torn : int;
}

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* The fold over journal entries, in file order.  Lease deadlines are
   kept as claimed; heartbeats are applied when a state is looked at
   ([effective]), so the fold can take one entry at a time. *)
type fold = {
  states : task_state array;
  expired : string list array;  (* per task, newest charge first *)
  heartbeats : (string, int) Hashtbl.t;
      (* owner -> latest heartbeat deadline; deadlines only move forward *)
}

let empty_fold n =
  { states = Array.make n (Free { next_epoch = 0 });
    expired = Array.make n [];
    heartbeats = Hashtbl.create 7 }

(* The one fold step: every arbitration rule lives here.  Applying the
   same entry twice in a row changes nothing the first application did
   not (a won lease or a release moves the epoch on, an outcome is
   final, a heartbeat is a max) — a cursor relies on this for an
   unterminated last line, which it folds now and again once the line
   is whole. *)
let step f (e : Store.entry) =
  let n = Array.length f.states in
  match e with
  | Store.Outcome { index; payload } ->
    if index >= 0 && index < n then
      (match f.states.(index) with
       | Done _ -> ()     (* first outcome wins; duplicates ignored *)
       | Free _ | Leased _ -> f.states.(index) <- Done { payload })
  | Store.Lease { index; owner; epoch; deadline_us } ->
    if index >= 0 && index < n then
      (match f.states.(index) with
       | Done _ -> ()
       | Free { next_epoch } when epoch = next_epoch ->
         f.states.(index) <- Leased { holder = owner; epoch; deadline_us }
       | Free _ -> ()     (* stale epoch: lost race *)
       | Leased cur when epoch = cur.epoch + 1 ->
         (* reclaim of an expired lease — the claimant checked the
            clock before appending; here we only arbitrate.  The
            previous holder is charged with an expiry (it did not
            release), which is what quarantine escalation counts. *)
         if not (List.mem cur.holder f.expired.(index)) then
           f.expired.(index) <- cur.holder :: f.expired.(index);
         f.states.(index) <- Leased { holder = owner; epoch; deadline_us }
       | Leased _ -> ())
  | Store.Heartbeat { owner; deadline_us } ->
    let prev =
      Option.value (Hashtbl.find_opt f.heartbeats owner) ~default:min_int
    in
    if deadline_us > prev then Hashtbl.replace f.heartbeats owner deadline_us
  | Store.Release { index; owner; epoch } ->
    if index >= 0 && index < n then
      (match f.states.(index) with
       | Leased cur when cur.holder = owner && cur.epoch = epoch ->
         f.states.(index) <- Free { next_epoch = epoch + 1 }
       | _ -> ())

(* a lease is as alive as its holder's latest heartbeat *)
let effective f st =
  match st with
  | Leased cur ->
    (match Hashtbl.find_opt f.heartbeats cur.holder with
     | Some d when d > cur.deadline_us -> Leased { cur with deadline_us = d }
     | _ -> st)
  | Free _ | Done _ -> st

(* -------------------------------------------------------------------- *)
(* Cursors *)

type cursor = {
  path : string;
  reader : Store.reader;
  mutable fold : fold;
  mutable manifest : Store.manifest;
  mutable torn : int;
}

let cursor ~path =
  { path; reader = Store.reader ~path; fold = empty_fold 0;
    manifest = { Store.fingerprint = ""; meta = []; tasks = [] };
    torn = 0 }

let refresh c =
  Result.map
    (fun (d : Store.delta) ->
       if d.Store.d_reset then
         c.fold <- empty_fold (List.length d.Store.d_manifest.Store.tasks);
       List.iter (step c.fold) d.Store.d_entries;
       (* the next read consumes this line again, whole: harmless, see
          [step] *)
       Option.iter (step c.fold) d.Store.d_tail;
       c.manifest <- d.Store.d_manifest;
       c.torn <- d.Store.d_torn)
    (Store.read c.reader)

let view c =
  let f = c.fold in
  { manifest = c.manifest;
    states = Array.map (effective f) f.states;
    expired_owners = Array.map List.rev f.expired;
    torn = c.torn }

let load ~path =
  let c = cursor ~path in
  Result.map (fun () -> view c) (refresh c)

let is_done = function Done _ -> true | Free _ | Leased _ -> false

let remaining (v : view) =
  Array.fold_left (fun acc st -> if is_done st then acc else acc + 1) 0 v.states

let is_complete (v : view) = Array.for_all is_done v.states

let outcomes (v : view) =
  Array.to_list v.states
  |> List.mapi (fun i st -> (i, st))
  |> List.filter_map (fun (i, st) ->
      match st with Done { payload } -> Some (i, payload) | _ -> None)

(* -------------------------------------------------------------------- *)
(* Appending *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let append ~path ?(sync = false) (e : Store.entry) =
  (* the leading newline terminates whatever half-written line a killed
     peer left at the tail; blank lines are ignored by the loader *)
  let line = "\n" ^ Store.entry_line e in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  write_all fd line 0 (String.length line);
  if sync then Unix.fsync fd

(* -------------------------------------------------------------------- *)
(* The worker protocol *)

type claim_result =
  | Claimed of { index : int; epoch : int; reclaimed_from : string option }
  | Wait
  | Drained

(* first Free-or-expired task, with the epoch a claim must carry *)
let pick_claimable f ~now_us =
  let n = Array.length f.states in
  let rec go i =
    if i >= n then None
    else
      match effective f f.states.(i) with
      | Free { next_epoch } -> Some (i, next_epoch, None)
      | Leased { holder; epoch; deadline_us } when now_us > deadline_us ->
        Some (i, epoch + 1, Some holder)
      | Leased _ | Done _ -> go (i + 1)
  in
  go 0

(* refresh → pick → append lease → refresh → verify, on one cursor *)
let claim_at c ~owner ~now_us ~ttl_us ~sync =
  let ( let* ) = Result.bind in
  let rec go () =
    match pick_claimable c.fold ~now_us with
    | None ->
      Ok (if Array.for_all is_done c.fold.states then Drained else Wait)
    | Some (index, epoch, reclaimed_from) ->
      append ~path:c.path ~sync
        (Store.Lease { index; owner; epoch; deadline_us = now_us + ttl_us });
      (* never trust the pre-append read: the fold over the file as it
         now stands is the arbiter *)
      let* () = refresh c in
      (match c.fold.states.(index) with
       | Leased { holder; epoch = e; _ } when holder = owner && e = epoch ->
         Ok (Claimed { index; epoch; reclaimed_from })
       | _ -> go () (* lost the race; try the next claimable task *))
  in
  let* () = refresh c in
  go ()

let claim ~path ~owner ~now_us ~ttl_us ?(sync = false) () =
  claim_at (cursor ~path) ~owner ~now_us ~ttl_us ~sync

let heartbeat ~path ~owner ~deadline_us ?(sync = false) () =
  append ~path ~sync (Store.Heartbeat { owner; deadline_us })

let release ~path ~index ~owner ~epoch ?(sync = false) () =
  append ~path ~sync (Store.Release { index; owner; epoch })

let complete ~path ~index ~payload ?(sync = false) () =
  append ~path ~sync (Store.Outcome { index; payload })

(* -------------------------------------------------------------------- *)
(* Worker loop *)

module Worker = struct
  type outcome = Complete | Drained

  let run ?obs ?(stop = fun () -> false) ?(now_us = now_us)
      ?(sleep_us = fun us -> Unix.sleepf (float_of_int us /. 1e6))
      ?(sync = false) ~path ~owner ~ttl_us ~heartbeat_us ~poll_us task =
    let emit ev = Obs.Sink.emit_opt obs ev in
    emit (Obs.Event.Worker_event { owner; kind = "start" });
    (* the heartbeat domain parks in select(2) on a self-pipe: it
       sleeps whole heartbeat periods without polling (wake-churn from
       N sleeping domains is visible wall time on small hosts) and the
       worker's exit write wakes it instantly, so Domain.join has no
       tail *)
    let hb_stop = Atomic.make false in
    let hb =
      if heartbeat_us <= 0 then None
      else begin
        let rd, wr = Unix.pipe ~cloexec:true () in
        let d =
          Domain.spawn (fun () ->
              (* the heartbeat domain always runs on the real clock:
                 its job is to convince OTHER processes' real-clock
                 expiry checks that we are alive *)
              let rec beat () =
                if not (Atomic.get hb_stop) then
                  match
                    Unix.select [ rd ] [] []
                      (float_of_int heartbeat_us /. 1e6)
                  with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> beat ()
                  | _ :: _, _, _ -> ()   (* stop signalled *)
                  | [], _, _ ->
                    if not (Atomic.get hb_stop) then begin
                      (try
                         heartbeat ~path ~owner
                           ~deadline_us:(now_us () + ttl_us) ~sync ()
                       with _ -> ());
                      beat ()
                    end
              in
              beat ())
        in
        Some (d, rd, wr)
      end
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set hb_stop true;
        Option.iter
          (fun (d, rd, wr) ->
             (try ignore (Unix.write_substring wr "x" 0 1)
              with Unix.Unix_error _ -> ());
             Domain.join d;
             Unix.close rd;
             Unix.close wr)
          hb)
    @@ fun () ->
    let c = cursor ~path in
    let rec loop () =
      if stop () then begin
        emit (Obs.Event.Worker_event { owner; kind = "drain" });
        Drained
      end
      else
        match claim_at c ~owner ~now_us:(now_us ()) ~ttl_us ~sync with
        | Error e -> failwith e
        | Ok Wait ->
          sleep_us poll_us;
          loop ()
        | Ok (Claimed { index; epoch; reclaimed_from }) ->
          emit
            (Obs.Event.Lease_claim
               { index; owner; epoch;
                 reclaimed = reclaimed_from <> None });
          Option.iter
            (fun dead ->
               emit
                 (Obs.Event.Lease_expired
                    { index; owner = dead; epoch = epoch - 1 }))
            reclaimed_from;
          (match task index with
           | payload ->
             complete ~path ~index ~payload ~sync ()
           | exception e ->
             (* hand the lease back so a peer can take over, then let
                the wreckage surface *)
             (try release ~path ~index ~owner ~epoch ~sync () with _ -> ());
             raise e);
          loop ()
        | Ok Drained ->
          emit (Obs.Event.Worker_event { owner; kind = "complete" });
          Complete
    in
    loop ()
end
