(* lib/queue + Campaign.Service: the cross-process campaign service.

   - lease arbitration is structural (first record in file order for an
     (index, epoch) wins) and claims never trust their pre-append read;
   - expiry is strict ([now > deadline]) and judged by the claimant;
     heartbeats extend every lease their owner holds;
   - a release hands a task back with no expiry charge; a reclaim
     charges the previous holder (the quarantine-escalation input);
   - outcomes are exactly-once: the first [o] record wins, duplicates
     from wrongly-reclaimed-but-alive workers are ignored;
   - kill-anywhere (qcheck): SIGKILL service workers at random points;
     every task still completes exactly once and the rendered table is
     byte-identical to an uninterrupted single-process run. *)

module Store = Ldx_store.Store
module Q = Ldx_queue.Queue
module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Counter = Ldx_instrument.Counter
module Lower = Ldx_cfg.Lower
module World = Ldx_osim.World

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let with_tmp f =
  let path = Filename.temp_file "ldx_test_queue" ".ldx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* a bare v2 queue of [n] tasks, no campaign semantics attached *)
let mk_queue ~path n =
  let manifest =
    { Store.fingerprint = Store.fingerprint [ "queue"; "test" ];
      meta = [ ("tasks", string_of_int n) ];
      tasks = List.init n (Printf.sprintf "task#%d") }
  in
  Store.close (Store.checkpoint_entries ~path manifest [])

let view path =
  match Q.load ~path with Ok v -> v | Error e -> Alcotest.fail e

let claim_exn ~path ~owner ~now_us ~ttl_us =
  match Q.claim ~path ~owner ~now_us ~ttl_us () with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Claim / expiry / release semantics (deterministic clocks).          *)

let test_claim_fresh () =
  with_tmp @@ fun path ->
  mk_queue ~path 3;
  (match claim_exn ~path ~owner:"w1" ~now_us:1_000 ~ttl_us:500 with
   | Q.Claimed { index = 0; epoch = 0; reclaimed_from = None } -> ()
   | _ -> Alcotest.fail "expected a fresh claim of task 0");
  match (view path).Q.states.(0) with
  | Q.Leased { holder = "w1"; epoch = 0; deadline_us = 1_500 } -> ()
  | _ -> Alcotest.fail "expected w1's lease with deadline now+ttl"

let test_live_leases_mean_wait () =
  with_tmp @@ fun path ->
  mk_queue ~path 2;
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  (* both tasks leased and neither expired — even AT the deadline,
     expiry is strict *)
  (match claim_exn ~path ~owner:"w2" ~now_us:100 ~ttl_us:100 with
   | Q.Wait -> ()
   | _ -> Alcotest.fail "expected Wait while live leases cover the queue");
  check int "nothing is done yet" 2 (Q.remaining (view path))

let test_expiry_reclaims_and_charges () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  (match claim_exn ~path ~owner:"w2" ~now_us:101 ~ttl_us:100 with
   | Q.Claimed { index = 0; epoch = 1; reclaimed_from = Some "w1" } -> ()
   | _ -> Alcotest.fail "expected a reclaim of w1's expired lease");
  let v = view path in
  check bool "w1 charged with the expiry" true
    (v.Q.expired_owners.(0) = [ "w1" ]);
  match v.Q.states.(0) with
  | Q.Leased { holder = "w2"; epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "expected w2 to hold epoch 1"

let test_heartbeat_extends () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  Q.heartbeat ~path ~owner:"w1" ~deadline_us:1_000 ();
  (* past the original deadline but inside the heartbeat's *)
  (match claim_exn ~path ~owner:"w2" ~now_us:500 ~ttl_us:100 with
   | Q.Wait -> ()
   | _ -> Alcotest.fail "heartbeat should have kept the lease alive");
  match claim_exn ~path ~owner:"w2" ~now_us:1_001 ~ttl_us:100 with
  | Q.Claimed { reclaimed_from = Some "w1"; _ } -> ()
  | _ -> Alcotest.fail "expected expiry once the heartbeat lapsed too"

let test_release_hands_back_without_charge () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  Q.release ~path ~index:0 ~owner:"w1" ~epoch:0 ();
  let v = view path in
  (match v.Q.states.(0) with
   | Q.Free { next_epoch = 1 } -> ()
   | _ -> Alcotest.fail "expected Free with the next epoch");
  check bool "a release is not an expiry" true (v.Q.expired_owners.(0) = []);
  (* the released task is immediately claimable, no waiting for TTL *)
  match claim_exn ~path ~owner:"w2" ~now_us:1 ~ttl_us:100 with
  | Q.Claimed { index = 0; epoch = 1; reclaimed_from = None } -> ()
  | _ -> Alcotest.fail "expected a fresh claim at the bumped epoch"

let test_outcome_first_wins () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  Q.complete ~path ~index:0 ~payload:"first" ();
  (* a slow worker whose lease was wrongly reclaimed reports late *)
  Q.complete ~path ~index:0 ~payload:"second" ();
  let v = view path in
  (match v.Q.states.(0) with
   | Q.Done { payload = "first" } -> ()
   | _ -> Alcotest.fail "expected the first outcome to win");
  check bool "queue complete, duplicate ignored" true
    (Q.is_complete v && Q.outcomes v = [ (0, "first") ]);
  match claim_exn ~path ~owner:"w" ~now_us:0 ~ttl_us:1 with
  | Q.Drained -> ()
  | _ -> Alcotest.fail "expected Drained on a complete queue"

(* Two workers race a claim for the same (index, epoch): the first
   record in file order wins, regardless of whose deadline is later. *)
let test_arbitration_first_record_wins () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  Q.append ~path
    (Store.Lease { index = 0; owner = "early"; epoch = 0; deadline_us = 10 });
  Q.append ~path
    (Store.Lease { index = 0; owner = "late"; epoch = 0; deadline_us = 99 });
  match (view path).Q.states.(0) with
  | Q.Leased { holder = "early"; epoch = 0; _ } -> ()
  | _ -> Alcotest.fail "expected the first record in file order to win"

(* ------------------------------------------------------------------ *)
(* Cursors: the incremental fold equals the full fold.                 *)

(* One random v2 journal, grown one step at a time: lease, heartbeat,
   release and outcome records from three owners (stale epochs and
   duplicate outcomes included), records torn at a random byte and
   left for the next append's leading newline to terminate, and (once
   per case, sometimes) a checkpoint that replaces the file.  After
   every refresh at a random point, the long-lived cursor must see
   exactly what a fresh [Q.load] of the same bytes sees. *)
let cursor_matches_load seed =
  with_tmp @@ fun path ->
  let rand = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rand (List.length l)) in
  let int k = Random.State.int rand k in
  let n = 1 + int 4 in
  mk_queue ~path n;
  let manifest =
    match Store.load ~path with
    | Ok l -> l.Store.l_manifest
    | Error e -> Alcotest.fail e
  in
  let entry () =
    let owner = pick [ "a"; "b"; "c" ] and index = int (n + 1) in
    match int 4 with
    | 0 -> Store.Lease { index; owner; epoch = int 4; deadline_us = int 100 }
    | 1 -> Store.Heartbeat { owner; deadline_us = int 100 }
    | 2 -> Store.Release { index; owner; epoch = int 4 }
    | _ -> Store.Outcome { index; payload = pick [ "x"; "two words"; "a\nb" ] }
  in
  let append_raw s =
    let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
    output_string oc s;
    close_out oc
  in
  let c = Q.cursor ~path in
  let checkpointed = ref (int 2 = 0) in
  let agree = ref true in
  for _ = 1 to 30 do
    match int 10 with
    | 0 | 1 | 2 | 3 -> Q.append ~path (entry ())
    | 4 ->
      (* a writer killed mid-write(2): its record lacks the newline
         and maybe more; the cut just before the newline leaves a
         valid record on an unterminated last line *)
      let line = Store.entry_line (entry ()) in
      let len = String.length line in
      let cut = if int 3 = 0 then len - 1 else int len in
      append_raw ("\n" ^ String.sub line 0 cut)
    | 5 when not !checkpointed ->
      checkpointed := true;
      Store.close
        (Store.checkpoint_entries ~path manifest
           (List.init (int 4) (fun _ -> entry ())))
    | _ ->
      (match (Q.refresh c, Q.load ~path) with
       | Ok (), Ok full ->
         let v = Q.view c in
         agree :=
           !agree
           && v.Q.states = full.Q.states
           && v.Q.expired_owners = full.Q.expired_owners
           && v.Q.torn = full.Q.torn
           && v.Q.manifest = full.Q.manifest
       | Error e, _ | _, Error e -> Alcotest.fail e)
  done;
  !agree

let cursor_prop =
  QCheck.Test.make ~count:300
    ~name:"cursor refreshes fold to the same view as a full load"
    QCheck.int cursor_matches_load

(* ------------------------------------------------------------------ *)
(* Worker loop (in-process, deterministic clock).                      *)

let test_worker_runs_each_task_once () =
  with_tmp @@ fun path ->
  let n = 5 in
  mk_queue ~path n;
  let runs = Array.make n 0 in
  let outcome =
    Q.Worker.run ~now_us:(fun () -> 0) ~path ~owner:"w1" ~ttl_us:1_000
      ~heartbeat_us:0 ~poll_us:1
      (fun i ->
         runs.(i) <- runs.(i) + 1;
         Printf.sprintf "out-%d" i)
  in
  check bool "worker drained the queue" true (outcome = Q.Worker.Complete);
  Array.iteri
    (fun i c -> check int (Printf.sprintf "task %d ran exactly once" i) 1 c)
    runs;
  let v = view path in
  check bool "every outcome journaled in task order" true
    (Q.outcomes v = List.init n (fun i -> (i, Printf.sprintf "out-%d" i)))

let test_worker_stop_drains_after_inflight () =
  with_tmp @@ fun path ->
  mk_queue ~path 3;
  let stop = ref false in
  let outcome =
    Q.Worker.run ~now_us:(fun () -> 0)
      ~stop:(fun () -> !stop)
      ~path ~owner:"w1" ~ttl_us:1_000 ~heartbeat_us:0 ~poll_us:1
      (fun i ->
         (* a drain lands while task 0 is in flight *)
         stop := true;
         Printf.sprintf "out-%d" i)
  in
  check bool "worker reported a drain" true (outcome = Q.Worker.Drained);
  let v = view path in
  check bool "the in-flight task finished and was journaled" true
    (Q.outcomes v = [ (0, "out-0") ]);
  check int "the rest were never claimed" 2 (Q.remaining v)

(* ------------------------------------------------------------------ *)
(* Campaign service (in-process).                                      *)

let attribution_src =
  {| fn main() {
       let x = socket("x");
       let y = socket("y");
       let vx = recv(x);
       let vy = recv(y);
       send(x, vx);
       send(y, vy);
     } |}

let attribution_world =
  World.(empty |> with_endpoint "x" [ "11" ] |> with_endpoint "y" [ "22" ])

let instrumented src = fst (Counter.instrument (Lower.lower_source src))

let svc_config =
  { Engine.default_config with
    Engine.sources = [ Engine.source ~sys:"recv" () ];
    sinks = Engine.Network_outputs }

let svc_params config = Campaign.of_seeds config [ 0; 1; 2; 3; 4; 5 ]

let run_service_worker ?stop ?runner ~path ~owner ~config prog params =
  Campaign.Service.worker ?stop ?runner ~path ~owner ~ttl_us:2_000_000
    ~heartbeat_us:0 ~poll_us:1_000 ~config prog attribution_world params

(* One service worker over an init'ed queue renders byte-identically to
   Campaign.run ~jobs:1, and re-init on the same file is idempotent
   (the supervisor-restart = resume path). *)
let test_service_matches_single_process () =
  with_tmp @@ fun path ->
  let prog = instrumented attribution_src in
  let config = svc_config in
  let params = svc_params config in
  let reference =
    Campaign.render (Campaign.run ~jobs:1 ~config prog attribution_world params)
  in
  Campaign.Service.init ~path ~config prog attribution_world params;
  (match run_service_worker ~path ~owner:"w1" ~config prog params with
   | Ok `Complete -> ()
   | Ok `Drained -> Alcotest.fail "worker drained unexpectedly"
   | Error e -> Alcotest.fail e);
  (match Campaign.Service.collect ~path params with
   | Error e -> Alcotest.fail e
   | Ok outs ->
     Alcotest.(check string) "service table byte-identical to --jobs 1"
       reference (Campaign.render outs));
  (* restarting the service on the same queue keeps the outcomes *)
  Campaign.Service.init ~path ~config prog attribution_world params;
  match Campaign.Service.collect ~path params with
  | Error e -> Alcotest.fail e
  | Ok outs ->
    Alcotest.(check string) "re-init preserved the finished campaign"
      reference (Campaign.render outs)

(* A worker launched against a queue initialized for a DIFFERENT
   campaign must refuse (fingerprint handshake). *)
let test_service_fingerprint_mismatch () =
  with_tmp @@ fun path ->
  let prog = instrumented attribution_src in
  let config = svc_config in
  Campaign.Service.init ~path ~config prog attribution_world
    (svc_params config);
  let other = Campaign.of_seeds config [ 9 ] in
  match run_service_worker ~path ~owner:"w1" ~config prog other with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a fingerprint-mismatch error"

(* A task whose lease keeps expiring under distinct owners is parked as
   Quarantined by the supervisor's escalation sweep. *)
let test_service_escalation () =
  with_tmp @@ fun path ->
  let prog = instrumented attribution_src in
  let config = svc_config in
  let params = Campaign.of_seeds config [ 0 ] in
  Campaign.Service.init ~path ~config prog attribution_world params;
  (* three workers claim it and die (their leases expire unreleased) *)
  List.iteri
    (fun k owner ->
       let now_us = k * 101 in
       match claim_exn ~path ~owner ~now_us ~ttl_us:100 with
       | Q.Claimed _ -> ()
       | _ -> Alcotest.failf "claim %d should have succeeded" k)
    [ "w1"; "w2"; "w3" ];
  (* w1 and w2 are charged; w3's lease is still live *)
  (match Campaign.Service.escalate ~path ~kills:3 () with
   | Ok 0 -> ()
   | Ok n -> Alcotest.failf "escalated %d task(s) below the threshold" n
   | Error e -> Alcotest.fail e);
  (* the third expiry crosses the threshold *)
  (match claim_exn ~path ~owner:"w4" ~now_us:303 ~ttl_us:100 with
   | Q.Claimed _ -> ()
   | _ -> Alcotest.fail "fourth claim should have succeeded");
  (match Campaign.Service.escalate ~path ~kills:3 () with
   | Ok 1 -> ()
   | Ok n -> Alcotest.failf "expected one escalation, got %d" n
   | Error e -> Alcotest.fail e);
  let v = view path in
  check bool "task parked" true (Q.is_complete v);
  match v.Q.states.(0) with
  | Q.Done { payload } ->
    (match Campaign.decode_outcome payload with
     | Some (Campaign.Quarantined _, _) -> ()
     | _ -> Alcotest.fail "expected a Quarantined payload")
  | _ -> Alcotest.fail "expected Done"

(* ------------------------------------------------------------------ *)
(* Kill-anywhere: SIGKILL real worker processes at random points.      *)

(* The actual service worker binary (OCaml 5 forbids [Unix.fork] in a
   process that ever created domains, and exercising the shipped
   binary is the stronger test anyway).  Tests run from the build
   sandbox, so the exe is a sibling build directory; [test/dune]
   declares the dependency. *)
let worker_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/ldx_worker.exe"; "bin/ldx_worker.exe" ]

(* A campaign slow enough (~2-3ms/task over 16 tasks) that SIGKILLs
   land mid-campaign and mid-task. *)
let kill_src =
  {| fn main() {
       let i = 0;
       while (i < 60000) { i = i + 1; }
       let x = socket("x");
       let y = socket("y");
       let vx = recv(x);
       let vy = recv(y);
       send(x, vx);
       send(y, vy);
     } |}

let kill_seeds = 16

(* One round: spawn a worker process on the queue, SIGKILL it after a
   random delay for the first few rounds, then let one run to
   completion (it has to wait out the dead workers' lease TTLs to
   reclaim their tasks).  Afterwards every task must hold exactly one
   outcome and the rendered table must be byte-identical to an
   uninterrupted single-process run. *)
let kill_anywhere_round seed =
  match worker_exe () with
  | None -> QCheck.assume_fail () (* exe not visible from this sandbox *)
  | Some exe ->
    with_tmp @@ fun path ->
    let prog_file = Filename.temp_file "ldx_test_queue" ".minic" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove prog_file with Sys_error _ -> ())
    @@ fun () ->
    Out_channel.with_open_text prog_file (fun oc ->
        output_string oc kill_src);
    let prog = instrumented kill_src in
    let config = svc_config in
    let params = Campaign.of_seeds config (List.init kill_seeds Fun.id) in
    let reference =
      Campaign.render
        (Campaign.run ~jobs:1 ~config prog attribution_world params)
    in
    Campaign.Service.init ~path ~config prog attribution_world params;
    let rand = Random.State.make [| seed |] in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    let spawn owner =
      (* short TTL so a SIGKILLed holder's tasks are reclaimable fast;
         the argv mirrors what ldx_campaignd passes its workers *)
      let argv =
        [| exe; "--queue"; path; "--owner"; owner; "--ttl-ms"; "60";
           "--heartbeat-ms"; "10"; "--poll-ms"; "2"; prog_file;
           "--endpoint"; "x=11"; "--endpoint"; "y=22"; "--sink"; "network";
           "--sweep-seeds"; string_of_int kill_seeds |]
      in
      Unix.create_process exe argv Unix.stdin null null
    in
    let rounds = ref 0 in
    while (not (Q.is_complete (view path))) && !rounds < 40 do
      incr rounds;
      let pid = spawn (Printf.sprintf "k%d.%d" seed !rounds) in
      if !rounds <= 3 then begin
        (* SIGKILL at a random point: during startup, mid-task, or
           (sometimes) after the worker already finished *)
        Unix.sleepf (0.005 +. Random.State.float rand 0.04);
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
      end;
      ignore (Unix.waitpid [] pid)
    done;
    let v = view path in
    if not (Q.is_complete v) then
      Alcotest.failf "queue incomplete after %d rounds" !rounds;
    (* exactly once: the fold holds one outcome per task *)
    if List.length (Q.outcomes v) <> List.length params then
      Alcotest.fail "outcome count differs from task count";
    match Campaign.Service.collect ~path params with
    | Error e -> Alcotest.fail e
    | Ok outs ->
      if Campaign.render outs <> reference then
        Alcotest.fail "killed-worker table differs from uninterrupted run";
      true

let kill_anywhere_prop =
  QCheck.Test.make ~count:3 ~name:"kill-anywhere: SIGKILL loses nothing"
    QCheck.small_nat kill_anywhere_round

(* ------------------------------------------------------------------ *)

let tests =
  [ Alcotest.test_case "fresh claim wins task 0" `Quick test_claim_fresh;
    Alcotest.test_case "live leases mean Wait (expiry is strict)" `Quick
      test_live_leases_mean_wait;
    Alcotest.test_case "expiry reclaims and charges the holder" `Quick
      test_expiry_reclaims_and_charges;
    Alcotest.test_case "heartbeats extend leases" `Quick
      test_heartbeat_extends;
    Alcotest.test_case "release hands back without charge" `Quick
      test_release_hands_back_without_charge;
    Alcotest.test_case "first outcome wins, duplicates ignored" `Quick
      test_outcome_first_wins;
    Alcotest.test_case "claim races: first record in file order wins" `Quick
      test_arbitration_first_record_wins;
    Alcotest.test_case "worker runs each task exactly once" `Quick
      test_worker_runs_each_task_once;
    Alcotest.test_case "worker stop = drain after the in-flight task" `Quick
      test_worker_stop_drains_after_inflight;
    Alcotest.test_case "service table matches --jobs 1" `Quick
      test_service_matches_single_process;
    Alcotest.test_case "service refuses a foreign fingerprint" `Quick
      test_service_fingerprint_mismatch;
    Alcotest.test_case "killer tasks escalate to quarantine" `Quick
      test_service_escalation;
    QCheck_alcotest.to_alcotest cursor_prop;
    QCheck_alcotest.to_alcotest kill_anywhere_prop ]
