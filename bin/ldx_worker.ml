(* ldx_worker: one campaign-service worker process.

     ldx_worker --queue campaign.ldx --owner w0 prog.minic --sweep-seeds 40

   Claims tasks off the lease queue in the journal, heartbeats while it
   works, executes each task through the campaign runner, and appends
   the outcome.  SIGTERM/SIGINT request a clean drain: the in-flight
   task finishes (its outcome is journaled), the lease queue is left
   consistent, and the process exits 21.  SIGKILL needs no handling —
   the lease TTL makes this worker's tasks reclaimable by any peer.

   Exit codes: 0 = queue complete, 21 = drained on signal, 1 = error
   (bad spec, fingerprint mismatch, unreadable journal). *)

open Cmdliner
module Campaign = Ldx_core.Campaign
module Service_common = Ldx_service_cli.Service_common

let exit_drained = 21

let queue_arg =
  Arg.(required & opt (some string) None
       & info [ "queue" ] ~docv:"FILE"
         ~doc:"The campaign journal / lease queue (written by \
               ldx_campaignd or Campaign.Service.init).")

let owner_arg =
  Arg.(value & opt (some string) None
       & info [ "owner" ] ~docv:"NAME"
         ~doc:"This worker's identity in lease records (space-free). \
               Default: w<pid>.")

let ttl_ms =
  Arg.(value & opt int 5000
       & info [ "ttl-ms" ] ~docv:"MS"
         ~doc:"Lease time-to-live: how long after this worker's last \
               heartbeat its leases become reclaimable.")

let heartbeat_ms =
  Arg.(value & opt int 1000
       & info [ "heartbeat-ms" ] ~docv:"MS"
         ~doc:"Heartbeat period (0 disables; leases then expire TTL \
               after the claim).")

let poll_ms =
  Arg.(value & opt int 200
       & info [ "poll-ms" ] ~docv:"MS"
         ~doc:"Sleep between queue polls when nothing is claimable.")

let crash_after_tasks =
  Arg.(value & opt (some int) None
       & info [ "crash-after-tasks" ] ~docv:"N"
         ~doc:"Crash-injection hook for CI: SIGKILL this process as it \
               starts task attempt number $(docv)+1 (retries count), \
               while it holds that task's lease.")

let main queue owner ttl_ms heartbeat_ms poll_ms crash_after_tasks spec =
  let owner =
    match owner with Some o -> o | None -> Printf.sprintf "w%d" (Unix.getpid ())
  in
  match Service_common.resolve spec with
  | Error e -> `Error (false, e)
  | Ok c ->
    (* graceful drain: the handler only flips a flag; the worker loop
       polls it between tasks, so the in-flight task always finishes *)
    let draining = Atomic.make false in
    let request_drain signal_name _ =
      if not (Atomic.get draining) then
        Printf.eprintf "ldx_worker[%s]: %s received, draining\n%!" owner
          signal_name;
      Atomic.set draining true
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (request_drain "SIGTERM"));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (request_drain "SIGINT"));
    let runner =
      Option.map
        (fun n ->
           let started = ref 0 in
           fun ?obs cfg prog world mo ->
             incr started;
             if !started > n then Unix.kill (Unix.getpid ()) Sys.sigkill;
             Ldx_core.Engine.run_with_master ?obs cfg prog world mo)
        crash_after_tasks
    in
    (match
       Campaign.Service.worker
         ~stop:(fun () -> Atomic.get draining)
         ?runner ~sync:spec.Service_common.sync ?retry:c.Service_common.retry
         ?deadline:c.Service_common.deadline ~path:queue ~owner
         ~ttl_us:(ttl_ms * 1000) ~heartbeat_us:(heartbeat_ms * 1000)
         ~poll_us:(poll_ms * 1000) ~config:c.Service_common.config
         c.Service_common.prog c.Service_common.world c.Service_common.params
     with
     | Ok `Complete ->
       Printf.eprintf "ldx_worker[%s]: queue complete\n%!" owner;
       `Ok ()
     | Ok `Drained ->
       Printf.eprintf "ldx_worker[%s]: drained\n%!" owner;
       exit exit_drained
     | Error e -> `Error (false, e))

let cmd =
  let info =
    Cmd.info "ldx_worker"
      ~doc:"Campaign-service worker: claim, heartbeat, execute, journal"
  in
  Cmd.v info
    Term.(
      ret
        (const main $ queue_arg $ owner_arg $ ttl_ms $ heartbeat_ms $ poll_ms
         $ crash_after_tasks $ Service_common.term))

let () = exit (Cmd.eval cmd)
