(* ldx_campaignd: the campaign-service supervisor.

     ldx_campaignd --queue campaign.ldx --workers 3 prog.minic --sweep-seeds 40

   Initializes the journal/lease-queue (idempotent: restarting on the
   same queue file resumes the campaign), spawns N ldx_worker
   processes, and supervises them: dead workers are reaped and
   respawned with backoff under fresh owner identities, workers that
   stop heartbeating while still alive are SIGKILLed (the respawn path
   then recovers them), and a task whose lease has expired under
   --max-kills distinct owners is escalated to cross-process
   quarantine.  When every task is done the fleet is drained (SIGTERM)
   and the rendered table — byte-identical to a single-process
   --jobs 1 run — is printed to stdout.

   Exit codes: 0 = campaign complete, 21 = supervisor drained on
   SIGTERM/SIGINT, 1 = error. *)

open Cmdliner
module Campaign = Ldx_core.Campaign
module Q = Ldx_queue.Queue
module Service_common = Ldx_service_cli.Service_common

let exit_drained = 21

let queue_arg =
  Arg.(required & opt (some string) None
       & info [ "queue" ] ~docv:"FILE"
         ~doc:"The campaign journal / lease queue.  Reusing the file of \
               an identical campaign resumes it; a different campaign \
               re-initializes it.")

let workers_arg =
  Arg.(value & opt int 3
       & info [ "workers" ] ~docv:"N" ~doc:"Worker processes to run.")

let max_kills =
  Arg.(value & opt int 3
       & info [ "max-kills" ] ~docv:"K"
         ~doc:"Quarantine a task once its lease has expired under \
               $(docv) distinct workers (\"it keeps killing them\").")

let ttl_ms =
  Arg.(value & opt int 5000
       & info [ "ttl-ms" ] ~docv:"MS" ~doc:"Worker lease time-to-live.")

let heartbeat_ms =
  Arg.(value & opt int 1000
       & info [ "heartbeat-ms" ] ~docv:"MS" ~doc:"Worker heartbeat period.")

let poll_ms =
  Arg.(value & opt int 200
       & info [ "poll-ms" ] ~docv:"MS" ~doc:"Worker queue-poll period.")

let respawn_backoff_ms =
  Arg.(value & opt int 200
       & info [ "respawn-backoff-ms" ] ~docv:"MS"
         ~doc:"Base respawn delay after a worker death; doubles per \
               consecutive death of the same slot (capped at 16x).")

let kill_after_outcomes =
  Arg.(value & opt (some int) None
       & info [ "kill-after-outcomes" ] ~docv:"N"
         ~doc:"Crash-injection hook for CI: every first-generation \
               worker SIGKILLs itself as it starts its task attempt \
               number $(docv)+1, holding that task's lease (ldx_worker \
               --crash-after-tasks); supervision must recover the \
               fleet.  With more than $(docv) tasks per worker at least \
               one worker dies, whatever the timing.")

let worker_exe_arg =
  Arg.(value & opt (some string) None
       & info [ "worker-exe" ] ~docv:"PATH"
         ~doc:"The ldx_worker executable (default: a sibling of this \
               binary).")

type slot = {
  mutable pid : int;
  mutable owner : string;
  mutable gen : int;
  mutable deaths : int;   (* consecutive abnormal deaths, for backoff *)
  mutable live : bool;
}

let main queue workers max_kills ttl_ms heartbeat_ms poll_ms
    respawn_backoff_ms kill_after_outcomes worker_exe spec =
  match Service_common.resolve spec with
  | Error e -> `Error (false, e)
  | Ok c ->
    let sync = spec.Service_common.sync in
    Campaign.Service.init ~sync ?retry:c.Service_common.retry
      ?deadline:c.Service_common.deadline ~path:queue
      ~config:c.Service_common.config c.Service_common.prog
      c.Service_common.world c.Service_common.params;
    Printf.eprintf "ldx_campaignd: queue %s (%d tasks, %d workers)\n%!" queue
      (List.length c.Service_common.params)
      workers;
    let exe =
      match worker_exe with
      | Some p -> p
      | None ->
        Filename.concat (Filename.dirname Sys.executable_name) "ldx_worker.exe"
    in
    let spec_argv = Array.of_list (Service_common.to_argv spec) in
    let my_pid = Unix.getpid () in
    let spawn slot_id gen =
      let owner = Printf.sprintf "w%d.%d.p%d" slot_id gen my_pid in
      let argv =
        Array.concat
          [ [| exe; "--queue"; queue; "--owner"; owner;
               "--ttl-ms"; string_of_int ttl_ms;
               "--heartbeat-ms"; string_of_int heartbeat_ms;
               "--poll-ms"; string_of_int poll_ms |];
            (match kill_after_outcomes with
             | Some n when gen = 0 ->
               [| "--crash-after-tasks"; string_of_int n |]
             | _ -> [||]);
            spec_argv ]
      in
      let pid =
        Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr
      in
      (pid, owner)
    in
    let slots =
      Array.init workers (fun i ->
          let pid, owner = spawn i 0 in
          Printf.eprintf "ldx_campaignd: spawned worker %s (pid %d)\n%!" owner
            pid;
          { pid; owner; gen = 0; deaths = 0; live = true })
    in
    let draining = Atomic.make false in
    let request_drain _ = Atomic.set draining true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_drain);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_drain);
    let escalate () =
      match Campaign.Service.escalate ~sync ~path:queue ~kills:max_kills () with
      | Ok 0 | Error _ -> ()
      | Ok n ->
        Printf.eprintf
          "ldx_campaignd: quarantined %d task(s) that kept killing workers\n%!"
          n
    in
    let describe st =
      match st with
      | Unix.WEXITED c when c = exit_drained -> ("drained", true)
      | Unix.WEXITED 0 -> ("complete", true)
      | Unix.WEXITED c -> (Printf.sprintf "exit %d" c, false)
      | Unix.WSIGNALED s -> (Printf.sprintf "signal %d" s, false)
      | Unix.WSTOPPED s -> (Printf.sprintf "stopped %d" s, false)
    in
    (* the supervisor's one view of the journal: each poll folds only
       what the fleet appended since the previous one *)
    let journal = Q.cursor ~path:queue in
    let load () = Result.map (fun () -> Q.view journal) (Q.refresh journal) in
    let complete () =
      match load () with
      | Ok v -> Q.is_complete v
      | Error _ -> false
    in
    (* reap dead workers; respawn abnormal deaths (with backoff) unless
       the campaign is over or we are draining *)
    let reap_and_respawn () =
      Array.iteri
        (fun i s ->
           if s.live then
             match Unix.waitpid [ Unix.WNOHANG ] s.pid with
             | 0, _ -> ()
             | _, st ->
               let how, clean = describe st in
               s.live <- false;
               Printf.eprintf "ldx_campaignd: worker %s died (%s)\n%!" s.owner
                 how;
               if not clean then begin
                 s.deaths <- s.deaths + 1;
                 (* the dead worker's leases expire on their own; check
                    whether any task has now eaten too many workers *)
                 escalate ();
                 if (not (Atomic.get draining)) && not (complete ()) then begin
                   let backoff =
                     float_of_int
                       (respawn_backoff_ms * min 16 (1 lsl (s.deaths - 1)))
                     /. 1000.
                   in
                   Unix.sleepf backoff;
                   s.gen <- s.gen + 1;
                   let pid, owner = spawn i s.gen in
                   s.pid <- pid;
                   s.owner <- owner;
                   s.live <- true;
                   Printf.eprintf
                     "ldx_campaignd: respawned worker %s (pid %d, backoff \
                      %.1fs)\n%!"
                     owner pid backoff
                 end
               end
               else s.deaths <- 0
             | exception Unix.Unix_error (Unix.ECHILD, _, _) -> s.live <- false)
        slots
    in
    (* a worker that holds a lease expired well past its TTL while its
       process is still alive is hung (stopped heartbeating): put it
       out of its misery, the respawn path recovers it *)
    let kill_hung now_us v =
      Array.iter
        (fun st ->
           match st with
           | Q.Leased { holder; deadline_us; _ }
             when now_us > deadline_us + (ttl_ms * 1000) ->
             Array.iter
               (fun s ->
                  if s.live && s.owner = holder then begin
                    Printf.eprintf
                      "ldx_campaignd: worker %s stopped heartbeating, \
                       killing it\n%!"
                      s.owner;
                    (try Unix.kill s.pid Sys.sigkill with _ -> ())
                  end)
               slots
           | _ -> ())
        v.Q.states
    in
    let rec supervise () =
      if Atomic.get draining then `Drain
      else begin
        reap_and_respawn ();
        match load () with
        | Error e ->
          Printf.eprintf "ldx_campaignd: %s\n%!" e;
          `Error e
        | Ok v ->
          if Q.is_complete v then `Complete
          else begin
            kill_hung (Q.now_us ()) v;
            if not (Array.exists (fun s -> s.live) slots) then begin
              (* whole fleet gone and the queue is not finished: respawn
                 happens in reap_and_respawn, so getting here means
                 draining or unrecoverable — check once more *)
              escalate ()
            end;
            Unix.sleepf 0.05;
            supervise ()
          end
      end
    in
    let shutdown () =
      Array.iter
        (fun s ->
           if s.live then try Unix.kill s.pid Sys.sigterm with _ -> ())
        slots;
      Array.iter
        (fun s ->
           if s.live then begin
             (match Unix.waitpid [] s.pid with
              | _, st ->
                let how, _ = describe st in
                Printf.eprintf "ldx_campaignd: worker %s exited (%s)\n%!"
                  s.owner how
              | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
             s.live <- false
           end)
        slots
    in
    (match supervise () with
     | `Complete ->
       shutdown ();
       (match Campaign.Service.collect ~path:queue c.Service_common.params with
        | Ok outs ->
          print_string (Campaign.render outs);
          Printf.eprintf "ldx_campaignd: campaign complete (journal %s)\n%!"
            queue;
          `Ok ()
        | Error e -> `Error (false, e))
     | `Drain ->
       Printf.eprintf "ldx_campaignd: draining on signal\n%!";
       shutdown ();
       exit exit_drained
     | `Error e ->
       shutdown ();
       `Error (false, e))

let cmd =
  let info =
    Cmd.info "ldx_campaignd"
      ~doc:"Campaign-service supervisor: spawn, watch, respawn, escalate"
  in
  Cmd.v info
    Term.(
      ret
        (const main $ queue_arg $ workers_arg $ max_kills $ ttl_ms
         $ heartbeat_ms $ poll_ms $ respawn_backoff_ms $ kill_after_outcomes
         $ worker_exe_arg $ Service_common.term))

let () = exit (Cmd.eval cmd)
