(* ldx_run: dual-execute a MiniC program file under LDX.

     dune exec bin/ldx_run.exe -- prog.minic \
       --file /data/in=secret --endpoint srv=hello,world \
       --source recv --sink network

   Runs the master against the described world, spawns the mutated slave,
   and prints the causality report. *)

open Cmdliner
module Engine = Ldx_core.Engine
module Mutation = Ldx_core.Mutation
module World = Ldx_osim.World
module Sched = Ldx_sched.Scheduler
module Schedule = Ldx_sched.Schedule

let split_once ch s =
  match String.index_opt s ch with
  | None -> (s, "")
  | Some i ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let prog_file =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"PROGRAM.minic")

let workload_arg =
  let doc =
    "Run a registry workload (e.g. 403.gcc, 473.astar) instead of a \
     program file: its world, sources, sinks and strategy come from the \
     registry entry's leak configuration."
  in
  Arg.(value & opt (some string) None
       & info [ "workload" ] ~docv:"NAME" ~doc)

let files =
  let doc = "Add a file to the simulated world: PATH=CONTENTS (repeatable)." in
  Arg.(value & opt_all string [] & info [ "file" ] ~docv:"PATH=DATA" ~doc)

let endpoints =
  let doc =
    "Add a network endpoint: NAME=MSG1,MSG2,... (inbound script, repeatable)."
  in
  Arg.(value & opt_all string [] & info [ "endpoint" ] ~docv:"NAME=MSGS" ~doc)

let sources =
  let doc =
    "Source syscalls to mutate in the slave, e.g. 'recv' or \
     'read@/etc/secret' (syscall@resource-substring, repeatable)."
  in
  Arg.(value & opt_all string [ "recv" ] & info [ "source" ] ~docv:"SPEC" ~doc)

let sink =
  let doc = "Sink set: network | files | outputs | attack." in
  Arg.(value & opt string "outputs" & info [ "sink" ] ~docv:"KIND" ~doc)

let strategy =
  let doc = "Mutation strategy: off-by-one | bitflip | zero | random." in
  Arg.(value & opt string "off-by-one" & info [ "strategy" ] ~docv:"NAME" ~doc)

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print per-sink reports.")

let trace =
  Arg.(value & flag
       & info [ "trace" ]
         ~doc:"Print the side-by-side aligned syscall trace (Fig. 3 style).")

let dot =
  Arg.(value & flag
       & info [ "dot" ]
         ~doc:"Print the instrumented program's CFGs as Graphviz and exit.")

let attribute =
  Arg.(value & flag
       & info [ "attribute" ]
         ~doc:"Record one master pass, then run one isolated-source slave \
               pass per source and print which source each flagged sink \
               depends on.")

let sweep_strategies =
  Arg.(value & flag
       & info [ "sweep-strategies" ]
         ~doc:"Record one master pass, then run one slave pass per \
               mutation strategy and print the comparison table \
               (Sec. 8.3 study).")

let sweep_seeds =
  Arg.(value & opt (some int) None
       & info [ "sweep-seeds" ] ~docv:"N"
         ~doc:"Record one master pass, then run one slave pass per \
               slave scheduler seed 0..N-1 and print the comparison \
               table.  The single-process reference for the \
               ldx_campaignd service (identical task list and table).")

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Fan campaign slave passes (attribution, strategy sweeps) \
               out over up to $(docv) domains.  A campaign whose master \
               pass runs fewer than about 20k steps, or a host with one \
               core, uses one domain: shorter passes lose more to domain \
               start-up than they gain.  Results are identical to a \
               sequential run.")

let final_state =
  Arg.(value & flag
       & info [ "final-state" ]
         ~doc:"Also diff the two filesystems (contents and mtimes) after \
               the run.")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record the run and write a Chrome trace-event JSON dual \
               timeline (master and slave tracks, flow arrows on coupled \
               syscalls) to $(docv) — load it in Perfetto or \
               chrome://tracing.")

let profile_flag =
  Arg.(value & flag
       & info [ "profile" ]
         ~doc:"Attach deterministic cost-attribution profiles to both \
               executions and print the ranked report (per-opcode, \
               per-CFG-block, per-syscall and engine coupling \
               categories in virtual cycles).  Profiling never perturbs \
               the run: verdicts and engine counters are bit-identical \
               with it on or off.")

let profile_json =
  Arg.(value & opt (some string) None
       & info [ "profile-json" ] ~docv:"FILE"
         ~doc:"Write the profile as JSON (schema ldx-prof/1) to $(docv) \
               — renderable and diffable later with ldx_prof.")

let profile_folded =
  Arg.(value & opt (some string) None
       & info [ "profile-folded" ] ~docv:"FILE"
         ~doc:"Write the profile as folded stacks \
               (side;function;block cycles) to $(docv), ready for \
               flamegraph.pl.")

let progress =
  Arg.(value & flag
       & info [ "progress" ]
         ~doc:"Campaign modes: print a live status line to stderr from \
               the campaign's heartbeat events (completed/total tasks, \
               virtual cycles done, cycle-based ETA).")

let metrics =
  Arg.(value & flag
       & info [ "metrics" ]
         ~doc:"Record the run and print the metrics tables (overhead \
               accounting, counters, histograms).")

let metrics_json =
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE"
         ~doc:"Record the run and write the metrics snapshot (plus the \
               cycle-cost model) as JSON to $(docv).")

let faults =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Inject deterministic environment faults in BOTH executions: \
               comma-separated rules ACTION:SYSCALL[@NTH][#SITE][%PROB] \
               where ACTION is error[=INT] | eof | short=K | transient | \
               drop | skew=D, e.g. 'short=2:read@1,drop:recv%50'.  The \
               same seeded plan drives master and slave, so coupling is \
               preserved and zero sources still means zero reports.")

let fault_seed =
  Arg.(value & opt int 0
       & info [ "fault-seed" ] ~docv:"N"
         ~doc:"Seed for probabilistic (%-rules) fault coins; the plan is \
               fully deterministic given the seed.")

let sched_policy =
  Arg.(value & opt (some string) None
       & info [ "sched" ] ~docv:"POLICY"
         ~doc:"Thread scheduling policy for BOTH executions: rr \
               (round-robin, the default) | random | prio:T=P,... \
               (spawn-index priorities).  Every policy is \
               bit-reproducible from --sched-seed.")

let sched_seed =
  Arg.(value & opt int 0
       & info [ "sched-seed" ] ~docv:"N"
         ~doc:"Seed for the --sched policy (pick/quantum hashes).")

let sched_replay =
  Arg.(value & opt (some file) None
       & info [ "sched-replay" ] ~docv:"FILE"
         ~doc:"Replay a schedule recorded with --sched-record in BOTH \
               executions (overrides --sched).")

let sched_record =
  Arg.(value & opt (some string) None
       & info [ "sched-record" ] ~docv:"FILE"
         ~doc:"Record the master's scheduling decisions and write the \
               schedule log to $(docv) (replayable via --sched-replay).")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
         ~doc:"With --sweep-strategies: persist the campaign manifest to \
               $(docv) and append each task outcome as it completes \
               (checksummed, flushed).  A campaign killed at any point \
               continues with --resume.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
         ~doc:"With --journal: resume the campaign from the journal — \
               replay recorded outcomes verbatim and run only the \
               missing tasks.  The rendered table is byte-identical to \
               an uninterrupted run.")

let task_deadline =
  Arg.(value & opt (some int) None
       & info [ "task-deadline" ] ~docv:"STEPS"
         ~doc:"Campaign modes: cap each slave task at $(docv) VM steps \
               (fuel-derived, so bit-deterministic — no wall clocks); a \
               task cut off below the configured budget finishes as \
               timed-out.")

let max_retries =
  Arg.(value & opt int 0
       & info [ "max-retries" ] ~docv:"N"
         ~doc:"Campaign modes: retry crashed/fuel-exhausted/timed-out \
               tasks up to $(docv) times under jittered slave seeds; a \
               task that crashes on every attempt is quarantined.")

let backoff =
  Arg.(value & opt int 1
       & info [ "backoff" ] ~docv:"BASE"
         ~doc:"Retry seed-jitter growth base: 1 = linear jitter \
               (default), larger = jitter grows BASE^(k-1) on retry k — \
               exponential backoff in seed space.")

let retry_budget =
  Arg.(value & opt (some int) None
       & info [ "retry-fuel-budget" ] ~docv:"STEPS"
         ~doc:"Cumulative VM-step budget one task may spend across all \
               its attempts; once spent, no further retries.")

let abort_after =
  Arg.(value & opt (some int) None
       & info [ "abort-after" ] ~docv:"N"
         ~doc:"Crash-simulation hook for resume testing: exit(17) when \
               the campaign starts its (N+1)-th slave pass, leaving \
               exactly the completed outcomes in the --journal.")

let sync_flag =
  Arg.(value & flag
       & info [ "sync" ]
         ~doc:"With --journal: fsync the journal on checkpoint and \
               every outcome append.  The default (off) survives \
               process crashes; --sync also survives power loss, at \
               one disk round-trip per task.")

let incremental_flag =
  Arg.(value & flag
       & info [ "incremental" ]
         ~doc:"Campaign modes: execute the shared slave prefix once, \
               snapshot at the first divergence-relevant decouple point \
               and replay only each task's suffix from the snapshot.  \
               The rendered table is byte-identical to a full campaign \
               at any --jobs; tasks whose effective config diverges \
               from the shared prefix (retry jitter, deadlines, custom \
               schedules) fall back to full slave passes automatically.")

let build_world files endpoints =
  let w = ref World.empty in
  List.iter
    (fun spec ->
       let path, data = split_once '=' spec in
       w := World.with_file path data !w)
    files;
  List.iter
    (fun spec ->
       let name, msgs = split_once '=' spec in
       let script = if msgs = "" then [] else String.split_on_char ',' msgs in
       w := World.with_endpoint name script !w)
    endpoints;
  !w

let parse_sources specs =
  List.map
    (fun spec ->
       let sys, arg = split_once '@' spec in
       Engine.source ~sys ?arg:(if arg = "" then None else Some arg) ())
    specs

let parse_sinks = function
  | "network" -> Ok Engine.Network_outputs
  | "files" -> Ok Engine.File_outputs
  | "outputs" -> Ok Engine.Output_syscalls
  | "attack" -> Ok Engine.Attack_sinks
  | s -> Error (Printf.sprintf "unknown sink set %S" s)

let parse_strategy = function
  | "off-by-one" -> Ok Mutation.Off_by_one
  | "bitflip" -> Ok Mutation.Bitflip
  | "zero" -> Ok Mutation.Zero
  | "random" -> Ok (Mutation.Random_replace 7)
  | s -> Error (Printf.sprintf "unknown strategy %S" s)

let run prog_file workload files endpoints sources sink strategy verbose trace
    dot attribute sweep_strategies sweep_seeds jobs final_state trace_out
    metrics metrics_json profile_flag profile_json profile_folded progress
    faults fault_seed sched_policy sched_seed sched_replay sched_record journal
    resume task_deadline max_retries backoff retry_budget abort_after sync
    incremental
  =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> `Error (false, e) in
  let* sinks = parse_sinks sink in
  let* strategy = parse_strategy strategy in
  let* fault_plan =
    match faults with
    | None -> Ok None
    | Some spec ->
      (match Ldx_osim.Fault.parse ~seed:fault_seed spec with
       | Ok plan -> Ok (Some plan)
       | Error e -> Error ("bad --faults spec: " ^ e))
  in
  let* sched_spec =
    (* one spec drives both executions, so alignment is preserved under
       any policy (a schedule is input, not a perturbation) *)
    match sched_replay with
    | Some path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      (match Schedule.of_string text with
       | Ok s -> Ok (Some (Sched.spec ~seed:sched_seed (Sched.Replay s)))
       | Error e -> Error (Printf.sprintf "bad --sched-replay %s: %s" path e))
    | None ->
      (match sched_policy with
       | None -> Ok None
       | Some pol ->
         (match Sched.policy_of_string pol with
          | Ok p -> Ok (Some (Sched.spec ~seed:sched_seed p))
          | Error e -> Error ("bad --sched policy: " ^ e)))
  in
  let* input =
    match (workload, prog_file) with
    | Some _, Some _ -> Error "give PROGRAM.minic or --workload, not both"
    | None, None -> Error "a PROGRAM.minic argument or --workload is required"
    | None, Some path ->
      Ok (`Src (In_channel.with_open_text path In_channel.input_all))
    | Some name, None ->
      (match Ldx_workloads.Registry.find name with
       | Some w -> Ok (`Workload w)
       | None -> Error (Printf.sprintf "unknown workload %S" name))
  in
  let world =
    match input with
    | `Workload w -> w.Ldx_workloads.Workload.world
    | `Src _ -> build_world files endpoints
  in
  let base_config =
    match input with
    | `Workload w -> Ldx_workloads.Workload.leak_config w
    | `Src _ ->
      { Engine.default_config with
        Engine.sources = parse_sources sources;
        sinks;
        strategy }
  in
  let config =
    { base_config with
      Engine.record_trace = trace;
      check_final_state = final_state;
      faults = fault_plan;
      master_sched = sched_spec;
      slave_sched = sched_spec;
      record_sched = sched_record <> None }
  in
  (* lowering shared by every mode: a registry workload arrives already
     instrumented; a source file is lowered and instrumented here *)
  let lowered () =
    match input with
    | `Workload w -> Ok (fst (Ldx_workloads.Workload.instrumented w))
    | `Src src ->
      (match Ldx_cfg.Lower.lower_source src with
       | exception Failure msg -> Error msg
       | prog -> Ok (fst (Ldx_instrument.Counter.instrument prog)))
  in
  let recorder =
    if trace_out <> None || metrics || metrics_json <> None then
      Some (Ldx_obs.Recorder.create ())
    else None
  in
  let progress_sink =
    if progress then
      Some
        (Ldx_obs.Sink.of_fn (function
           | Ldx_obs.Event.Campaign_progress
               { completed; total; cycles_done; eta_cycles } ->
             Printf.eprintf "\r[%d/%d] cycles=%d eta=%d%s%!" completed total
               cycles_done eta_cycles
               (if completed >= total then "\n" else "")
           | _ -> ()))
    else None
  in
  let obs =
    match (Option.map Ldx_obs.Recorder.sink recorder, progress_sink) with
    | None, None -> None
    | (Some _ as s), None -> s
    | None, (Some _ as p) -> p
    | Some s, Some p -> Some (Ldx_obs.Sink.tee [ s; p ])
  in
  let prof =
    if profile_flag || profile_json <> None || profile_folded <> None then
      Some (Engine.fresh_profiles ())
    else None
  in
  let emit_profile () =
    match prof with
    | None -> `Ok ()
    | Some pp ->
      (try
         let d =
           Ldx_prof.Report.of_profiles ~master:pp.Engine.prof_master
             ~slave:pp.Engine.prof_slave
         in
         (match profile_json with
          | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc
                  (Ldx_obs.Json.to_string (Ldx_prof.Report.to_json d));
                output_char oc '\n');
            Printf.printf "profile JSON written to %s\n" path
          | None -> ());
         (match profile_folded with
          | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Ldx_prof.Report.folded d));
            Printf.printf "folded stacks written to %s\n" path
          | None -> ());
         if profile_flag then begin
           print_newline ();
           print_string (Ldx_prof.Report.render d)
         end;
         `Ok ()
       with Sys_error msg -> `Error (false, msg))
  in
  (* observability output shared by the campaign modes and plain runs *)
  let emit_observability () =
    match recorder with
    | None -> `Ok ()
    | Some rc ->
      (try
         let write_file path data =
           Out_channel.with_open_text path (fun oc -> output_string oc data)
         in
         (match trace_out with
          | Some path ->
            write_file path
              (Ldx_obs.Chrome_trace.to_string (Ldx_obs.Recorder.events rc));
            Printf.printf "dual-timeline trace written to %s\n" path
          | None -> ());
         let snap = Ldx_obs.Recorder.snapshot rc in
         (match metrics_json with
          | Some path ->
            write_file path
              (Ldx_obs.Json.to_string
                 (Ldx_obs.Json.Obj
                    [ ("metrics", Ldx_obs.Metrics.to_json snap);
                      ( "cost_model",
                        Ldx_obs.Json.Obj
                          (List.map
                             (fun (k, v) -> (k, Ldx_obs.Json.Int v))
                             (Ldx_vm.Cost.to_assoc ())) ) ]));
            Printf.printf "metrics JSON written to %s\n" path
          | None -> ());
         if metrics then begin
           print_newline ();
           print_string (Ldx_report.Obs_report.render snap)
         end;
         `Ok ()
       with Sys_error msg -> `Error (false, msg))
  in
  let retry =
    if max_retries = 0 && retry_budget = None then None
    else
      Some
        { Ldx_core.Campaign.no_retries with
          Ldx_core.Campaign.max_retries;
          backoff;
          fuel_budget = retry_budget;
          quarantine = max_retries > 0 }
  in
  (* the crash-simulation hook: completes the first N slave passes (and
     their journal appends), then dies as a killed process would *)
  let abort_runner =
    Option.map
      (fun n ->
         let count = Atomic.make 0 in
         fun ?obs cfg prog world mo ->
           if Atomic.fetch_and_add count 1 >= n then begin
             prerr_endline "ldx_run: --abort-after reached, aborting";
             exit 17
           end;
           Engine.run_with_master ?obs cfg prog world mo)
      abort_after
  in
  if dot then begin
    match lowered () with
    | Error msg -> `Error (false, msg)
    | Ok prog ->
      print_string (Ldx_cfg.Dot.program_to_dot prog);
      `Ok ()
  end
  else if attribute then begin
    match lowered () with
    | Error msg -> `Error (false, msg)
    | Ok prog ->
      let attrs =
        Ldx_core.Attribute.per_source ~config ~jobs ?obs ?retry
          ?deadline:task_deadline ~incremental prog world
      in
      print_string (Ldx_core.Attribute.render attrs);
      emit_observability ()
  end
  else if sweep_strategies || sweep_seeds <> None then begin
    match lowered () with
    | Error msg -> `Error (false, msg)
    | Ok prog ->
      let params =
        match sweep_seeds with
        | Some n ->
          Ldx_core.Campaign.of_seeds config (List.init (max 0 n) Fun.id)
        | None ->
          Ldx_core.Campaign.of_strategies config
            Ldx_core.Mutation.all_strategies
      in
      (* graceful drain for journaled campaigns: the handler flips a
         flag, the campaign stops claiming new tasks (in-flight tasks
         finish and are journaled), and we exit 21 — a later --resume
         picks up exactly the missing tasks.  Without a journal the
         default signal behaviour (die, lose the run) is unchanged. *)
      let draining = Atomic.make false in
      if journal <> None then begin
        let h = Sys.Signal_handle (fun _ -> Atomic.set draining true) in
        Sys.set_signal Sys.sigterm h;
        Sys.set_signal Sys.sigint h
      end;
      let stop () = Atomic.get draining in
      let outs =
        match (journal, resume) with
        | None, true -> Error "--resume requires --journal"
        | Some path, true ->
          (match
             Ldx_core.Campaign.resume ~jobs ?obs ?retry
               ?deadline:task_deadline ?runner:abort_runner ~journal:path
               ~stop ~sync ~incremental ~config prog world params
           with
           | Ok outs ->
             Printf.eprintf "resumed campaign from %s\n%!" path;
             Ok outs
           | Error e -> Error e)
        | _, false ->
          Ok
            (Ldx_core.Campaign.run ~jobs ?obs ?retry ?deadline:task_deadline
               ?runner:abort_runner ?journal ~stop ~sync ~incremental ~config
               prog world params)
      in
      (match outs with
       | Error e -> `Error (false, e)
       | Ok outs ->
         if Atomic.get draining then begin
           Printf.eprintf
             "ldx_run: drained on signal, progress journaled to %s\n%!"
             (Option.value journal ~default:"-");
           exit 21
         end;
         print_string (Ldx_core.Campaign.render outs);
         (match journal with
          | Some path -> Printf.eprintf "campaign journal: %s\n%!" path
          | None -> ());
         emit_observability ())
  end
  else
  let ran =
    match input with
    | `Src src ->
      (match Engine.run_source ~config ?obs ?prof src world with
       | exception Failure msg -> Error msg
       | r -> Ok r)
    | `Workload _ ->
      (match lowered () with
       | Error msg -> Error msg
       | Ok prog ->
         (match Engine.run ~config ?obs ?prof prog world with
          | exception Failure msg -> Error msg
          | r -> Ok r))
  in
  match ran with
  | Error msg -> `Error (false, msg)
  | Ok r ->
    let trap_suffix (s : Engine.exec_summary) =
      match s.Engine.trap with
      | None -> ""
      | Some m ->
        Printf.sprintf ", TRAP(%s): %s"
          (Engine.failure_class_to_string (Engine.classify_trap (Some m)))
          m
    in
    Printf.printf "master: %d syscalls, %d cycles%s\n"
      r.Engine.master.Engine.syscalls r.Engine.master.Engine.cycles
      (trap_suffix r.Engine.master);
    Printf.printf "slave:  %d syscalls, %d cycles%s\n"
      r.Engine.slave.Engine.syscalls r.Engine.slave.Engine.cycles
      (trap_suffix r.Engine.slave);
    if fault_plan <> None then
      Printf.printf "faults injected: master %d, slave %d\n"
        r.Engine.master.Engine.faults_injected
        r.Engine.slave.Engine.faults_injected;
    Printf.printf "mutated inputs: %d, syscall differences: %d/%d\n"
      r.Engine.mutated_inputs r.Engine.syscall_diffs r.Engine.total_syscalls;
    if r.Engine.leak then begin
      Printf.printf
        "CAUSALITY DETECTED: %d tainted sink(s) of %d dynamic sinks\n"
        r.Engine.tainted_sinks r.Engine.total_sinks;
      if verbose then
        List.iter
          (fun rep -> print_endline ("  " ^ Engine.report_to_string rep))
          r.Engine.reports
    end
    else
      Printf.printf "no causality: sinks are independent of the sources\n";
    if trace then begin
      Printf.printf "\nAligned trace (master | slave):\n";
      print_string (Ldx_report.Trace_view.render r.Engine.trace)
    end;
    (try
       (match (sched_record, r.Engine.master_schedule) with
        | Some path, Some s ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Schedule.to_string s));
          Printf.printf "schedule written to %s (%d decisions)\n" path
            (Array.length s)
        | _ -> ());
       match emit_profile () with
       | `Ok () -> emit_observability ()
       | e -> e
     with Sys_error msg -> `Error (false, msg))

let cmd =
  let info =
    Cmd.info "ldx_run" ~doc:"Dual-execute a MiniC program under LDX"
  in
  Cmd.v info
    Term.(
      ret
        (const run $ prog_file $ workload_arg $ files $ endpoints $ sources
         $ sink $ strategy $ verbose $ trace $ dot $ attribute
         $ sweep_strategies $ sweep_seeds $ jobs $ final_state $ trace_out
         $ metrics $ metrics_json $ profile_flag $ profile_json
         $ profile_folded $ progress $ faults $ fault_seed $ sched_policy
         $ sched_seed $ sched_replay $ sched_record $ journal_arg $ resume_arg
         $ task_deadline $ max_retries $ backoff $ retry_budget
         $ abort_after $ sync_flag $ incremental_flag))

let () = exit (Cmd.eval cmd)
