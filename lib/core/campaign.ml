(* Campaign layer: one recorded master, N independent slave passes —
   durable, deadline-bounded, retried and quarantined.

   The per-source attribution follow-up (Sec. 3) and the
   mutation-strategy study (Sec. 8.3) both re-run a dual execution per
   source/strategy, yet the master half is byte-identical across those
   runs: [Engine.master_pass] never reads the slave-only configuration
   fields (sources, strategy, slave_seed, record_trace), and a
   [master_out] is a frozen, replayable outcome log.  A campaign
   therefore pays ONE master pass and fans the K slave passes out over
   the calling domain plus, when the passes are long enough to pay for
   them, more OCaml 5 domains sharing a bounded work queue.

   Determinism: each slave pass builds its own machine, OS and cursors
   from immutable inputs (the program, the world description, the frozen
   master log) and the VM scheduler is deterministically seeded, so a
   parallel campaign is byte-identical to a sequential one (asserted by
   the property suite).

   Durability: [?journal] persists a manifest (configuration
   fingerprint + task list) and appends each outcome as soon as its
   task finishes, through [Ldx_store.Store]'s checksummed
   append-only format; [resume] replays journaled outcomes verbatim and
   runs only the tasks that never made it to disk.  Outcome payloads
   are [Marshal]ed [Engine.result]s (plain data, no closures), guarded
   by the manifest fingerprint: a journal only ever replays into the
   exact campaign shape that wrote it. *)

module World = Ldx_osim.World
module Ir = Ldx_cfg.Ir
module Obs = Ldx_obs
module Store = Ldx_store.Store

(* Slave-side parameters only, by construction: anything expressible as
   a [slave_params] is sound to run against a shared master recording. *)
type slave_params = {
  label : string;
  sources : Engine.source_spec list;
  strategy : Mutation.strategy;
  slave_seed : int;
  record_trace : bool;
  check_final_state : bool;
  sched : Engine.Sched.spec option;
}

let params_of_config ?(label = "base") (c : Engine.config) : slave_params =
  { label;
    sources = c.Engine.sources;
    strategy = c.Engine.strategy;
    slave_seed = c.Engine.slave_seed;
    record_trace = c.Engine.record_trace;
    check_final_state = c.Engine.check_final_state;
    sched = c.Engine.slave_sched }

let apply (base : Engine.config) (p : slave_params) : Engine.config =
  { base with
    Engine.sources = p.sources;
    strategy = p.strategy;
    slave_seed = p.slave_seed;
    record_trace = p.record_trace;
    check_final_state = p.check_final_state;
    slave_sched = p.sched }

let of_sources (c : Engine.config) : slave_params list =
  List.mapi
    (fun i spec ->
       { (params_of_config c) with
         label = Printf.sprintf "source#%d" i;
         sources = [ spec ] })
    c.Engine.sources

let of_strategies (c : Engine.config)
    (strategies : (string * Mutation.strategy) list) : slave_params list =
  List.map
    (fun (label, strategy) -> { (params_of_config c) with label; strategy })
    strategies

let of_seeds (c : Engine.config) (seeds : int list) : slave_params list =
  List.map
    (fun s ->
       { (params_of_config c) with
         label = Printf.sprintf "seed=%d" s;
         slave_seed = s })
    seeds

let of_scheds (c : Engine.config)
    (scheds : (string * Engine.Sched.spec) list) : slave_params list =
  List.map
    (fun (label, spec) -> { (params_of_config c) with label; sched = Some spec })
    scheds

(* A task's fate.  A raising slave pass is RECORDED, never fatal: one
   bad task must not take down the fleet (nor, in the parallel path,
   lose every sibling's result).  Fuel exhaustion gets its own arm —
   the result is still meaningful (both sides' partial summaries are
   there) but its verdict must not be trusted like a completed run's.
   [Timed_out] is the same fuel trap under a [?deadline] tighter than
   the configured budget; [Quarantined] parks a task that crashed on
   every attempt. *)
type status =
  | Ok of Engine.result
  | Crashed of { exn : string; backtrace : string }
  | Fuel_exhausted of Engine.result
  | Timed_out of Engine.result
  | Quarantined of { exn : string; backtrace : string }

type outcome = {
  params : slave_params;
  status : status;
  attempts : int;
}

let status_class = function
  | Ok _ -> "ok"
  | Crashed _ -> "crashed"
  | Fuel_exhausted _ -> "fuel-exhausted"
  | Timed_out _ -> "timed-out"
  | Quarantined _ -> "quarantined"

let result_of = function
  | Ok r | Fuel_exhausted r | Timed_out r -> Some r
  | Crashed _ | Quarantined _ -> None

let result_exn (o : outcome) : Engine.result =
  match o.status with
  | Ok r | Fuel_exhausted r | Timed_out r -> r
  | Crashed { exn; _ } ->
    invalid_arg (Printf.sprintf "campaign task %s crashed: %s" o.params.label exn)
  | Quarantined { exn; _ } ->
    invalid_arg
      (Printf.sprintf "campaign task %s quarantined: %s" o.params.label exn)

(* Bounded retries for crashed/fuel-exhausted/timed-out tasks.  Retry
   [k] (1-based) re-runs with [slave_seed + seed_jitter * stride k]:
   linear when [backoff <= 1] (bit-identical to the historical policy),
   else [backoff^(k-1)] — exponential backoff in seed space.  A
   transient failure (schedule-dependent deadlock, fuel blow-up under
   an unlucky interleaving) clears under a perturbed schedule, a
   deterministic one reproduces — which is exactly the signal the
   attempt count carries, and what [quarantine] acts on. *)
type retry_policy = {
  max_retries : int;
  seed_jitter : int;
  backoff : int;
  fuel_budget : int option;
  quarantine : bool;
}

let no_retries =
  { max_retries = 0; seed_jitter = 1; backoff = 1; fuel_budget = None;
    quarantine = false }

type runner =
  ?obs:Obs.Sink.t ->
  Engine.config -> Ir.program -> World.t -> Engine.master_out -> Engine.result

let default_runner : runner =
  fun ?obs cfg prog world mo -> Engine.run_with_master ?obs cfg prog world mo

(* ---------- durable journal encoding ---------- *)

(* Outcome payloads are hex so they survive the store's line format
   unscathed; "-" stands for the empty string (hex of "" would vanish
   between the separators). *)
let to_hex (s : string) : string =
  if s = "" then "-"
  else begin
    let b = Buffer.create (2 * String.length s) in
    String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
    Buffer.contents b
  end

(* Accepts exactly what [to_hex] writes: "-" or lowercase hex pairs.
   [int_of_string] would also take an underscore ("0x5_" is 5),
   decoding a corrupt payload instead of rejecting it. *)
let of_hex (s : string) : string option =
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> raise Exit
  in
  if s = "-" then Some ""
  else if s = "" || String.length s mod 2 <> 0 then None
  else
    try
      Some
        (String.init
           (String.length s / 2)
           (fun i ->
              Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1])))
    with Exit -> None

(* [Engine.result] is plain data (records, variants, strings, ints —
   audited: no closures anywhere under it), so [Marshal] round-trips it
   exactly; replaying a journaled outcome is verbatim, which is what
   makes interrupted-then-resumed renders byte-identical. *)
let encode_outcome (s : status) (attempts : int) : string =
  let res tag (r : Engine.result) =
    Printf.sprintf "%s %d %s" tag attempts (to_hex (Marshal.to_string r []))
  in
  let dead tag exn backtrace =
    Printf.sprintf "%s %d %s %s" tag attempts (to_hex exn) (to_hex backtrace)
  in
  match s with
  | Ok r -> res "ok" r
  | Fuel_exhausted r -> res "fuel" r
  | Timed_out r -> res "timeout" r
  | Crashed { exn; backtrace } -> dead "crash" exn backtrace
  | Quarantined { exn; backtrace } -> dead "quarantine" exn backtrace

let decode_outcome (payload : string) : (status * int) option =
  let result h k =
    match of_hex h with
    | None -> None
    | Some m ->
      (match (Marshal.from_string m 0 : Engine.result) with
       | r -> Some (k r)
       | exception _ -> None)
  in
  match String.split_on_char ' ' payload with
  | [ tag; a; h ] -> (
      match int_of_string_opt a with
      | None -> None
      | Some attempts -> (
        match tag with
        | "ok" -> result h (fun r -> (Ok r, attempts))
        | "fuel" -> result h (fun r -> (Fuel_exhausted r, attempts))
        | "timeout" -> result h (fun r -> (Timed_out r, attempts))
        | _ -> None))
  | [ tag; a; e; b ] -> (
      match (int_of_string_opt a, of_hex e, of_hex b) with
      | Some attempts, Some exn, Some backtrace -> (
        match tag with
        | "crash" -> Some (Crashed { exn; backtrace }, attempts)
        | "quarantine" -> Some (Quarantined { exn; backtrace }, attempts)
        | _ -> None)
      | _ -> None)
  | _ -> None

(* The configuration fingerprint a journal stores and [resume] checks.
   Slave params, faults and scheduler specs are plain data (audited, as
   for outcomes) and are hashed via [Marshal]; the one config field
   that can hold a closure — [Custom_sinks] — contributes only its
   constructor tag, so two campaigns differing solely in a custom sink
   predicate fingerprint alike (documented in DESIGN.md: don't resume
   across predicate changes). *)
let sinks_tag : Engine.sink_config -> string = function
  | Engine.Output_syscalls -> "output"
  | Engine.Network_outputs -> "network"
  | Engine.File_outputs -> "file"
  | Engine.Attack_sinks -> "attack"
  | Engine.Custom_sinks _ -> "custom"

let fingerprint ?(retry = no_retries) ?deadline ~(config : Engine.config)
    (prog : Ir.program) (world : World.t) (params : slave_params list) : string =
  let m x = Marshal.to_string x [] in
  Store.fingerprint
    ([ "ldx-campaign/1";
       m prog;
       m world;
       string_of_int config.Engine.master_seed;
       string_of_int config.Engine.max_steps;
       sinks_tag config.Engine.sinks;
       m config.Engine.faults;
       m config.Engine.master_sched;
       string_of_bool config.Engine.record_sched;
       (match deadline with None -> "-" | Some d -> string_of_int d);
       Printf.sprintf "%d,%d,%d,%s,%b" retry.max_retries retry.seed_jitter
         retry.backoff
         (match retry.fuel_budget with None -> "-" | Some b -> string_of_int b)
         retry.quarantine ]
     @ List.map m params)

(* ---------- one task ---------- *)

let pow base e =
  let r = ref 1 in
  for _ = 1 to e do r := !r * base done;
  !r

(* Run one task under containment: exceptions become [Crashed], fuel
   traps become [Fuel_exhausted] (or [Timed_out] under a tightened
   deadline), retries (if any) are attempted with jittered slave seeds
   until the policy's count or fuel budget is spent.  This is the only
   place a slave pass is invoked, so sequential and parallel campaigns
   contain failures identically.  Returns the final status and the
   number of runs performed. *)
let run_task ~(retry : retry_policy) ?deadline ?obs ~(runner : runner)
    (config : Engine.config) (prog : Ir.program) (world : World.t)
    (mo : Engine.master_out) (p : slave_params) : status * int =
  (* the deadline only ever LOWERS the slave's fuel; the master summary
     comes from the recording, so master-side config agreement holds *)
  let tightened =
    match deadline with Some d -> d < config.Engine.max_steps | None -> false
  in
  let task_config p' =
    let c = apply config p' in
    if tightened then
      { c with Engine.max_steps = Option.get deadline }
    else c
  in
  (* one attempt's step cap — what a crashed run is charged against the
     fuel budget (conservative: it may have died earlier) *)
  let attempt_cap =
    if tightened then Option.get deadline else config.Engine.max_steps
  in
  let attempt_once p' : status * int =
    match runner ?obs (task_config p') prog world mo with
    | r ->
      let fuel (s : Engine.exec_summary) =
        Engine.classify_trap s.Engine.trap = Engine.Fuel
      in
      let spent = r.Engine.slave.Engine.steps in
      if fuel r.Engine.master then (Fuel_exhausted r, spent)
      else if fuel r.Engine.slave then
        ((if tightened then Timed_out r else Fuel_exhausted r), spent)
      else (Ok r, spent)
    | exception e ->
      let backtrace = Printexc.get_backtrace () in
      (Crashed { exn = Printexc.to_string e; backtrace }, attempt_cap)
  in
  let stride k = if retry.backoff <= 1 then k else pow retry.backoff (k - 1) in
  let budget_left spent =
    match retry.fuel_budget with None -> true | Some b -> spent < b
  in
  (* [attempt] counts retries already performed (0 = first run) *)
  let rec go attempt spent all_crashed =
    let p' =
      if attempt = 0 then p
      else
        { p with
          slave_seed = p.slave_seed + (retry.seed_jitter * stride attempt) }
    in
    let s, cost = attempt_once p' in
    let spent = spent + cost in
    let all_crashed =
      all_crashed && (match s with Crashed _ -> true | _ -> false)
    in
    match s with
    | Ok _ -> (s, attempt + 1)
    | Crashed _ | Fuel_exhausted _ | Timed_out _ | Quarantined _ ->
      if attempt < retry.max_retries && budget_left spent then
        go (attempt + 1) spent all_crashed
      else begin
        let attempts = attempt + 1 in
        let s =
          match s with
          | Crashed { exn; backtrace }
            when retry.quarantine && all_crashed && attempts > 1 ->
            (* the crash reproduced under a perturbed seed: it is
               deterministic, park it *)
            Quarantined { exn; backtrace }
          | s -> s
        in
        (s, attempts)
      end
  in
  go 0 0 true

(* ---------- per-task telemetry ---------- *)

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Wall cycles of a task's fate (0 when there is no result). *)
let wall_cycles_of (s : status) : int =
  match result_of s with Some r -> r.Engine.wall_cycles | None -> 0

(* [run_task] plus telemetry when a sink is present: a [Task_begin]
   marker before the first attempt and a [Task_timing] after the last,
   carrying the wall-clock queue-wait ([t0] = fan-out start) vs
   run-time split and the deterministic virtual wall.  With no sink
   this is exactly [run_task], with no clock reads. *)
let run_task_telemetry ~retry ?deadline ?obs ~runner ~index ~t0
    (config : Engine.config) (prog : Ir.program) (world : World.t)
    (mo : Engine.master_out) (p : slave_params) : status * int =
  match obs with
  | None -> run_task ~retry ?deadline ~runner config prog world mo p
  | Some _ ->
    let t_start = now_us () in
    Obs.Sink.emit_opt obs (Obs.Event.Task_begin { label = p.label; index });
    let s, a = run_task ~retry ?deadline ?obs ~runner config prog world mo p in
    let t_end = now_us () in
    Obs.Sink.emit_opt obs
      (Obs.Event.Task_timing
         { label = p.label;
           index;
           queue_us = max 0 (t_start - t0);
           run_us = max 0 (t_end - t_start);
           wall_cycles = wall_cycles_of s });
    (s, a)

(* Mean-based remaining-cycles estimate for progress heartbeats. *)
let eta_cycles ~completed ~total ~cycles_done =
  if completed <= 0 then 0
  else cycles_done / completed * (total - completed)

(* ---------- the fan-out ---------- *)

(* Below roughly this many master-pass steps, a slave pass is so short
   that [Domain.spawn]/[Domain.join] overhead and the contended work
   queue dominate — extra domains measure SLOWER than one (observed
   0.70x at jobs=4 on small workloads), so such campaigns run on the
   calling domain alone. *)
let domain_break_even = 20_000

(* Run the tasks at [idxs] on [w] domains: the calling domain and
   [w - 1] spawned ones.  The work queue is a bounded atomic cursor
   over the index array, but domains claim contiguous CHUNKS of
   ~k/(4*w) tasks per fetch-and-add rather than single indexes: the
   contended atomic is touched ~4 times per domain instead of once per
   task, while the 4x over-decomposition keeps late-stage load balance
   when task costs are uneven.

   Each finished task is posted under one mutex, which fills its
   result slot, appends its outcome to the journal write-through (a
   kill at any point loses at most the in-flight tasks) and emits a
   [Campaign_progress] heartbeat — so the sink and the store are only
   ever touched by one domain at a time.  With [w > 1] every task gets
   a PRIVATE buffered sink (an event list needs no domain safety),
   drained into the real sink in task order after the joins; with
   [w = 1] the real sink is threaded straight through.  [run_task]
   never raises, and the joins are under [Fun.protect], so no domain
   can be leaked even if a worker or the calling domain dies
   unexpectedly. *)
let fan_out ~retry ?deadline ?obs ~runner ~w ~journal ~stop
    (config : Engine.config) (prog : Ir.program) (world : World.t)
    (mo : Engine.master_out) (tasks : slave_params array) (idxs : int array)
    (results : (status * int) option array) : unit =
  let k = Array.length idxs in
  let chunk = max 1 ((k + (4 * w) - 1) / (4 * w)) in
  let next = Atomic.make 0 in
  let mu = Mutex.create () in
  let completed = ref 0 and cycles_done = ref 0 in
  let buffered = w > 1 && obs <> None in
  let events : Obs.Event.t list array = Array.make (Array.length tasks) [] in
  let t0 = now_us () in
  let post i (s, a) evs =
    Mutex.protect mu @@ fun () ->
    results.(i) <- Some (s, a);
    events.(i) <- evs;
    Option.iter (fun t -> Store.append t i (encode_outcome s a)) journal;
    (* liveness, not determinism: heartbeats arrive in completion order
       and are excluded from traces/goldens *)
    incr completed;
    cycles_done := !cycles_done + wall_cycles_of s;
    Obs.Sink.emit_opt obs
      (Obs.Event.Campaign_progress
         { completed = !completed;
           total = k;
           cycles_done = !cycles_done;
           eta_cycles =
             eta_cycles ~completed:!completed ~total:k
               ~cycles_done:!cycles_done })
  in
  let run_one i =
    let buf = ref [] in
    let task_obs =
      if buffered then Some (Obs.Sink.of_fn (fun ev -> buf := ev :: !buf))
      else obs
    in
    let sa =
      run_task_telemetry ~retry ?deadline ?obs:task_obs ~runner ~index:i ~t0
        config prog world mo tasks.(i)
    in
    post i sa (List.rev !buf)
  in
  (* drain check between tasks: the in-flight task always finishes;
     [stop] must be domain-safe (it reads a flag a signal handler sets) *)
  let rec worker () =
    if not (stop ()) then begin
      let lo = Atomic.fetch_and_add next chunk in
      if lo < k then begin
        let hi = min k (lo + chunk) in
        let j = ref lo in
        while !j < hi && not (stop ()) do
          run_one idxs.(!j);
          incr j
        done;
        worker ()
      end
    end
  in
  (* backtrace recording is per-domain: without propagating the calling
     domain's setting, a [Crashed] outcome would carry a backtrace or
     not depending on which domain happened to claim the task — a
     run-to-run nondeterminism in campaign output *)
  let record_bt = Printexc.backtrace_status () in
  let spawned =
    Array.init (w - 1) (fun _ ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace record_bt;
            worker ()))
  in
  Fun.protect
    ~finally:(fun () ->
      (* always join every spawned domain; a join that re-raises (its
         worker died outside the containment, e.g. on out-of-memory)
         must not prevent joining the rest *)
      let first_exn = ref None in
      Array.iter
        (fun d ->
           try Domain.join d
           with e -> if !first_exn = None then first_exn := Some e)
        spawned;
      match !first_exn with Some e -> raise e | None -> ())
    worker;
  (* every slave-pass event reaches the sink, in task order, from the
     calling domain *)
  if buffered then Array.iter (List.iter (Obs.Sink.emit_opt obs)) events

(* ---------- the campaign ---------- *)

(* Is an incremental prefix sound for this fan-out?  Every task must
   share the prefix-relevant slave fields (seed, scheduler, trace
   recording); [sources], [strategy] and [check_final_state] are free to
   vary — they only act at or after the decouple point.  A caller's
   custom runner can't be short-circuited, and a [?deadline] lowers
   per-task fuel (changing the prefix machine), so both force the full
   path. *)
let incremental_eligible ~user_runner ~deadline (params : slave_params list) :
  bool =
  Option.is_none user_runner && deadline = None
  && (match params with
      | [] -> false
      | p0 :: rest ->
        List.for_all
          (fun p ->
             p.slave_seed = p0.slave_seed
             && p.record_trace = p0.record_trace
             && p.sched = p0.sched)
          rest)

(* Build the incremental runner: one shared slave prefix (executed here,
   on the calling domain, before any fan-out), then per-task suffix
   resumes.  Attempt-0 task configs match the snapshot's fingerprint by
   construction; retries jitter the slave seed, which changes the
   fingerprint and falls back to a full pass automatically.  Any
   surprise during the prefix falls back to the full path — incremental
   mode is an optimization, never a behavior change. *)
let incremental_runner ?obs (config : Engine.config) (prog : Ir.program)
    (world : World.t) (mo : Engine.master_out)
    (params : slave_params list) : runner =
  let p0 = List.hd params in
  let specs = List.concat_map (fun p -> p.sources) params in
  let prefix_cfg = apply config { p0 with sources = [] } in
  match Engine.slave_prefix ?obs prefix_cfg ~specs prog world mo with
  | Engine.Prefix_done so ->
    (* no syscall base-matches any task's sources: the whole slave run
       is shared, and each first attempt finalizes the one outcome under
       its own config (final-state checking may differ per task) *)
    let fp0 = Engine.slave_fingerprint prefix_cfg prog world in
    fun ?obs cfg prog world mo ->
      if String.equal fp0 (Engine.slave_fingerprint cfg prog world) then
        Engine.finalize_result ?obs cfg mo so
      else default_runner ?obs cfg prog world mo
  | Engine.Prefix_paused ss ->
    fun ?obs cfg prog world mo ->
      if
        String.equal ss.Engine.ss_fingerprint
          (Engine.slave_fingerprint cfg prog world)
      then
        Engine.finalize_result ?obs cfg mo
          (Engine.slave_resume ?obs cfg prog world mo ss)
      else default_runner ?obs cfg prog world mo
  | exception _ -> default_runner

let run_impl ~jobs ~obs ~retry ~deadline ~runner ~journal ~stop ~sync
    ~incremental
    ~(pre : (int * (status * int)) list) ~(pre_raw : (int * string) list)
    ~(config : Engine.config) (prog : Ir.program) (world : World.t)
    (params : slave_params list) : outcome list =
  let user_runner = runner in
  let runner = Option.value runner ~default:default_runner in
  let tasks = Array.of_list params in
  let n = Array.length tasks in
  let results : (status * int) option array = Array.make n None in
  let fresh = Array.make n false in
  List.iter
    (fun (i, sa) -> if i >= 0 && i < n then results.(i) <- Some sa)
    pre;
  let missing = List.filter (fun i -> results.(i) = None) (List.init n Fun.id) in
  (* checkpoint the manifest (and any replayed outcomes) via atomic
     rename BEFORE any task runs: a fresh run becomes resumable
     immediately, a resumed run heals its torn tail on disk *)
  let store =
    match journal with
    | None -> None
    | Some path ->
      let manifest =
        { Store.fingerprint =
            fingerprint ~retry ?deadline ~config prog world params;
          meta = [ ("tasks", string_of_int n) ];
          tasks = Array.to_list (Array.map (fun p -> p.label) tasks) }
      in
      let t = Store.checkpoint ~path ~sync manifest pre_raw in
      Obs.Sink.emit_opt obs
        (Obs.Event.Checkpoint
           { path; tasks = n; journaled = List.length pre_raw });
      Some t
  in
  Fun.protect ~finally:(fun () -> Option.iter Store.close store) @@ fun () ->
  (if missing <> [] then begin
     (* ONE master pass, shared by every slave task still to run; when
        everything replays from the journal even this is skipped *)
     let mo =
       Obs.Sink.emit_opt obs (Obs.Event.Phase_begin Obs.Event.Master_run);
       Fun.protect
         ~finally:(fun () ->
           Obs.Sink.emit_opt obs (Obs.Event.Phase_end Obs.Event.Master_run))
         (fun () -> Engine.master_pass ?obs config prog world)
     in
     (* incremental fan-out: one shared slave prefix now, per-task
        suffix resumes below (threaded through the runner seam, so
        retry containment and telemetry are untouched) *)
     let runner =
       if incremental && incremental_eligible ~user_runner ~deadline params
       then incremental_runner ?obs config prog world mo params
       else runner
     in
     let nmiss = List.length missing in
     (* the domain count: more than one only when it can plausibly win —
        more than one job AND missing task, a host with more than one
        recommended domain, and slave passes long enough (estimated by
        the master pass's step count — a slave pass replays the same
        program) to amortise domain spawn/join overhead *)
     let w =
       if
         jobs > 1 && nmiss > 1
         && Domain.recommended_domain_count () > 1
         && mo.Engine.msummary.Engine.steps >= domain_break_even
       then min jobs nmiss
       else 1
     in
     Obs.Sink.emit_opt obs
       (Obs.Event.Campaign_plan
          { mode = (if w > 1 then "parallel" else "sequential");
            jobs = w;
            tasks = nmiss;
            est_steps = mo.Engine.msummary.Engine.steps });
     let idxs = Array.of_list missing in
     fan_out ~retry ?deadline ?obs ~runner ~w ~journal:store ~stop config prog
       world mo tasks idxs results;
     Array.iter (fun i -> fresh.(i) <- true) idxs
   end);
  let drained = stop () in
  let outs =
    Array.to_list
      (Array.mapi
         (fun i p ->
            match results.(i) with
            | Some (status, attempts) -> { params = p; status; attempts }
            | None when drained ->
              (* a drain stopped the campaign before this task was
                 claimed; the journal (if any) holds every finished
                 outcome, so a later [resume] re-runs exactly these *)
              { params = p;
                status = Crashed { exn = "drained (not run)"; backtrace = "" };
                attempts = 0 }
            | None ->
              (* unreachable when the claims above completed; defensive
                 so a future bug degrades to a recorded failure, not an
                 abort *)
              { params = p;
                status =
                  Crashed { exn = "task slot never claimed"; backtrace = "" };
                attempts = 0 })
         tasks)
  in
  (* task fates are emitted from the calling domain, after the joins,
     so the sink never sees concurrent emissions; [Quarantine] fires
     only for freshly-parked tasks (replayed ones announced it in the
     run that journaled them).  Tasks a drain never ran emit nothing —
     they have no fate yet. *)
  List.iteri
    (fun i o ->
       if not (drained && o.attempts = 0) then begin
         Obs.Sink.emit_opt obs
           (Obs.Event.Task_done
              { label = o.params.label;
                status = status_class o.status;
                attempts = o.attempts;
                exn =
                  (match o.status with
                   | Crashed { exn; _ } | Quarantined { exn; _ } -> Some exn
                   | Ok _ | Fuel_exhausted _ | Timed_out _ -> None) });
         match o.status with
         | Quarantined { exn; _ } when fresh.(i) ->
           Obs.Sink.emit_opt obs
             (Obs.Event.Quarantine
                { label = o.params.label; attempts = o.attempts; exn })
         | _ -> ()
       end)
    outs;
  outs

let never_stop () = false

let run ?(jobs = 1) ?obs ?(retry = no_retries) ?deadline
    ?runner ?journal ?(stop = never_stop) ?(sync = false)
    ?(incremental = false) ~(config : Engine.config) (prog : Ir.program)
    (world : World.t) (params : slave_params list) : outcome list =
  run_impl ~jobs ~obs ~retry ~deadline ~runner ~journal ~stop ~sync
    ~incremental ~pre:[] ~pre_raw:[] ~config prog world params

let resume ?(jobs = 1) ?obs ?(retry = no_retries) ?deadline
    ?runner ~journal ?(stop = never_stop) ?(sync = false)
    ?(incremental = false) ~(config : Engine.config) (prog : Ir.program)
    (world : World.t) (params : slave_params list) :
  (outcome list, string) result =
  match Store.load ~path:journal with
  | Error e -> Error e
  | Ok loaded ->
    let fp = fingerprint ~retry ?deadline ~config prog world params in
    if loaded.Store.l_manifest.Store.fingerprint <> fp then
      Error
        (Printf.sprintf
           "%s: fingerprint mismatch (journal %s, campaign %s): the journal \
            was written by a different campaign"
           journal loaded.Store.l_manifest.Store.fingerprint fp)
    else begin
      let n = List.length params in
      (* replay verbatim: keep the journal's own payload strings for the
         re-checkpoint so nothing is re-encoded along the way *)
      let pre_raw, pre =
        List.fold_left
          (fun (raw, dec) (i, payload) ->
             if i < 0 || i >= n then (raw, dec)
             else
               match decode_outcome payload with
               | Some sa -> ((i, payload) :: raw, (i, sa) :: dec)
               | None -> (raw, dec))
          ([], []) loaded.Store.l_outcomes
      in
      let pre_raw = List.rev pre_raw and pre = List.rev pre in
      Obs.Sink.emit_opt obs
        (Obs.Event.Resume
           { path = journal;
             tasks = n;
             replayed = List.length pre;
             rerun = n - List.length pre;
             torn = loaded.Store.l_torn });
      Ok
        (run_impl ~jobs ~obs ~retry ~deadline ~runner
           ~journal:(Some journal) ~stop ~sync ~incremental ~pre ~pre_raw
           ~config prog world params)
    end

(* ---------- the cross-process campaign service ---------- *)

(* A service campaign is the same campaign run by N PROCESSES instead
   of N domains: the v2 store file is both the journal and the work
   queue (see [Ldx_queue.Queue] for the lease protocol), and every
   worker independently records its own master pass — the recording is
   deterministic, so all workers hold byte-identical masters and any of
   them can run any task.  Outcomes are the same [encode_outcome]
   payloads [?journal] writes, which is why the collected table is
   byte-identical to a single-process run: same payloads, first-wins
   dedup, task order. *)
module Service = struct
  module Q = Ldx_queue.Queue

  let init ?(sync = false) ?(retry = no_retries) ?deadline ~path
      ~(config : Engine.config) (prog : Ir.program) (world : World.t)
      (params : slave_params list) : unit =
    let fp = fingerprint ~retry ?deadline ~config prog world params in
    let fresh () =
      let manifest =
        { Store.fingerprint = fp;
          meta = [ ("tasks", string_of_int (List.length params)) ];
          tasks = List.map (fun p -> p.label) params }
      in
      Store.close (Store.checkpoint_entries ~path ~sync manifest [])
    in
    match Store.load ~path with
    | Error _ -> fresh ()
    | Ok loaded ->
      if loaded.Store.l_manifest.Store.fingerprint = fp then
        (* same campaign: keep the journal (outcomes and all) and heal
           any torn records on disk — this is what makes restarting the
           supervisor a resume instead of a redo *)
        Store.close
          (Store.checkpoint_entries ~path ~sync loaded.Store.l_manifest
             loaded.Store.l_entries)
      else fresh ()

  let worker ?obs ?stop ?(sync = false) ?(retry = no_retries) ?deadline
      ?runner ?master ~path ~owner ~ttl_us ~heartbeat_us ~poll_us
      ~(config : Engine.config) (prog : Ir.program) (world : World.t)
      (params : slave_params list) :
    ([ `Complete | `Drained ], string) result =
    match Store.load ~path with
    | Error e -> Error e
    | Ok loaded ->
      let fp = fingerprint ~retry ?deadline ~config prog world params in
      if loaded.Store.l_manifest.Store.fingerprint <> fp then
        Error
          (Printf.sprintf
             "%s: fingerprint mismatch (journal %s, campaign %s): this \
              worker was launched with a different campaign spec"
             path loaded.Store.l_manifest.Store.fingerprint fp)
      else begin
        let runner = Option.value runner ~default:default_runner in
        let tasks = Array.of_list params in
        (* each worker records its own master pass — deterministic, so
           every worker's copy is byte-identical — but lazily: a worker
           joining a drained queue pays nothing.  [?master] lets
           in-process callers (bench, tests) share one recording. *)
        let mo =
          lazy
            (match master with
             | Some m -> m
             | None -> Engine.master_pass ?obs config prog world)
        in
        let t0 = now_us () in
        let task i =
          if i < 0 || i >= Array.length tasks then
            invalid_arg (Printf.sprintf "service task index %d out of range" i);
          let s, a =
            run_task_telemetry ~retry ?deadline ?obs ~runner ~index:i ~t0
              config prog world (Lazy.force mo) tasks.(i)
          in
          encode_outcome s a
        in
        match
          Q.Worker.run ?obs ?stop ~sync ~path ~owner ~ttl_us ~heartbeat_us
            ~poll_us task
        with
        | Q.Worker.Complete -> Ok `Complete
        | Q.Worker.Drained -> Ok `Drained
      end

  let escalate ?(sync = false) ~path ~kills () : (int, string) result =
    match Q.load ~path with
    | Error e -> Error e
    | Ok v ->
      let n = ref 0 in
      Array.iteri
        (fun i owners ->
           match v.Q.states.(i) with
           | Q.Done _ -> ()
           | Q.Free _ | Q.Leased _ ->
             if List.length owners >= kills then begin
               (* the task has eaten [kills] distinct workers: park it
                  as a cross-process quarantine so the fleet moves on.
                  The outcome record retires the task (Done wins over
                  any lease), exactly-once still holds. *)
               let exn =
                 Printf.sprintf "killed %d workers (%s)" (List.length owners)
                   (String.concat "," owners)
               in
               Q.complete ~path ~index:i
                 ~payload:
                   (encode_outcome
                      (Quarantined { exn; backtrace = "" })
                      (List.length owners))
                 ~sync ();
               incr n
             end)
        v.Q.expired_owners;
      Ok !n

  let collect ~path (params : slave_params list) :
    (outcome list, string) result =
    match Q.load ~path with
    | Error e -> Error e
    | Ok v ->
      let n = List.length params in
      if Array.length v.Q.states <> n then
        Error
          (Printf.sprintf "%s: journal has %d tasks, campaign has %d" path
             (Array.length v.Q.states) n)
      else if not (Q.is_complete v) then
        Error
          (Printf.sprintf "%s: campaign incomplete (%d tasks remaining)" path
             (Q.remaining v))
      else begin
        let arr = Array.of_list params in
        (* [Result.Ok]: the campaign's own [Ok of Engine.result] status
           constructor shadows the stdlib's here *)
        let rec decode_all acc : _ -> (outcome list, string) result = function
          | [] -> Result.Ok (List.rev acc)
          | (i, payload) :: rest ->
            (match decode_outcome payload with
             | Some (status, attempts) ->
               decode_all ({ params = arr.(i); status; attempts } :: acc) rest
             | None ->
               Error
                 (Printf.sprintf "%s: task %d outcome failed to decode" path i))
        in
        decode_all [] (Q.outcomes v)
      end
end

let render (outs : outcome list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %-14s %-18s %4s %8s %8s %8s %6s %10s\n" "task"
       "status" "failure" "att" "mutated" "diffs" "tainted" "leak" "wall_cyc");
  List.iter
    (fun o ->
       match o.status with
       | Crashed { exn; _ } | Quarantined { exn; _ } ->
         Buffer.add_string buf
           (Printf.sprintf "%-24s %-14s %-18s %4d %8s %8s %8s %6s %10s  %s\n"
              o.params.label (status_class o.status) "-" o.attempts "-" "-" "-"
              "-" "-" exn)
       | Ok r | Fuel_exhausted r | Timed_out r ->
         (* per-side failure classes, e.g. "ok/fuel" for a healthy
            master whose slave ran out of budget *)
         let cls s =
           Engine.(failure_class_to_string (classify_trap s.Engine.trap))
         in
         let failure =
           Printf.sprintf "%s/%s" (cls r.Engine.master) (cls r.Engine.slave)
         in
         Buffer.add_string buf
           (Printf.sprintf "%-24s %-14s %-18s %4d %8d %8d %8d %6b %10d\n"
              o.params.label (status_class o.status) failure o.attempts
              r.Engine.mutated_inputs r.Engine.syscall_diffs
              r.Engine.tainted_sinks r.Engine.leak r.Engine.wall_cycles))
    outs;
  Buffer.contents buf
