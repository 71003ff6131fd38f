(* The LDX performance benchmark: one process runs one workload as a
   closed loop with a single client, checks every output against an
   expectation computed outside the timed phase, and prints its metrics
   as one JSON line.

     ldxbench.exe --workload analyze|campaign|service|incremental
                  --seed N --seconds S --trace 0|1 [--out DIR] [--perturb]
                  [--setup-only]

   --trace 0 reports the end-to-end metrics; --trace 1 alternates
   untraced and traced blocks and reports the per-layer metrics taken
   from spans around the calls into each layer.  --perturb corrupts one
   expectation (the self-check that the output checks can fail).
   --setup-only sets the workload up and exits; --trace 0 times its own
   copies run that way to report setup_s.  The
   exit code is 0 only when every op passed its check.  perfbench/run.py
   builds this program and is the command the benchmark is run with. *)

module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Mutation = Ldx_core.Mutation
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry
module Parser = Ldx_lang.Parser
module Check = Ldx_lang.Check
module Lower = Ldx_cfg.Lower
module Ir = Ldx_cfg.Ir
module Counter = Ldx_instrument.Counter
module Machine = Ldx_vm.Machine
module Snap = Ldx_snap.Snap
module Store = Ldx_store.Store
module Queue = Ldx_queue.Queue
module World = Ldx_osim.World

let span = Trace.span
let count = Trace.count
let now = Unix.gettimeofday

(* busy domains never exceed the host's recommended count *)
let nproc = max 1 (Domain.recommended_domain_count ())

let out_dir = ref "perfbench/out"

let tmp_path name =
  Filename.concat !out_dir (Printf.sprintf "%s.%d" name (Unix.getpid ()))

let remove path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

let sorted xs = List.sort Float.compare xs

let quantile xs q =
  match sorted xs with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile xs 0.5

(* The highest percentile with at least ten samples beyond it: the
   sample with exactly ten larger ones.  Returns (value, percentile). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, 0.)
  else if n <= 10 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Layer calls, spanned when tracing is on.                            *)

let blocks_of (p : Ir.program) =
  Array.fold_left (fun a f -> a + Array.length f.Ir.blocks) 0 p.Ir.funcs

(* Parser -> Check -> Lower -> Counter.instrument, as one ldx_run does.
   [Lower.lower_program] re-runs the checker itself. *)
let front_end src =
  let ast = span "lang" "lang.parse" (fun () -> Parser.parse_program src) in
  (match span "lang" "lang.check" (fun () -> Check.check_program ast) with
   | [] -> ()
   | d :: _ -> failwith ("check: " ^ d.Check.message));
  let ir = span "cfg" "cfg.lower" (fun () -> Lower.lower_program ast) in
  count "cfg.blocks" (float_of_int (blocks_of ir));
  let prog, stats =
    span "instrument" "instrument.instrument" (fun () -> Counter.instrument ir)
  in
  count "instrument.added_instrs" (float_of_int stats.Counter.instrs_added);
  prog

let master_pass config prog world =
  let w0 = Gc.minor_words () in
  let mo =
    span "engine" "engine.master_pass" (fun () ->
        Engine.master_pass config prog world)
  in
  count "vm.steps" (float_of_int mo.Engine.msummary.Engine.steps);
  count "vm.words" (Gc.minor_words () -. w0);
  mo

let slave_pass config prog world mo =
  let w0 = Gc.minor_words () in
  let r =
    span "engine" "engine.run_with_master" (fun () ->
        Engine.run_with_master config prog world mo)
  in
  count "vm.steps" (float_of_int r.Engine.slave.Engine.steps);
  count "vm.words" (Gc.minor_words () -. w0);
  r

(* The campaign runner's classification of a finished slave pass. *)
let status_of (r : Engine.result) =
  let fuel (s : Engine.exec_summary) =
    Engine.classify_trap s.Engine.trap = Engine.Fuel
  in
  if fuel r.Engine.master || fuel r.Engine.slave then
    Campaign.Fuel_exhausted r
  else Campaign.Ok r

let traced_runner : Campaign.runner =
 fun ?obs cfg prog world mo ->
  ignore obs;
  slave_pass cfg prog world mo

(* ------------------------------------------------------------------ *)
(* Output checks.                                                      *)

(* Deterministic engine counters: identical on every run of one input. *)
type counters = {
  leak : bool;
  wall : int;
  tainted : int;
  diffs : int;
  mutated : int;
  syscalls : int;
  msteps : int;
  ssteps : int;
}

let counters_of (r : Engine.result) =
  { leak = r.Engine.leak; wall = r.Engine.wall_cycles;
    tainted = r.Engine.tainted_sinks; diffs = r.Engine.syscall_diffs;
    mutated = r.Engine.mutated_inputs; syscalls = r.Engine.total_syscalls;
    msteps = r.Engine.master.Engine.steps;
    ssteps = r.Engine.slave.Engine.steps }

let note_result (r : Engine.result) =
  count "osim.syscalls"
    (float_of_int (r.Engine.total_syscalls + r.Engine.slave.Engine.syscalls));
  count "engine.syscall_diffs" (float_of_int r.Engine.syscall_diffs)

let outcome_key (o : Campaign.outcome) =
  ( Campaign.status_class o.Campaign.status,
    o.Campaign.attempts,
    Option.map counters_of (Campaign.result_of o.Campaign.status) )

(* Failed ops of one campaign: tasks whose outcome differs from the
   reference; a table that differs with every task matching counts one. *)
let check_campaign ~ref_outs ~ref_table (outs : Campaign.outcome list) =
  List.iter
    (fun o -> Option.iter note_result (Campaign.result_of o.Campaign.status))
    outs;
  let bad =
    if List.length outs <> List.length ref_outs then List.length ref_outs
    else
      List.fold_left2
        (fun acc a b -> if outcome_key a = outcome_key b then acc else acc + 1)
        0 outs ref_outs
  in
  let table = span "campaign" "campaign.render" (fun () -> Campaign.render outs) in
  if bad = 0 && not (String.equal table ref_table) then 1 else bad

(* One altered byte in a reference table (the --perturb self-check). *)
let corrupt s =
  let b = Bytes.of_string s in
  let i = Bytes.length b - 2 in
  Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Workloads.                                                          *)

type bench = {
  references : unit -> unit;  (** compute the expected outputs *)
  setup : unit -> unit;  (** front end of the programs, plus warm-up *)
  request : int -> int * int;  (** request [k]: (ops, failed ops) *)
  ops_per_request : int -> int;
  probe : unit -> unit;  (** traced run only: layer calls beside requests *)
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Machine.compile, as paid once per machine created. *)
let probe_compile progs reps =
  for _ = 1 to reps do
    List.iter
      (fun p -> ignore (span "vm" "vm.compile" (fun () -> Machine.compile p)))
      progs
  done

(* Engine probe: a Recorder sink against a bare run (obs), the copies
   the recorder counts (which must repeat exactly from run to run), and
   simulated cycles against a native run (the Fig. 6 overhead). *)
let probe_engine cases =
  List.iter
    (fun (src, config, prog, world) ->
       let copies =
         List.init 2 (fun _ ->
             let t0 = now () in
             ignore (Engine.run ~config prog world);
             let t1 = now () in
             let rc = Ldx_obs.Recorder.create () in
             ignore
               (Engine.run ~config ~obs:(Ldx_obs.Recorder.sink rc) prog world);
             let t2 = now () in
             count "obs.bare_s" (t1 -. t0);
             count "obs.recorder_s" (t2 -. t1);
             let n =
               Ldx_obs.Metrics.counter (Ldx_obs.Recorder.snapshot rc)
                 "engine.copies"
             in
             count "engine.copies" (float_of_int n);
             count "engine.recorded_runs" 1.;
             n)
       in
       if List.length (List.sort_uniq compare copies) <> 1 then
         failwith "engine copies differ between two runs of one input";
       let nomut = { config with Engine.sources = [] } in
       let r = Engine.run ~config:nomut prog world in
       count "engine.dual_cycles" (float_of_int r.Engine.wall_cycles);
       count "engine.native_cycles"
         (float_of_int
            (Engine.native_cycles ~seed:config.Engine.master_seed
               ~max_steps:config.Engine.max_steps src world)))
    cases

(* Size, load time and lease records of a finished journal. *)
let note_journal ?(leases = false) path tasks =
  let bytes = (Unix.stat path).Unix.st_size in
  match span "store" "store.load" (fun () -> Store.load ~path) with
  | Error e -> failwith e
  | Ok l ->
    count "store.journal_bytes" (float_of_int bytes);
    count "store.journal_tasks" (float_of_int tasks);
    if leases then
      count "queue.leases"
      (float_of_int
         (List.length
            (List.filter
               (function Store.Lease _ -> true | _ -> false)
               l.Store.l_entries)))

(* The outcome codec: encode and decode the outcomes of one campaign. *)
let probe_codec (outs : Campaign.outcome list) =
  let payloads =
    List.map
      (fun o ->
         span "campaign" "campaign.encode_outcome" (fun () ->
             Campaign.encode_outcome o.Campaign.status o.Campaign.attempts))
      outs
  in
  List.iter
    (fun p ->
       match
         span "campaign" "campaign.decode_outcome" (fun () ->
             Campaign.decode_outcome p)
       with
       | Some _ -> ()
       | None -> failwith "decode_outcome")
    payloads;
  payloads

(* Store appends: the outcomes of one campaign, one record each. *)
let probe_store (outs : Campaign.outcome list) =
  let path = tmp_path "probe.journal" in
  Fun.protect ~finally:(fun () -> remove path) @@ fun () ->
  let payloads = probe_codec outs in
  let manifest =
    { Store.fingerprint = "perfbench"; meta = [];
      tasks = List.map (fun o -> o.Campaign.params.Campaign.label) outs }
  in
  let st = Store.checkpoint ~path manifest [] in
  List.iteri
    (fun i p -> span "store" "store.append" (fun () -> Store.append st i p))
    payloads;
  Store.close st

(* --- analyze: one registry program, source to verdict, per request --- *)

type kind = Leak | Benign | Zero

let config_of w = function
  | Leak -> Workload.leak_config w
  | Benign -> Option.get (Workload.benign_config w)
  | Zero -> Workload.no_mutation_config w

(* The registry's ground truth, independent of any engine run. *)
let verdict_ok ~expect_leak kind (r : Engine.result) =
  r.Engine.leak = expect_leak
  && r.Engine.master.Engine.trap = None
  && r.Engine.slave.Engine.trap = None
  &&
  match kind with
  | Leak -> r.Engine.mutated_inputs > 0
  | Benign -> true
  | Zero -> r.Engine.reports = [] && r.Engine.syscall_diffs = 0

let analyze ~seed ~perturb =
  let rng = Random.State.make [| seed; 1 |] in
  let ws = Array.of_list Registry.all in
  let kinds w =
    Array.of_list
      ((Leak :: (if Workload.benign_config w <> None then [ Benign ] else []))
       @ [ Zero ])
  in
  (* twelve shuffled rounds over the 28 programs; each program cycles
     through its configs from a seeded offset, so every seed runs the
     same mix of requests in its own order *)
  let offset = Array.map (fun _ -> Random.State.int rng 6) ws in
  let sched =
    Array.concat
      (List.init 12 (fun round ->
           let order = Array.init (Array.length ws) Fun.id in
           shuffle rng order;
           Array.map
             (fun i ->
                let ks = kinds ws.(i) in
                (i, ks.((offset.(i) + round) mod Array.length ks)))
             order))
  in
  let reference =
    lazy
      (let tbl = Hashtbl.create 128 in
       Array.iter
         (fun (i, k) ->
            if not (Hashtbl.mem tbl (i, k)) then begin
              let w = ws.(i) in
              let prog, _ = Workload.instrumented w in
              let r = Engine.run ~config:(config_of w k) prog w.Workload.world in
              Hashtbl.replace tbl (i, k) (counters_of r)
            end)
         sched;
       tbl)
  in
  let flipped = if perturb then Some sched.(0) else None in
  let run_one (i, k) =
    let w = ws.(i) in
    let prog = front_end w.Workload.source in
    let config = config_of w k in
    let world = w.Workload.world in
    let r =
      if !Trace.enabled then slave_pass config prog world (master_pass config prog world)
      else Engine.run ~config prog world
    in
    note_result r;
    r
  in
  let request n =
    let ((_, k) as pair) = sched.(n mod Array.length sched) in
    let r = run_one pair in
    let expect_leak = (k = Leak) <> (flipped = Some pair) in
    let ok =
      verdict_ok ~expect_leak k r
      && counters_of r = Hashtbl.find (Lazy.force reference) pair
    in
    (1, if ok then 0 else 1)
  in
  let setup () =
    Array.iter (fun w -> ignore (front_end w.Workload.source)) ws;
    Array.iteri (fun i _ -> ignore (run_one (i, Leak))) ws
  in
  let probe () =
    let progs = Array.to_list (Array.map (fun w -> front_end w.Workload.source) ws) in
    probe_compile progs 3;
    probe_engine
      (List.map2
         (fun (w : Workload.t) prog ->
            (w.Workload.source, Workload.leak_config w, prog, w.Workload.world))
         (Array.to_list ws) progs)
  in
  let references () = ignore (Lazy.force reference) in
  { references; setup; request; ops_per_request = (fun _ -> 1); probe }

(* --- campaign: journaled mutation campaigns on 473.astar --- *)

let campaign ?(campaigns = 3) ?(strategies = 5) ?(seeds = 2) ~seed ~perturb
    () =
  let rng = Random.State.make [| seed; 2 |] in
  let w = Registry.find_exn "473.astar" in
  let config = Workload.leak_config w in
  let world = w.Workload.world in
  (* every campaign sweeps the strategies (in a seeded order) across
     slave seeds drawn from the seed *)
  let grid =
    Array.init campaigns (fun _ ->
        let st = Array.of_list Mutation.all_strategies in
        shuffle rng st;
        let sds = List.init seeds (fun _ -> Random.State.int rng 1000) in
        List.concat_map
          (fun (name, strategy) ->
             List.map
               (fun sd ->
                  { (Campaign.params_of_config config) with
                    Campaign.label = Printf.sprintf "%s/s%d" name sd;
                    strategy; slave_seed = sd })
               sds)
          (Array.to_list (Array.sub st 0 strategies)))
  in
  let ref_prog, _ = Workload.instrumented w in
  let refs =
    lazy
      (Array.mapi
         (fun c params ->
            let outs = Campaign.run ~jobs:1 ~config ref_prog world params in
            let table = Campaign.render outs in
            (outs, if perturb && c = 0 then corrupt table else table))
         grid)
  in
  let prog = ref ref_prog in
  let journal = tmp_path "campaign.journal" in
  let run_campaign c =
    let params = grid.(c) in
    span "campaign" "campaign.run" (fun () ->
        if !Trace.enabled then
          Campaign.run ~jobs:nproc ~journal ~runner:traced_runner ~config !prog
            world params
        else Campaign.run ~jobs:nproc ~journal ~config !prog world params)
  in
  let request k =
    let c = k mod campaigns in
    let outs =
      Fun.protect ~finally:(fun () -> remove journal) (fun () -> run_campaign c)
    in
    let ref_outs, ref_table = (Lazy.force refs).(c) in
    (List.length outs, check_campaign ~ref_outs ~ref_table outs)
  in
  let setup () =
    prog := front_end w.Workload.source;
    Fun.protect ~finally:(fun () -> remove journal) (fun () ->
        ignore (run_campaign 0))
  in
  let probe () =
    probe_compile [ !prog ] 5;
    probe_engine [ (w.Workload.source, config, !prog, world) ];
    (* jobs 1 (with its passes spanned) against jobs nproc *)
    let params = grid.(0) in
    for _ = 1 to 3 do
      let t0 = now () in
      ignore (master_pass config !prog world);
      let t1 = now () in
      let slaves_s = ref 0. in
      let timed_runner : Campaign.runner =
       fun ?obs cfg prog world mo ->
        let t = now () in
        let r = traced_runner ?obs cfg prog world mo in
        slaves_s := !slaves_s +. (now () -. t);
        r
      in
      ignore (Campaign.run ~jobs:1 ~runner:timed_runner ~config !prog world params);
      let t2 = now () in
      ignore (Campaign.run ~jobs:nproc ~config !prog world params);
      let t3 = now () in
      count "campaign.j1_s" (t2 -. t1);
      count "campaign.jn_s" (t3 -. t2);
      count "campaign.passes_s" (t1 -. t0 +. !slaves_s)
    done;
    probe_store (fst (Lazy.force refs).(0));
    Fun.protect ~finally:(fun () -> remove journal) (fun () ->
        ignore (run_campaign 0);
        note_journal journal (List.length params))
  in
  let references () = ignore (Lazy.force refs) in
  { references; setup; request; probe;
    ops_per_request = (fun k -> List.length grid.(k mod campaigns)) }

(* --- service: lease-queue campaigns on a small registry program --- *)

let service ?(campaigns = 2) ?(tasks = 200) ~seed ~perturb () =
  let rng = Random.State.make [| seed; 3 |] in
  let w = Registry.find_exn "Ngircd" in
  let config = Workload.leak_config w in
  let world = w.Workload.world in
  let grid =
    Array.init campaigns (fun _ ->
        let seen = Hashtbl.create tasks in
        let rec draw acc n =
          if n = 0 then List.rev acc
          else
            let s = Random.State.int rng 1_000_000 in
            if Hashtbl.mem seen s then draw acc n
            else (Hashtbl.add seen s (); draw (s :: acc) (n - 1))
        in
        Array.of_list (Campaign.of_seeds config (draw [] tasks)))
  in
  let ref_prog, _ = Workload.instrumented w in
  let refs =
    lazy
      (Array.mapi
         (fun c params ->
            let outs =
              Campaign.run ~jobs:1 ~config ref_prog world (Array.to_list params)
            in
            let table = Campaign.render outs in
            (outs, if perturb && c = 0 then corrupt table else table))
         grid)
  in
  let prog = ref ref_prog in
  let path = tmp_path "service.queue" in
  let ttl_us = 600_000_000 in
  (* the benchmark's own worker loop, one span per layer call *)
  let traced_worker params owner () =
    span "queue" "queue.worker" (fun () ->
        let mo = lazy (master_pass config !prog world) in
        let rec loop () =
          match
            span "queue" "queue.claim" (fun () ->
                Queue.claim ~path ~owner ~now_us:(Queue.now_us ()) ~ttl_us ())
          with
          | Ok (Queue.Claimed { index; _ }) ->
            let cfg = Campaign.apply config params.(index) in
            let mo = Lazy.force mo in
            let t0 = now () in
            let status =
              match slave_pass cfg !prog world mo with
              | r -> status_of r
              | exception e ->
                Campaign.Crashed { exn = Printexc.to_string e; backtrace = "" }
            in
            count "queue.slave_s" (now () -. t0);
            let payload =
              span "campaign" "campaign.encode_outcome" (fun () ->
                  Campaign.encode_outcome status 1)
            in
            span "store" "store.append" (fun () ->
                Queue.complete ~path ~index ~payload ());
            loop ()
          | Ok Queue.Wait -> Unix.sleepf 0.001; loop ()
          | Ok Queue.Drained -> ()
          | Error e -> failwith e
        in
        loop ())
  in
  let service_worker params owner () =
    match
      Campaign.Service.worker ~path ~owner ~ttl_us ~heartbeat_us:0
        ~poll_us:1_000 ~config !prog world (Array.to_list params)
    with
    | Ok (`Complete | `Drained) -> ()
    | Error e -> failwith e
  in
  let run_service c =
    let params = grid.(c) in
    let plist = Array.to_list params in
    remove path;
    span "campaign" "campaign.service_init" (fun () ->
        Campaign.Service.init ~path ~config !prog world plist);
    (* one worker, the calling domain: every claim and completion goes
       through the one journal, so in paired runs a second worker added
       only 7-20% throughput, and two busy domains on a shared 2-vCPU
       host widened the spread between runs *)
    let body = if !Trace.enabled then traced_worker else service_worker in
    body params "w0" ();
    let outs =
      span "queue" "queue.collect" (fun () ->
          Campaign.Service.collect ~path plist)
    in
    match outs with Ok outs -> outs | Error e -> failwith e
  in
  let request k =
    let c = k mod campaigns in
    Fun.protect ~finally:(fun () -> remove path) @@ fun () ->
    let outs = run_service c in
    let ref_outs, ref_table = (Lazy.force refs).(c) in
    (List.length outs, check_campaign ~ref_outs ~ref_table outs)
  in
  let setup () =
    prog := front_end w.Workload.source;
    Fun.protect ~finally:(fun () -> remove path) (fun () ->
        ignore (run_service 0))
  in
  let probe () =
    probe_compile [ !prog ] 20;
    probe_engine [ (w.Workload.source, config, !prog, world) ];
    ignore (probe_codec (fst (Lazy.force refs).(0)));
    Fun.protect ~finally:(fun () -> remove path) (fun () ->
        ignore (run_service 0);
        note_journal ~leases:true path (Array.length grid.(0)))
  in
  let references () = ignore (Lazy.force refs) in
  { references; setup; request; probe;
    ops_per_request = (fun k -> Array.length grid.(k mod campaigns)) }

(* --- incremental: decouple-point snapshots over a large live heap --- *)

(* A source-free prefix fills a 20k-element array that stays live across
   the single recv source, so each task's restore copies a large heap. *)
let incremental_src =
  "fn main() {\n\
  \  let n = 20000;\n\
  \  let a = mkarray(n, 0);\n\
  \  for (let i = 0; i < n; i = i + 1) {\n\
  \    a[i] = (i * 7919 + 13) % 1009;\n\
  \  }\n\
  \  let c = socket(\"input\");\n\
  \  let m = recv(c);\n\
  \  let k = atoi(m);\n\
  \  if (k < 0) { k = 0 - k; }\n\
  \  if (a[k % n] > 504) { send(c, \"hot\"); } else { send(c, \"cold\"); }\n\
   }\n"

let incremental ?(campaigns = 2) ?(tasks = 200) ~seed ~perturb () =
  let rng = Random.State.make [| seed; 4 |] in
  let world = World.(empty |> with_endpoint "input" [ "5741" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.Network_outputs }
  in
  let grid =
    Array.init campaigns (fun _ ->
        List.init tasks (fun i ->
            let v = Random.State.int rng 1_000_000 in
            { (Campaign.params_of_config config) with
              Campaign.label = Printf.sprintf "rr%03d" i;
              strategy = Mutation.Random_replace v }))
  in
  let ref_prog = fst (Counter.instrument (Lower.lower_source incremental_src)) in
  let refs =
    lazy
      (Array.mapi
         (fun c params ->
            let outs = Campaign.run ~jobs:1 ~config ref_prog world params in
            let table = Campaign.render outs in
            (outs, if perturb && c = 0 then corrupt table else table))
         grid)
  in
  let prog = ref ref_prog in
  (* the campaign's incremental path, driven call by call *)
  let traced_incremental params =
    let mo = master_pass config !prog world in
    let p0 = List.hd params in
    let specs = List.concat_map (fun p -> p.Campaign.sources) params in
    let prefix_cfg = Campaign.apply config { p0 with Campaign.sources = [] } in
    match
      span "snap" "snap.prefix" (fun () ->
          Engine.slave_prefix prefix_cfg ~specs !prog world mo)
    with
    | Engine.Prefix_done _ -> failwith "prefix reached no decouple point"
    | Engine.Prefix_paused ss ->
      List.map
        (fun p ->
           let cfg = Campaign.apply config p in
           let so =
             span "snap" "snap.resume" (fun () ->
                 Engine.slave_resume cfg !prog world mo ss)
           in
           let r =
             span "engine" "engine.finalize" (fun () ->
                 Engine.finalize_result cfg mo so)
           in
           { Campaign.params = p; status = status_of r; attempts = 1 })
        params
  in
  let run_incremental c =
    let params = grid.(c) in
    if !Trace.enabled then traced_incremental params
    else Campaign.run ~jobs:1 ~incremental:true ~config !prog world params
  in
  let request k =
    let c = k mod campaigns in
    let outs = run_incremental c in
    let ref_outs, ref_table = (Lazy.force refs).(c) in
    (List.length outs, check_campaign ~ref_outs ~ref_table outs)
  in
  let setup () =
    prog := front_end incremental_src;
    ignore (run_incremental 0)
  in
  let probe () =
    probe_compile [ !prog ] 20;
    probe_engine [ (incremental_src, config, !prog, world) ];
    let mo = Engine.master_pass config !prog world in
    let specs = List.concat_map (fun p -> p.Campaign.sources) grid.(0) in
    let prefix_cfg = { config with Engine.sources = [] } in
    match Engine.slave_prefix prefix_cfg ~specs !prog world mo with
    | Engine.Prefix_done _ -> failwith "prefix reached no decouple point"
    | Engine.Prefix_paused ss ->
      (* full slave passes of a few tasks: what each resume replaces *)
      List.iteri
        (fun i p ->
           if i < 5 then
             ignore (slave_pass (Campaign.apply config p) !prog world mo))
        grid.(0);
      let fprog = Machine.compile !prog in
      for _ = 1 to 20 do
        let m =
          span "snap" "snap.restore" (fun () ->
              Snap.restore ~fprog !prog ss.Engine.ss_snap)
        in
        ignore (span "snap" "snap.capture" (fun () -> Snap.capture m))
      done
  in
  let references () = ignore (Lazy.force refs) in
  { references; setup; request; probe;
    ops_per_request = (fun k -> List.length grid.(k mod campaigns)) }

let make name ~seed ~perturb =
  match name with
  | "analyze" -> analyze ~seed ~perturb
  | "campaign" -> campaign ~seed ~perturb ()
  | "service" -> service ~seed ~perturb ()
  | "incremental" -> incremental ~seed ~perturb ()
  | other -> invalid_arg ("unknown workload " ^ other)

(* The same workloads at probe size: fill in the per-layer metrics of
   layers a traced workload leaves idle. *)
let make_small name ~seed =
  match name with
  | "campaign" -> campaign ~campaigns:1 ~strategies:2 ~seeds:1 ~seed ~perturb:false ()
  | "service" -> service ~campaigns:1 ~tasks:40 ~seed ~perturb:false ()
  | "incremental" -> incremental ~campaigns:1 ~tasks:20 ~seed ~perturb:false ()
  | other -> invalid_arg ("unknown workload " ^ other)

(* ------------------------------------------------------------------ *)
(* The run.                                                            *)

(* A fixed pure-OCaml kernel: host drift between two run sets shows
   here, where no code of the program runs. *)
let calib_ms () =
  let once () =
    let t0 = now () in
    let a = Array.init 65536 (fun i -> (i * 7919) land 65535) in
    let h = Hashtbl.create 4096 in
    for r = 1 to 30 do
      Array.iteri
        (fun i v ->
           a.(i) <- (v * 31 + r) land 65535;
           if v land 1023 = 0 then Hashtbl.replace h v i)
        a
    done;
    ignore (Sys.opaque_identity (Hashtbl.length h));
    (now () -. t0) *. 1e3
  in
  median (List.init 5 (fun _ -> once ()))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

type tally = {
  mutable ops : int;
  mutable failed : int;
  mutable lat : float list;
  mutable busy : float;
  mutable windows : (float * float list) list;
      (** per window of the timed phase: ops/s and request latencies *)
  mutable next : int;
}

let tally () =
  { ops = 0; failed = 0; lat = []; busy = 0.; windows = []; next = 0 }

(* Closed loop, one client: the next request is sent when the previous
   one has completed.  A request that raises fails all its ops.  A
   window closes at the first request boundary after one second and
   three requests; a window still open when the loop ends is dropped. *)
let loop b t ~seconds =
  let stop = now () +. seconds in
  let t_begin = now () in
  let w_begin = ref t_begin and w_ops = ref 0 and w_lat = ref [] in
  while now () < stop do
    let k = t.next in
    t.next <- k + 1;
    Atomic.set Trace.current_req (k + 1);
    let t0 = now () in
    let ops, failed =
      match span "bench" "bench.request" (fun () -> b.request k) with
      | r -> r
      | exception e ->
        prerr_endline ("request failed: " ^ Printexc.to_string e);
        let n = b.ops_per_request k in
        (n, n)
    in
    let t1 = now () in
    count "ops" (float_of_int ops);
    t.lat <- (t1 -. t0) :: t.lat;
    t.ops <- t.ops + ops;
    t.failed <- t.failed + failed;
    w_ops := !w_ops + ops;
    w_lat := (t1 -. t0) :: !w_lat;
    if t1 -. !w_begin >= 1. && List.length !w_lat >= 3 then begin
      t.windows <-
        (float_of_int !w_ops /. (t1 -. !w_begin), !w_lat) :: t.windows;
      w_begin := t1;
      w_ops := 0;
      w_lat := []
    end
  done;
  Atomic.set Trace.current_req 0;
  t.busy <- t.busy +. (now () -. t_begin)

(* Set-up as a user pays it: each repetition is a fresh process that
   starts, prepares the workload's programs, makes its warm-up request
   and exits, with no reference computed.  Returns the wall time of each
   and whether it succeeded.  Its output goes to stderr: our stdout ends
   with the result line. *)
let setup_runs ~reps args =
  List.init reps (fun _ ->
      let t0 = now () in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin Unix.stderr Unix.stderr
      in
      let _, st = Unix.waitpid [] pid in
      (now () -. t0, st = Unix.WEXITED 0))

(* Per-layer metrics from the spans and counters of the requests and
   probes selected by [keep] (a request id filter).  Per-op ratios count
   only the requests [ops] selects, the same scope as their "ops". *)
let layer_metrics ~keep ~ops =
  let spans = List.filter (fun s -> keep s.Trace.req) (Trace.spans ()) in
  let named n = List.filter (fun s -> String.equal s.Trace.name n) spans in
  let dur s = s.Trace.t1 -. s.Trace.t0 in
  let total n = List.fold_left (fun a s -> a +. dur s) 0. (named n) in
  (* time inside requests only (set-up and probes run layer calls too) *)
  let in_requests n =
    List.fold_left
      (fun a s -> if ops s.Trace.req then a +. dur s else a)
      0. (named n)
  in
  let mean n =
    match named n with
    | [] -> None
    | l -> Some (total n /. float_of_int (List.length l))
  in
  let c n = Trace.counter ~keep n in
  let ratio a b = if b > 0. then Some (a /. b) else None in
  let per_op n = ratio (Trace.counter ~keep:ops n) (Trace.counter ~keep:ops "ops") in
  let scale k = Option.map (fun v -> v *. k) in
  let engine_s = total "engine.master_pass" +. total "engine.run_with_master" in
  let requests = List.filter (fun s -> ops s.Trace.req) (named "bench.request") in
  let req_total = List.fold_left (fun a s -> a +. dur s) 0. requests in
  (* first and last lease claim of every service request *)
  let claims = List.filter (fun s -> ops s.Trace.req) (named "queue.claim") in
  let by_req = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add by_req s.Trace.req s) claims;
  let reqs = List.sort_uniq compare (List.map (fun s -> s.Trace.req) claims) in
  let ends pick =
    List.map
      (fun r ->
         let l = Hashtbl.find_all by_req r in
         let s =
           List.fold_left
             (fun best s -> if pick s.Trace.t0 best.Trace.t0 then s else best)
             (List.hd l) l
         in
         dur s)
      reqs
  in
  let avg = function
    | [] -> None
    | l -> Some (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))
  in
  [ ("lang.parse_us", scale 1e6 (mean "lang.parse"));
    ("lang.check_us", scale 1e6 (mean "lang.check"));
    ("cfg.lower_us", scale 1e6 (mean "cfg.lower"));
    ("cfg.blocks", ratio (c "cfg.blocks") (float_of_int (List.length (named "cfg.lower"))));
    ("instrument.us", scale 1e6 (mean "instrument.instrument"));
    ( "instrument.added_instrs",
      ratio (c "instrument.added_instrs")
        (float_of_int (List.length (named "instrument.instrument"))) );
    ("vm.compile_us", scale 1e6 (mean "vm.compile"));
    ("vm.ns_per_step", scale 1e9 (ratio engine_s (c "vm.steps")));
    ("vm.words_per_step", ratio (c "vm.words") (c "vm.steps"));
    ("vm.steps_per_op", per_op "vm.steps");
    ("osim.syscalls_per_op", per_op "osim.syscalls");
    ("engine.master_ms", scale 1e3 (mean "engine.master_pass"));
    ("engine.slave_ms", scale 1e3 (mean "engine.run_with_master"));
    ( "engine.slave_over_master",
      match (mean "engine.run_with_master", mean "engine.master_pass") with
      | Some s, Some m -> ratio s m
      | _ -> None );
    ("engine.copies_per_op", ratio (c "engine.copies") (c "engine.recorded_runs"));
    ("engine.syscall_diffs_per_op", per_op "engine.syscall_diffs");
    ( "engine.sim_overhead_pct",
      Option.map
        (fun r -> 100. *. (r -. 1.))
        (ratio (c "engine.dual_cycles") (c "engine.native_cycles")) );
    ("campaign.run_ms", scale 1e3 (mean "campaign.run"));
    ("campaign.overhead_ratio", ratio (c "campaign.j1_s") (c "campaign.passes_s"));
    ("campaign.parallel_speedup", ratio (c "campaign.j1_s") (c "campaign.jn_s"));
    ("campaign.encode_outcome_us", scale 1e6 (mean "campaign.encode_outcome"));
    ("campaign.decode_outcome_us", scale 1e6 (mean "campaign.decode_outcome"));
    ("store.append_us", scale 1e6 (mean "store.append"));
    ("store.load_ms", scale 1e3 (mean "store.load"));
    ( "store.load_mb_per_s",
      ratio (c "store.journal_bytes" /. 1e6) (total "store.load") );
    ("store.bytes_per_outcome", ratio (c "store.journal_bytes") (c "store.journal_tasks"));
    ("queue.claim_first_ms", scale 1e3 (avg (ends ( < ))));
    ("queue.claim_last_ms", scale 1e3 (avg (ends ( > ))));
    ( "queue.leases_per_task",
      if claims = [] then None
      else ratio (c "queue.leases") (c "store.journal_tasks") );
    ("queue.collect_ms", scale 1e3 (mean "queue.collect"));
    ( "queue.outside_slave_pct",
      Option.map
        (fun r -> 100. *. (1. -. r))
        (ratio (c "queue.slave_s") (total "queue.worker")) );
    ("snap.prefix_ms", scale 1e3 (mean "snap.prefix"));
    ("snap.capture_us", scale 1e6 (mean "snap.capture"));
    ("snap.restore_us", scale 1e6 (mean "snap.restore"));
    ("snap.resume_us", scale 1e6 (mean "snap.resume"));
    ( "snap.prefix_share",
      if named "snap.prefix" = [] then None
      else ratio (in_requests "snap.prefix") req_total );
    ( "snap.resume_share",
      if named "snap.resume" = [] then None
      else
        ratio (in_requests "snap.resume" +. in_requests "engine.finalize")
          req_total );
    ("obs.recorder_ratio", ratio (c "obs.recorder_s") (c "obs.bare_s")) ]

(* Share of the requests' self time per layer; vm stepping runs inside
   the engine's calls, so the two are one bucket. *)
let self_layers =
  [ ("lang", [ "lang" ]); ("cfg", [ "cfg" ]); ("instrument", [ "instrument" ]);
    ("vm_engine", [ "vm"; "engine" ]); ("campaign", [ "campaign" ]);
    ("store", [ "store" ]); ("queue", [ "queue" ]); ("snap", [ "snap" ]);
    ("bench", [ "bench" ]) ]

let self_shares () =
  let spans = List.filter (fun s -> s.Trace.req > 0) (Trace.spans ()) in
  let selfs = Trace.self_times spans in
  let total = List.fold_left (fun a (_, t) -> a +. t) 0. selfs in
  List.map
    (fun (name, layers) ->
       let t =
         List.fold_left
           (fun a (s, t) -> if List.mem s.Trace.layer layers then a +. t else a)
           0. selfs
       in
       ("self." ^ name ^ "_pct", if total > 0. then 100. *. t /. total else 0.))
    self_layers

let unit_of n =
  let ends suffix = String.ends_with ~suffix n in
  if ends "_per_s" then (if ends "mb_per_s" then "MB/s" else "1/s")
  else if ends "_us" || ends ".us" then "us"
  else if ends "_ms" then "ms"
  else if ends "_s" then "s"
  else if ends "_mb" then "MB"
  else if ends "_pct" then "%"
  else if ends "ns_per_step" then "ns"
  else if ends "_ratio" || ends "_share" || ends "_speedup" || ends "_over_master"
  then "ratio"
  else "count"

(* The workload that owns each layer group, and the request id its
   probe-size run is traced under; its probe runs under id - 10. *)
let owners =
  [ ("campaign", -1, [ "campaign." ]); ("service", -2, [ "store."; "queue." ]);
    ("incremental", -3, [ "snap." ]) ]

let owned prefixes name =
  List.exists (fun prefix -> String.starts_with ~prefix name) prefixes

(* setup_s is the median of batches x batch fresh set-up processes.
   The host's speed drifts over seconds, so one batch runs before each
   equal segment of the timed phase. *)
let setup_batches = 5
let setup_batch = 3

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and perturb = ref false and setup_only = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " analyze|campaign|service|incremental");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1 = per-layer metrics from a traced run");
      ("--out", Arg.Set_string out_dir, " scratch directory (journals, spans)");
      ("--perturb", Arg.Set perturb, " corrupt one expectation (self-check)");
      ("--setup-only", Arg.Set setup_only, " set up the workload and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ldxbench.exe --workload W --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if !setup_only then begin
    (make !workload ~seed ~perturb:false).setup ();
    exit 0
  end;
  let calib = calib_ms () in
  (* references are computed here, outside set-up and the timed phase *)
  let b = make !workload ~seed ~perturb:!perturb in
  b.references ();
  (* peak memory counts set-up and the timed phase, not the references *)
  (try
     let oc = open_out "/proc/self/clear_refs" in
     output_string oc "5";
     close_out oc
   with Sys_error _ -> ());
  Trace.enabled := traced;
  b.setup ();
  Trace.enabled := false;
  let t = tally () in
  let metrics =
    if not traced then begin
      let args =
        [ "--workload"; !workload; "--seed"; string_of_int seed;
          "--out"; !out_dir; "--setup-only" ]
      in
      let setups =
        List.concat
          (List.init setup_batches (fun _ ->
               let runs = setup_runs ~reps:setup_batch args in
               loop b t ~seconds:(seconds /. float_of_int setup_batches);
               runs))
      in
      (* a set-up that fails counts as one failed op *)
      let setup_failed = List.length (List.filter (fun (_, ok) -> not ok) setups) in
      t.ops <- t.ops + setup_failed;
      t.failed <- t.failed + setup_failed;
      (* every timing is read in each window and the median over the
         windows is reported: the host's speed moves by up to 1.5x over
         seconds, and a slow phase then moves a few windows, not the
         metric.  The tail is the whole run's highest percentile with
         ten samples beyond it, read in each window the same way. *)
      let _, pct = tail t.lat in
      let n = List.length t.lat in
      let q = if n > 10 then float_of_int (n - 11) /. float_of_int (n - 1) else 1. in
      let in_windows f = List.map (fun (_, lat) -> f lat) t.windows in
      let rate = median (List.map fst t.windows) in
      let p50 = median (in_windows median) in
      let tl = median (in_windows (fun l -> quantile l q)) in
      Printf.eprintf
        "%s: %d requests, %d ops, %d failed; latency ms p10/p50/p90 \
         %.3f/%.3f/%.3f over the run; tail = p%.2f (%d samples beyond in \
         the run); %d windows; calib_ms=%.3f\n%!"
        !workload n t.ops t.failed
        (quantile t.lat 0.1 *. 1e3) (median t.lat *. 1e3)
        (quantile t.lat 0.9 *. 1e3)
        pct (if n > 10 then 10 else 0) (List.length t.windows) calib;
      [ ("ops_per_s", rate);
        ("latency_p50_ms", p50 *. 1e3);
        ("latency_tail_ms", tl *. 1e3);
        ("setup_s", median (List.map fst setups));
        ("peak_rss_mb", peak_rss_mb ());
        ( "ok_ratio",
          1. -. (float_of_int t.failed /. float_of_int (max 1 t.ops)) ) ]
    end
    else begin
      (* alternate untraced and traced blocks: tracing overhead is their
         throughput ratio, drift-free to first order *)
      let u = tally () in
      let block = seconds /. 6. in
      for _ = 1 to 3 do
        Trace.enabled := false;
        loop b u ~seconds:block;
        t.next <- u.next;
        Trace.enabled := true;
        loop b t ~seconds:block;
        u.next <- t.next
      done;
      let ops_rate x = float_of_int x.ops /. x.busy in
      let overhead = ops_rate t /. ops_rate u in
      (* a probe that raises counts as one failed op *)
      let guard f =
        match f () with
        | () -> ()
        | exception e ->
          prerr_endline ("probe failed: " ^ Printexc.to_string e);
          t.ops <- t.ops + 1;
          t.failed <- t.failed + 1
      in
      guard b.probe;
      let main = layer_metrics ~keep:(fun r -> r >= 0) ~ops:(fun r -> r > 0) in
      let shares = self_shares () in
      (* metrics of layers this workload leaves idle: the owning workload
         runs once at probe size, under its own negative request id *)
      let fallback =
        List.filter_map
          (fun (owner, id, prefixes) ->
             if
               List.exists
                 (fun (n, v) -> owned prefixes n && v = None)
                 main
             then begin
               guard (fun () ->
                   Trace.enabled := false;
                   let s = make_small owner ~seed in
                   s.references ();
                   s.setup ();
                   Trace.enabled := true;
                   Atomic.set Trace.current_req id;
                   let ops, failed =
                     span "bench" "bench.request" (fun () -> s.request 0)
                   in
                   count "ops" (float_of_int ops);
                   t.ops <- t.ops + ops;
                   t.failed <- t.failed + failed;
                   Atomic.set Trace.current_req (id - 10);
                   s.probe ());
               Trace.enabled := true;
               Atomic.set Trace.current_req 0;
               Some
                 ( prefixes,
                   layer_metrics
                     ~keep:(fun r -> r = id || r = id - 10)
                     ~ops:(fun r -> r = id) )
             end
             else None)
          owners
      in
      Trace.enabled := false;
      let spans_file =
        Filename.concat !out_dir
          (Printf.sprintf "spans-%s-%d.jsonl" !workload seed)
      in
      Trace.write_jsonl spans_file (Trace.spans ());
      let value name =
        match List.assoc name main with
        | Some v -> v
        | None ->
          List.find_map
            (fun (prefixes, m) ->
               if owned prefixes name then List.assoc name m else None)
            fallback
          |> Option.value ~default:0.
      in
      t.ops <- t.ops + u.ops;
      t.failed <- t.failed + u.failed;
      List.map (fun (n, _) -> (n, value n)) main
      @ shares
      @ [ ("bench.trace_overhead_ratio", overhead); ("bench.calib_ms", calib) ]
    end
  in
  let json_metric (n, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      (unit_of n)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0) t.ops t.failed
    (String.concat ", " (List.map json_metric metrics));
  exit (if t.failed = 0 then 0 else 1)
