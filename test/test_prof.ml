(* Profiler tests: the no-perturbation invariant (verdicts and engine
   counters bit-identical with profiling on or off), cost-accounting
   exactness (profile totals equal the machine clocks, the report wall
   equals the engine's wall_cycles), report format round-trips, the
   bench-diff regression gate, and the campaign trace lanes at jobs>1. *)

module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Mutation = Ldx_core.Mutation
module Profile = Ldx_vm.Profile
module Report = Ldx_prof.Report
module Bench_diff = Ldx_prof.Bench_diff
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry
module Obs = Ldx_obs
module E = Obs.Event
module J = Obs.Json

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains hay needle =
  let hn = String.length hay and nn = String.length needle in
  let found = ref false in
  for i = 0 to hn - nn do
    if (not !found) && String.sub hay i nn = needle then found := true
  done;
  !found

(* ------------------------------------------------------------------ *)
(* No-perturbation + exact accounting on real registry workloads.      *)

(* One bare and one profiled run per workload, shared across cases. *)
let runs =
  let tbl = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
      let w = Registry.find_exn name in
      let prog = fst (Workload.instrumented w) in
      let config = Workload.leak_config w in
      let bare = Engine.run ~config prog w.Workload.world in
      let prof = Engine.fresh_profiles () in
      let profiled = Engine.run ~config ~prof prog w.Workload.world in
      let v = (bare, profiled, prof) in
      Hashtbl.add tbl name v;
      v

let test_no_perturbation name () =
  let bare, profiled, _ = runs name in
  (* the whole result record: verdicts, reports, traces, summaries,
     every counter *)
  check bool "result bit-identical with profiling" true (bare = profiled);
  check bool "leak verdict" (bare.Engine.leak) profiled.Engine.leak;
  check int "tainted sinks" bare.Engine.tainted_sinks
    profiled.Engine.tainted_sinks;
  check int "wall cycles" bare.Engine.wall_cycles profiled.Engine.wall_cycles

let test_accounting name () =
  let _, r, pp = runs name in
  let d =
    Report.of_profiles ~master:pp.Engine.prof_master
      ~slave:pp.Engine.prof_slave
  in
  check int "master profile total = master clock"
    r.Engine.master.Engine.cycles
    d.Report.d_master.Profile.s_total_cycles;
  check int "slave profile total = slave clock" r.Engine.slave.Engine.cycles
    d.Report.d_slave.Profile.s_total_cycles;
  check int "report wall = engine wall_cycles" r.Engine.wall_cycles
    d.Report.d_wall;
  (* every cycle is attributed exactly once: per-block op cycles plus
     engine coupling cycles re-sum to the side total *)
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let side (s : Profile.snapshot) =
    check int "blocks + engine = total" s.Profile.s_total_cycles
      (sum (fun (b : Profile.block_row) -> b.Profile.b_cycles)
         s.Profile.s_blocks
       + sum (fun (r : Profile.row) -> r.Profile.r_cycles)
           s.Profile.s_engine);
    check int "ops + engine = total" s.Profile.s_total_cycles
      (sum (fun (r : Profile.row) -> r.Profile.r_cycles) s.Profile.s_ops
       + sum (fun (r : Profile.row) -> r.Profile.r_cycles)
           s.Profile.s_engine)
  in
  side d.Report.d_master;
  side d.Report.d_slave

let test_profile_determinism () =
  let snap () =
    let _, _, pp = runs "403.gcc" in
    Report.of_profiles ~master:pp.Engine.prof_master
      ~slave:pp.Engine.prof_slave
  in
  let w = Registry.find_exn "403.gcc" in
  let prog = fst (Workload.instrumented w) in
  let prof = Engine.fresh_profiles () in
  ignore
    (Engine.run ~config:(Workload.leak_config w) ~prof prog w.Workload.world);
  let again =
    Report.of_profiles ~master:prof.Engine.prof_master
      ~slave:prof.Engine.prof_slave
  in
  check bool "profiles bit-identical across runs" true (snap () = again);
  check string "rendered report identical" (Report.render (snap ()))
    (Report.render again)

(* ------------------------------------------------------------------ *)
(* Report formats.                                                     *)

let test_json_roundtrip () =
  let _, _, pp = runs "403.gcc" in
  let d =
    Report.of_profiles ~master:pp.Engine.prof_master
      ~slave:pp.Engine.prof_slave
  in
  let j = Report.to_json d in
  (match Report.of_json j with
   | Ok d' -> check bool "of_json (to_json d) = d" true (d = d')
   | Error e -> Alcotest.failf "of_json failed: %s" e);
  (* and through the actual serializer + parser *)
  match J.parse (J.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' ->
    (match Report.of_json j' with
     | Ok d' -> check bool "serialized round-trip" true (d = d')
     | Error e -> Alcotest.failf "of_json after parse failed: %s" e)

let test_folded_sums () =
  let _, r, pp = runs "403.gcc" in
  let d =
    Report.of_profiles ~master:pp.Engine.prof_master
      ~slave:pp.Engine.prof_slave
  in
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Report.folded d))
  in
  let side_sum prefix =
    List.fold_left
      (fun acc l ->
         if String.length l > String.length prefix
            && String.sub l 0 (String.length prefix) = prefix
         then
           match String.rindex_opt l ' ' with
           | Some i ->
             acc
             + int_of_string
                 (String.sub l (i + 1) (String.length l - i - 1))
           | None -> acc
         else acc)
      0 lines
  in
  check int "master folded lines sum to master clock"
    r.Engine.master.Engine.cycles (side_sum "master;");
  check int "slave folded lines sum to slave clock"
    r.Engine.slave.Engine.cycles (side_sum "slave;");
  check bool "engine frames present" true
    (List.exists (fun l -> contains l ";engine;") lines)

let test_render_shape () =
  let _, r, pp = runs "473.astar" in
  let d =
    Report.of_profiles ~master:pp.Engine.prof_master
      ~slave:pp.Engine.prof_slave
  in
  let s = Report.render d in
  check bool "wall header" true
    (contains s (Printf.sprintf "wall %d cycles" r.Engine.wall_cycles));
  check bool "ranked opcode table" true (contains s "opcode");
  check bool "syscall table" true (contains s "syscall");
  let e = Report.diff d d in
  check bool "self-diff reports zero wall delta" true
    (contains e (Printf.sprintf "wall %d -> %d (+0)" r.Engine.wall_cycles
                   r.Engine.wall_cycles))

(* ------------------------------------------------------------------ *)
(* bench-diff regression gate.                                         *)

let bench_fixture =
  J.Obj
    [ ("schema", J.Str "ldx-bench/1");
      ( "wall_times",
        J.Obj
          [ ("ldx kernel_a", J.Float 1000.);
            ("ldx kernel_b", J.Float 250.);
            ("ldx kernel_c", J.Null) ] );
      ( "engine_counters",
        J.Obj
          [ ( "w1",
              J.Obj
                [ ("leak", J.Bool true);
                  ("copies", J.Int 7);
                  ("wall_cycles", J.Int 500) ] );
            ( "w2",
              J.Obj [ ("leak", J.Bool false); ("wall_cycles", J.Int 42) ] )
          ] ) ]

let diff_exn ?threshold ?cycles_only baseline current =
  match Bench_diff.compare ?threshold ?cycles_only ~baseline ~current () with
  | Ok o -> o
  | Error e -> Alcotest.failf "bench-diff failed: %s" e

let test_bench_diff_identical () =
  let o = diff_exn bench_fixture bench_fixture in
  check int "no regressions on identical runs" 0 o.Bench_diff.bd_regressions;
  check bool "counters were actually compared" true
    (o.Bench_diff.bd_checks >= 5)

let test_bench_diff_doctored () =
  let doctored =
    match Bench_diff.doctor bench_fixture with
    | Ok d -> d
    | Error e -> Alcotest.failf "doctor failed: %s" e
  in
  let o = diff_exn bench_fixture doctored in
  check bool "doctored slowdown trips the gate" true
    (o.Bench_diff.bd_regressions >= 2);
  check bool "wall regression reported" true
    (contains o.Bench_diff.bd_report "wall");
  check bool "counter regression reported" true
    (contains o.Bench_diff.bd_report "wall_cycles");
  (* cycles-only mode ignores the wall slowdown but still catches the
     counter change *)
  let oc = diff_exn ~cycles_only:true bench_fixture doctored in
  check int "cycles-only catches exactly the counter" 1
    oc.Bench_diff.bd_regressions

let test_bench_diff_threshold () =
  let bump =
    J.Obj
      [ ("schema", J.Str "ldx-bench/1");
        ( "wall_times",
          J.Obj
            [ ("ldx kernel_a", J.Float 1200.);
              ("ldx kernel_b", J.Float 250.);
              ("ldx kernel_c", J.Null) ] );
        (match bench_fixture with
         | J.Obj l -> List.nth l 2
         | _ -> assert false) ]
  in
  (* +20% passes at the default 30% slack, fails at 10% *)
  check int "within threshold" 0
    (diff_exn bench_fixture bump).Bench_diff.bd_regressions;
  check int "beyond tighter threshold" 1
    (diff_exn ~threshold:0.1 bench_fixture bump).Bench_diff.bd_regressions

let test_bench_diff_missing_workload () =
  let pruned =
    J.Obj
      [ ("schema", J.Str "ldx-bench/1");
        ( "wall_times",
          match J.member "wall_times" bench_fixture with
          | Some w -> w
          | None -> assert false );
        ( "engine_counters",
          J.Obj
            [ ( "w1",
                J.Obj
                  [ ("leak", J.Bool true);
                    ("copies", J.Int 7);
                    ("wall_cycles", J.Int 500) ] ) ] ) ]
  in
  check bool "dropped workload is a regression" true
    ((diff_exn bench_fixture pruned).Bench_diff.bd_regressions >= 1)

(* ------------------------------------------------------------------ *)
(* Campaign trace lanes.                                               *)

(* Synthetic golden mimicking the collected (jobs>1) event stream: the
   heartbeats arrive first (arrival order), the buffered per-task
   events drain afterwards in task order.  Pins: checkpoint on the
   journal lane (tid 998), one lane per task (tid 1000+index) with
   begin instant + wall_cycles slice laid end-to-end, heartbeats and
   the wall-clock queue/run split excluded. *)
let campaign_synthetic_events =
  [ E.Checkpoint { path = "c.journal"; tasks = 2; journaled = 0 };
    E.Campaign_plan
      { mode = "parallel"; jobs = 2; tasks = 2; est_steps = 100 };
    E.Campaign_progress
      { completed = 1; total = 2; cycles_done = 60; eta_cycles = 60 };
    E.Campaign_progress
      { completed = 2; total = 2; cycles_done = 100; eta_cycles = 0 };
    E.Task_begin { label = "zero"; index = 0 };
    E.Task_timing
      { label = "zero"; index = 0; queue_us = 12; run_us = 34;
        wall_cycles = 60 };
    E.Task_begin { label = "bitflip"; index = 1 };
    E.Task_timing
      { label = "bitflip"; index = 1; queue_us = 99; run_us = 11;
        wall_cycles = 40 } ]

let campaign_trace_golden =
  {|{"displayTimeUnit":"ns","otherData":{},"traceEvents":[{"name":"process_name","ph":"M","pid":0,"args":{"name":"engine"}},{"name":"process_name","ph":"M","pid":1,"args":{"name":"master"}},{"name":"process_name","ph":"M","pid":2,"args":{"name":"slave"}},{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"thread 0"}},{"name":"thread_name","ph":"M","pid":0,"tid":998,"args":{"name":"journal"}},{"name":"thread_name","ph":"M","pid":0,"tid":1000,"args":{"name":"task zero"}},{"name":"thread_name","ph":"M","pid":0,"tid":1001,"args":{"name":"task bitflip"}},{"name":"checkpoint","cat":"journal","ph":"i","ts":0,"pid":0,"tid":998,"s":"t","args":{"path":"c.journal","tasks":2,"journaled":0}},{"name":"campaign parallel","cat":"campaign","ph":"i","ts":0,"pid":0,"tid":0,"s":"p","args":{"jobs":2,"tasks":2,"est_steps":100}},{"name":"begin zero","cat":"campaign","ph":"i","ts":0,"pid":0,"tid":1000,"s":"t","args":{"index":0}},{"name":"zero","cat":"campaign","ph":"X","ts":0,"pid":0,"tid":1000,"dur":60,"args":{"index":0,"wall_cycles":60}},{"name":"begin bitflip","cat":"campaign","ph":"i","ts":60,"pid":0,"tid":1001,"s":"t","args":{"index":1}},{"name":"bitflip","cat":"campaign","ph":"X","ts":60,"pid":0,"tid":1001,"dur":40,"args":{"index":1,"wall_cycles":40}}]}|}

let test_campaign_trace_golden () =
  check string "campaign trace JSON" campaign_trace_golden
    (Obs.Chrome_trace.to_string campaign_synthetic_events)

(* A real fan-out: the rendered trace is byte-identical at jobs=1 and
   jobs=4 once the (intentionally different) Campaign_plan instant is
   normalized — task lanes drain in task order regardless of worker
   interleaving, heartbeats stay out.  The program is padded past the
   domain break-even so that jobs=4 really runs on several domains. *)
let fig2_src =
  {| fn main() {
       let sock = socket("hr");
       let name = recv(sock);
       let title = recv(sock);
       let raise = 0;
       if (title == "STAFF") { raise = 1; } else { raise = 2; }
       send(sock, name);
       send(sock, itoa(raise));
     } |}

let fig2_world =
  Ldx_osim.World.(
    empty |> with_endpoint "hr" [ "alice"; "STAFF"; "ENG" ])

let fig2_config =
  { Engine.default_config with
    Engine.sources = [ Engine.source ~sys:"recv" ~nth:2 () ];
    sinks = Engine.Network_outputs }

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length s and m = String.length sub in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub s !i m = sub then begin
      Buffer.add_string b by;
      i := !i + m
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let campaign_trace ~jobs =
  let prog = Padded.of_source fig2_src in
  let params =
    Campaign.of_strategies fig2_config Mutation.all_strategies
  in
  let journal = Filename.temp_file "ldx_prof_test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let rc = Obs.Recorder.create () in
  let plan, planned = Padded.plan_sink () in
  ignore
    (Campaign.run ~jobs
       ~obs:(Obs.Sink.tee [ Obs.Recorder.sink rc; plan ])
       ~journal ~config:fig2_config prog fig2_world params);
  Padded.check_fanned_out ~jobs (planned ());
  (* the temp journal path is the one run-specific string in the trace *)
  ( replace_all ~sub:journal ~by:"JOURNAL"
      (Obs.Chrome_trace.to_string (Obs.Recorder.events rc)),
    List.length params )

let test_campaign_trace_jobs () =
  let t1, ntasks = campaign_trace ~jobs:1 in
  let t4, _ = campaign_trace ~jobs:4 in
  let normalized =
    replace_all ~sub:"campaign parallel" ~by:"campaign sequential"
      (replace_all ~sub:{|"jobs":4|} ~by:{|"jobs":1|} t4)
  in
  check string "jobs=4 trace = jobs=1 trace (mod plan instant)" t1
    normalized;
  check bool "journal lane present" true
    (contains t4 (Printf.sprintf {|"tid":%d|} 998));
  check bool "first task lane present" true (contains t4 {|"tid":1000|});
  check bool "last task lane present" true
    (contains t4 (Printf.sprintf {|"tid":%d|} (1000 + ntasks - 1)));
  check bool "no queue_us in traces" false (contains t4 "queue_us");
  (* determinism at jobs>1: a second parallel run renders byte-equal *)
  let t4', _ = campaign_trace ~jobs:4 in
  check string "jobs=4 trace reproducible" t4 t4'

let tests =
  [ Alcotest.test_case "no perturbation (403.gcc)" `Quick
      (test_no_perturbation "403.gcc");
    Alcotest.test_case "no perturbation (473.astar)" `Quick
      (test_no_perturbation "473.astar");
    Alcotest.test_case "exact accounting (403.gcc)" `Quick
      (test_accounting "403.gcc");
    Alcotest.test_case "exact accounting (473.astar)" `Quick
      (test_accounting "473.astar");
    Alcotest.test_case "profile determinism" `Quick test_profile_determinism;
    Alcotest.test_case "profile json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "folded stacks sum to clocks" `Quick test_folded_sums;
    Alcotest.test_case "render shape" `Quick test_render_shape;
    Alcotest.test_case "bench-diff identical" `Quick
      test_bench_diff_identical;
    Alcotest.test_case "bench-diff doctored" `Quick test_bench_diff_doctored;
    Alcotest.test_case "bench-diff threshold" `Quick
      test_bench_diff_threshold;
    Alcotest.test_case "bench-diff missing workload" `Quick
      test_bench_diff_missing_workload;
    Alcotest.test_case "campaign trace golden" `Quick
      test_campaign_trace_golden;
    Alcotest.test_case "campaign trace at jobs>1" `Quick
      test_campaign_trace_jobs ]
