(* Campaign programs long enough to run on several domains.

   [Campaign.run] spreads tasks over more than one domain only when the
   master pass ran at least its domain break-even (20k steps), so a
   test that means to exercise the multi-domain path pads its program
   with a source-free counting loop in front of [main]'s body.  The
   padding is added at the AST level so it applies to generated
   programs too, and it changes no syscall: verdicts and tables stay
   those of the unpadded program up to step counts and wall cycles. *)

module Ast = Ldx_lang.Ast
module Obs = Ldx_obs

(* Loop iterations: three VM steps each, so ~30k steps — comfortably
   above the break-even. *)
let iterations = 10_000

let pad_main (p : Ast.program) : Ast.program =
  let v = Ast.Var "ldx_pad" in
  let loop =
    [ Ast.Let ("ldx_pad", Ast.Int 0);
      Ast.While
        ( Ast.Binop (Ast.Lt, v, Ast.Int iterations),
          [ Ast.Assign ("ldx_pad", Ast.Binop (Ast.Add, v, Ast.Int 1)) ] ) ]
  in
  { Ast.funcs =
      List.map
        (fun (f : Ast.fundef) ->
           if f.Ast.fname = "main" then { f with Ast.body = loop @ f.Ast.body }
           else f)
        p.Ast.funcs }

(* Pad, lower and instrument. *)
let program (p : Ast.program) =
  fst
    (Ldx_instrument.Counter.instrument
       (Ldx_cfg.Lower.lower_program (pad_main p)))

let of_source src = program (Ldx_lang.Parser.parse_exn src)

(* A sink that keeps only the domain count of the campaign's
   [Campaign_plan] event (0 until one arrives). *)
let plan_sink () : Obs.Sink.t * (unit -> int) =
  let jobs = ref 0 in
  ( Obs.Sink.of_fn (function
      | Obs.Event.Campaign_plan { jobs = j; _ } -> jobs := j
      | _ -> ()),
    fun () -> !jobs )

(* Did a campaign asked for several jobs really run on several domains?
   Only a host that recommends more than one domain can. *)
let fanned_out planned = Domain.recommended_domain_count () <= 1 || planned > 1

let check_fanned_out ~jobs planned =
  if jobs > 1 && not (fanned_out planned) then
    Alcotest.failf "jobs=%d: ran on %d domain(s), expected more than one"
      jobs planned
