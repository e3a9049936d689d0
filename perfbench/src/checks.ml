(* The correctness checks every workload runs. None of them compares
   against stored copies of today's estimates: they come from a scan of the
   graph, from an independent in-process session, or from properties the
   method must have. A violated check makes the run incorrect; an estimate
   that is not finite and non-negative only counts as a failed operation. *)

open Measure
module Config = Lpp_core.Config

(* The six configurations of the paper, in its order. *)
let configs = Array.of_list Config.all

type t = { mutable violations : int; mutable first : string option }

let create () = { violations = 0; first = None }

let violation chk msg =
  chk.violations <- chk.violations + 1;
  if chk.first = None then chk.first <- Some msg

let finite_nonneg e = Float.is_finite e && e >= 0.0

(* Estimates are floats computed from integer statistics; a count may come
   back off by a rounding step or two, which still counts as equal. *)
let equal_count e c = Float.abs (e -. c) <= 1e-12 *. Float.max 1.0 c

(* The scan checks through [estimate config text alg]: every label in all
   six configurations, every single-edge triple in the five
   triple-statistics ones. *)
let scan chk graph estimate =
  let t0 = now_ns () in
  let sl_differs = ref 0 and exact = ref 0 and rounded = ref 0 in
  List.iter
    (fun (c : Inputs.check) ->
      let alg = Inputs.plan_text graph c.c_text in
      Array.iter
        (fun config ->
          let got = estimate config c.c_text alg in
          if c.single_edge && config == Config.s_l then begin
            if not (equal_count got c.expect) then incr sl_differs
          end
          else if got = c.expect then incr exact
          else if equal_count got c.expect then incr rounded
          else
            violation chk
              (Printf.sprintf "%s [%s]: estimate %h, scan counts %.0f" c.c_text
                 (Config.name config) got c.expect))
        configs)
    (Inputs.scan_checks graph);
  Printf.printf
    "[check] scan checks: %d exact, %d within rounding, %d violated; S-L differs \
     on %d single-edge patterns (%.1f s)\n%!"
    !exact !rounded chk.violations !sl_differs (elapsed_s ~since:t0)

(* q-errors of [estimates.(k)] — pattern [k / 6] under configuration
   [k mod 6] — against the exact counts. *)
let qerror_metrics (qs : Inputs.query array) estimates =
  let nc = Array.length configs in
  let q =
    Array.to_list estimates
    |> List.mapi (fun k e ->
           Option.map (fun t -> Float.max (e /. t) (t /. e)) qs.(k / nc).truth)
    |> List.filter_map Fun.id |> Array.of_list
  in
  [ metric "qerror_p50" "ratio" (quantile q 0.5); metric "qerror_p90" "ratio" (quantile q 0.9) ]
