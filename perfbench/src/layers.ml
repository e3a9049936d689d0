(* Per-layer replay: the requests of a workload pushed through the public
   function of each layer, in this process, one layer at a time. Nothing
   inside lib/ is instrumented for this; the only spans read are the ones
   the program already records when Lpp_obs is switched on. *)

open Measure
module Config = Lpp_core.Config
module Estimator = Lpp_core.Estimator

(* One request as the workload sends it. *)
type request = {
  line : string;  (** the wire line, without its newline *)
  text : string;  (** the pattern text *)
  config : Config.t;
  alg : Lpp_pattern.Algebra.t;
}

let request_line ?(trace = false) ~config text =
  Lpp_util.Json.(
    to_string
      (Obj
         ([
            ("op", String "estimate");
            ("config", String (Config.name config));
            ("pattern", String text);
          ]
         @ if trace then [ ("trace", Bool true) ] else [])))

let reps_for n = max 3 (20_000 / max 1 n)

(* The serving chain, layer by layer: request JSON, pattern parse, plan,
   canonical key, cache hit on a warm front, response JSON. *)
let serving_chain graph catalog (reqs : request array) =
  let n = Array.length reqs in
  let reps = reps_for n in
  let sink = ref 0 in
  let pair name f =
    let ns, words = per_call ~n ~reps f in
    [ metric (name ^ "_ns") "ns" ns; metric (name ^ "_words") "words" words ]
  in
  let request =
    pair "protocol.request" (fun i ->
        match Lpp_serve.Protocol.request_of_line reqs.(i).line with
        | Ok _ -> incr sink
        | Error _ -> failwith "perfbench: the replayed request does not parse")
  in
  let parsed =
    Array.map
      (fun r ->
        match Lpp_pattern.Parse.parse graph r.text with
        | Ok p -> p.pattern
        | Error msg -> failwith msg)
      reqs
  in
  let parse =
    pair "pattern.parse" (fun i ->
        match Lpp_pattern.Parse.parse graph reqs.(i).text with
        | Ok _ -> incr sink
        | Error msg -> failwith msg)
  in
  let plan =
    pair "pattern.plan" (fun i ->
        sink := !sink + Lpp_pattern.Algebra.op_count (Lpp_pattern.Planner.plan parsed.(i)))
  in
  let scratch = Lpp_pattern.Canon.create_scratch () in
  let canon =
    pair "pattern.canon" (fun i ->
        Lpp_pattern.Canon.load scratch reqs.(i).alg;
        sink := !sink lxor Lpp_pattern.Canon.hash scratch)
  in
  (* one warm front per configuration over a shared L2, as a serve worker
     holds them *)
  let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:(64 * 1024 * 1024) () in
  let fronts =
    List.map (fun c -> (c, Lpp_core.Est_cache.create ~l2 c catalog)) Config.all
  in
  let front i = List.assq reqs.(i).config fronts in
  let estimates =
    Array.mapi (fun i r -> Lpp_core.Est_cache.estimate (front i) r.alg) reqs
  in
  let hit =
    pair "core.cache_hit" (fun i ->
        let c = front i in
        if Lpp_core.Est_cache.estimate c reqs.(i).alg < 0.0 then incr sink)
  in
  let response =
    pair "protocol.response" (fun i ->
        let json =
          Lpp_serve.Protocol.ok_estimate ~id:None
            ~config:(Config.name reqs.(i).config)
            ~estimate:estimates.(i) ~ns:1234.0 ()
        in
        sink := !sink + String.length (Lpp_util.Json.to_string json))
  in
  ignore (Sys.opaque_identity !sink : int);
  request @ parse @ plan @ canon @ hit @ response

let op_kinds =
  [
    ("GetNodes", "get_nodes");
    ("LabelSelection", "label_selection");
    ("PropertySelection", "prop_selection");
    ("Expand", "expand");
    ("MergeOn", "merge_on");
  ]

let counter name = Lpp_obs.Metrics.value (Lpp_obs.Metrics.counter name)

(* The estimator over distinct (algebra, configuration) pairs: per-call
   time and words untraced, collections per 1000 estimates, then one
   traced sweep for per-operator self time and the program's lookup
   counters. *)
let estimator catalog (pairs : (Lpp_pattern.Algebra.t * Config.t) array) =
  let sessions = List.map (fun c -> (c, Estimator.make c catalog)) Config.all in
  let n = Array.length pairs in
  let call i =
    let alg, c = pairs.(i) in
    ignore (Sys.opaque_identity (Estimator.session_estimate (List.assq c sessions) alg) : float)
  in
  let reps = reps_for n in
  let ns, words = per_call ~n ~reps call in
  let s0 = Gc.quick_stat () in
  for _ = 1 to reps do
    for i = 0 to n - 1 do
      call i
    done
  done;
  let s1 = Gc.quick_stat () in
  let per_1k x = 1000.0 *. fi x /. fi (n * reps) in
  let ops =
    mean (Array.map (fun (a, _) -> fi (Lpp_pattern.Algebra.op_count a)) pairs)
  in
  Lpp_obs.Obs.enable ();
  Lpp_obs.Obs.reset ();
  let traced_ns =
    Array.init n (fun i ->
        let t0 = now_ns () in
        call i;
        elapsed_ns ~since:t0)
  in
  let spans = Lpp_obs.Trace.spans () in
  let estimates = counter "estimator.estimates" in
  let deg_hit = counter "estimator.degcache.hit" in
  let deg_fill = counter "estimator.degcache.fill" in
  let lookups =
    List.fold_left
      (fun acc c -> acc + counter c)
      0
      [
        "catalog.lookup.dense";
        "catalog.lookup.packed";
        "catalog.lookup.miss";
        "catalog.lookup.hashtable";
        "catalog.rc_row.dense";
        "catalog.rc_row.rows";
        "catalog.rc_row.generic";
      ]
  in
  Lpp_obs.Obs.disable ();
  Lpp_obs.Obs.reset ();
  let op_ns =
    List.map
      (fun (span, key) ->
        let durs =
          List.filter_map
            (fun (s : Lpp_obs.Trace.span) ->
              if s.name = span then Some (Int64.to_float s.dur) else None)
            spans
        in
        metric
          (Printf.sprintf "core.op.%s_ns" key)
          "ns"
          (if durs = [] then 0.0 else median (Array.of_list durs)))
      op_kinds
  in
  let op_total_per_est =
    List.fold_left
      (fun acc (s : Lpp_obs.Trace.span) ->
        if List.mem_assoc s.name op_kinds then acc +. Int64.to_float s.dur else acc)
      0.0 spans
    /. fi n
  in
  let traced_est =
    mean
      (Array.of_list
         (List.filter_map
            (fun (s : Lpp_obs.Trace.span) ->
              if s.name = "estimate" then Some (Int64.to_float s.dur) else None)
            spans))
  in
  Printf.printf
    "[layers] estimator: %d pairs; traced estimate mean %.0f ns, of which \
     operator spans %.0f ns (%.0f%%)\n%!"
    n traced_est op_total_per_est
    (100.0 *. op_total_per_est /. traced_est);
  [
    metric "core.estimate_ns" "ns" ns;
    metric "core.estimate_words" "words" words;
    metric "core.ops_per_est" "count" ops;
    metric "trace.obs_overhead_share" "ratio" ((median traced_ns /. ns) -. 1.0);
  ]
  @ op_ns
  @ [
      metric "core.degcache_hit_ratio" "ratio"
        (if deg_hit + deg_fill = 0 then 0.0 else fi deg_hit /. fi (deg_hit + deg_fill));
      metric "stats.lookups_per_est" "count" (fi lookups /. fi (max 1 estimates));
      metric "gc.minor_collections_per_1k_est" "count"
        (per_1k (s1.Gc.minor_collections - s0.Gc.minor_collections));
      metric "gc.major_collections_per_1k_est" "count"
        (per_1k (s1.Gc.major_collections - s0.Gc.major_collections));
    ]

(* Set-up layers of an in-process data-set build: the generator (with its
   CSR build), the catalog build — read from the program's own
   "dataset.build" span — and the freeze. *)
let setup name =
  Lpp_obs.Obs.enable ();
  Lpp_obs.Obs.reset ();
  let t0 = now_ns () in
  let ds = Inputs.build_dataset name in
  let total = elapsed_s ~since:t0 in
  let build =
    List.fold_left
      (fun acc (s : Lpp_obs.Trace.span) ->
        if s.name = "dataset.build" then acc +. (Int64.to_float s.dur /. 1e9) else acc)
      0.0 (Lpp_obs.Trace.spans ())
  in
  Lpp_obs.Obs.disable ();
  Lpp_obs.Obs.reset ();
  let t1 = now_ns () in
  Lpp_stats.Catalog.freeze ds.catalog;
  let freeze = elapsed_s ~since:t1 in
  ( ds,
    [
      metric "datasets.generate_s" "s" (total -. build);
      metric "stats.catalog_build_s" "s" build;
      metric "stats.freeze_s" "s" freeze;
    ] )
