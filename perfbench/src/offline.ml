(* The offline workload: in-process estimator sessions for the six
   configurations over the DBpedia pattern set — no socket, no cache — so
   the estimator's operators and the catalog lookups of a 140-label schema
   carry all the cost. *)

open Measure
module Config = Lpp_core.Config

let configs = Checks.configs

let setup_reps = 5

(* Seconds of the traced run spent on the serving edge over DBpedia. *)
let edge_seconds = 4.0

let edge_round = 60

(* Data-set build + freeze + input load, timed as one set-up. *)
let set_up inputs_dir =
  let t0 = now_ns () in
  let ds = Inputs.build_dataset "dbpedia" in
  Lpp_stats.Catalog.freeze ds.catalog;
  let qs = Inputs.load_set ds.graph (Filename.concat inputs_dir "dbpedia.tsv") in
  (ds, qs, elapsed_s ~since:t0)

(* The peak resident set of lpp's offline work alone: a fresh process of
   this program that makes one set-up and estimates every pair once, then
   prints its VmHWM. Measured apart so that the benchmark's own tables and
   the leftovers of the timed set-ups do not count. *)
let rss_probe inputs_dir =
  let ds, qs, _ = set_up inputs_dir in
  Array.iter
    (fun c ->
      let session = Lpp_core.Estimator.make c ds.catalog in
      Array.iter
        (fun (q : Inputs.query) ->
          ignore (Sys.opaque_identity (Lpp_core.Estimator.session_estimate session q.alg) : float))
        qs)
    configs;
  Printf.printf "%.17g\n" (peak_rss_mib (Unix.getpid ()))

let probe_rss inputs_dir =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "rss"; inputs_dir |] Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  close_in_noerr ic;
  match (Unix.waitpid [] pid, float_of_string_opt line) with
  | (_, Unix.WEXITED 0), Some mib -> mib
  | _ -> failwith "perfbench: the memory probe failed"

(* One timed segment: whole passes over every pair, each in a fresh seeded
   order; every call timed, the fastest time of each pair kept, the
   reference kernel run between passes. *)
type segment = {
  best_wall : float array;  (** fastest wall ns of each pair *)
  best_cpu : float array;  (** fastest CPU seconds of each pair *)
  walls : float list;  (** every call's wall ns *)
  words : float;  (** minor words of all calls *)
  attempted : int;
  failed : int;
  wall_s : float;
  cpu_s : float;
  calib_ns : float;
}

(* pair k: pattern k / 6 under configuration k mod 6 *)
let measure_segment chk rng ~seconds sessions (qs : Inputs.query array) first =
  let nc = Array.length configs in
  let n = Array.length first in
  let best_cpu = Array.make n infinity and best_wall = Array.make n infinity in
  let walls = ref [] and words = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let order = Array.init n Fun.id in
  let cal = calib () in
  let cpu0 = self_cpu_s () in
  let t0 = now_ns () in
  while elapsed_s ~since:t0 < seconds do
    for _ = 1 to 20 do
      calibrate cal
    done;
    Lpp_util.Rng.shuffle rng order;
    Array.iter
      (fun k ->
        let c0 = self_cpu_s () in
        let w0 = now_ns () in
        let m0 = Gc.minor_words () in
        let e = Lpp_core.Estimator.session_estimate sessions.(k mod nc) qs.(k / nc).alg in
        let m = Gc.minor_words () -. m0 in
        let w = elapsed_ns ~since:w0 in
        let c = self_cpu_s () -. c0 in
        words := !words +. m;
        if c < best_cpu.(k) then best_cpu.(k) <- c;
        if w < best_wall.(k) then best_wall.(k) <- w;
        walls := w :: !walls;
        incr attempted;
        if not (Checks.finite_nonneg e) then incr failed;
        if Int64.bits_of_float e <> Int64.bits_of_float first.(k) then
          Checks.violation chk
            (Printf.sprintf "%s [%s]: estimate changed between passes" qs.(k / nc).text
               (Config.name configs.(k mod nc))))
      order
  done;
  {
    best_wall;
    best_cpu;
    walls = !walls;
    words = !words;
    attempted = !attempted;
    failed = !failed;
    wall_s = elapsed_s ~since:t0;
    cpu_s = self_cpu_s () -. cpu0;
    calib_ns = cal.best_ns;
  }

let sum = Array.fold_left ( +. ) 0.0

(* The window is split into one segment per set-up, each timed on the
   data set that set-up built. Each pair's best case is its fastest time in
   any segment, and the reference kernel's its fastest in any segment. *)
let run ~lpp ~inputs_dir ~run_dir ~seed ~seconds ~traced =
  let chk = Checks.create () in
  let nc = Array.length configs in
  let rng = Lpp_util.Rng.create seed in
  let times = ref [] and segs = ref [] and last = ref None and first0 = ref None in
  for i = 1 to setup_reps do
    last := None;
    Gc.full_major ();
    let (ds : Lpp_datasets.Dataset.t), qs, s = set_up inputs_dir in
    times := s :: !times;
    let sessions = Array.map (fun c -> Lpp_core.Estimator.make c ds.catalog) configs in
    if i = 1 then
      Checks.scan chk ds.graph (fun config _ alg ->
          let rec find j = if configs.(j) == config then sessions.(j) else find (j + 1) in
          Lpp_core.Estimator.session_estimate (find 0) alg);
    let first =
      Array.init (Array.length qs * nc) (fun k ->
          Lpp_core.Estimator.session_estimate sessions.(k mod nc) qs.(k / nc).Inputs.alg)
    in
    (match !first0 with
    | None -> first0 := Some first
    | Some f0 ->
        Array.iteri
          (fun k e ->
            if Int64.bits_of_float e <> Int64.bits_of_float f0.(k) then
              Checks.violation chk
                (Printf.sprintf "%s [%s]: estimate differs between set-ups" qs.(k / nc).text
                   (Config.name configs.(k mod nc))))
          first);
    segs := measure_segment chk rng ~seconds:(seconds /. fi setup_reps) sessions qs first :: !segs;
    last := Some (ds, qs, first)
  done;
  let (ds : Lpp_datasets.Dataset.t), qs, first = Option.get !last in
  let graph = ds.graph and catalog = ds.catalog in
  let n = Array.length first in
  let segs = Array.of_list (List.rev !segs) in
  let total f = Array.fold_left (fun acc g -> acc + f g) 0 segs in
  let attempted = total (fun g -> g.attempted) and failed = total (fun g -> g.failed) in
  let walls = Array.of_list (List.concat_map (fun g -> g.walls) (Array.to_list segs)) in
  let words = Array.fold_left (fun acc g -> acc +. g.words) 0.0 segs in
  Array.iteri
    (fun i g ->
      Printf.printf
        "[reference] segment %d: %d passes over %d pairs in %.2f s wall: %.0f est/s \
         wall, %.0f est/s per CPU-second; best case per pair %.0f est/s by wall \
         time, %.0f by CPU time; reference kernel at best %.1f us\n"
        (i + 1) (g.attempted / n) n g.wall_s
        (fi g.attempted /. g.wall_s)
        (fi g.attempted /. g.cpu_s)
        (fi n /. (sum g.best_wall /. 1e9))
        (fi n /. sum g.best_cpu)
        (g.calib_ns /. 1e3))
    segs;
  let best_wall = Array.init n (fun k -> Array.fold_left (fun m g -> Float.min m g.best_wall.(k)) infinity segs) in
  let calib_ns = Array.fold_left (fun m g -> Float.min m g.calib_ns) infinity segs in
  let norm = normalise ~calib_ns in
  Printf.printf
    "[reference] all segments: per call p50 %.1f us, p99 %.1f us, p999 %.1f us; \
     best case per pair %.0f est/s by wall time, median %.2f us; reference \
     kernel at best %.1f us; %.1f minor words per estimate\n%!"
    (quantile walls 0.5 /. 1e3) (quantile walls 0.99 /. 1e3) (quantile walls 0.999 /. 1e3)
    (fi n /. (sum best_wall /. 1e9)) (median best_wall /. 1e3) (calib_ns /. 1e3)
    (words /. fi attempted);
  let metrics =
    if not traced then begin
      [
        metric "setup_s" "s" (median (Array.of_list !times));
        metric "est_per_s_norm" "1/s" (fi n /. (norm (sum best_wall) /. 1e9));
        metric "lat_p50_us_norm" "us" (norm (median best_wall) /. 1e3);
        metric "minor_words_per_op" "words" (words /. fi attempted);
        metric "peak_rss_mb" "MiB" (probe_rss inputs_dir);
        metric "catalog_bytes" "B" (Inputs.catalog_bytes catalog);
      ]
      @ Checks.qerror_metrics qs first
    end
    else begin
      let _, setup_layers = Layers.setup "dbpedia" in
      (* the serving edge on this data set: every pair through an uncached
         DBpedia server, bit-checked against the sessions above *)
      let sock = Filename.concat run_dir "serve.sock" in
      let server, ready = Serving.spawn ~lpp ~dataset:"dbpedia" ~cache_mb:0 ~sock in
      let conn = Serving.connect sock in
      let ops =
        Array.init n (fun k ->
            let q = qs.(k / nc) in
            let config = configs.(k mod nc) in
            Serving.make_op ~cls:k
              { Layers.line = Layers.request_line ~config q.text; text = q.text; config; alg = q.alg }
              first.(k))
      in
      (* rounds of [edge_round] pairs, about as long as a served round, so the
         reference kernel runs as often as it does there *)
      let next = ref 0 in
      let round () =
        let r = Array.init edge_round (fun i -> ops.((!next + i) mod n)) in
        next := (!next + edge_round) mod n;
        r
      in
      let _, _, edge = Serving.traced_edge server conn chk ~seconds:edge_seconds round in
      Serving.close conn;
      ignore (Serving.stop server : float);
      let chain = Layers.serving_chain graph catalog (Array.map (fun (op : Serving.op) -> op.req) ops) in
      let est = Layers.estimator catalog (Array.map (fun (op : Serving.op) -> (op.req.alg, op.req.config)) ops) in
      setup_layers @ (metric "serve.ready_s" "s" ready :: edge) @ chain @ est
    end
  in
  (chk, attempted, failed, metrics)
