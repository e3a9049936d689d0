(* The served workloads. [lpp serve] runs as a separate process — OCaml 5
   minor collections stop every domain of a process, so a load generator
   sharing the server's process would perturb what it measures — and is
   driven over its Unix socket by one connection with one request in
   flight, the way an optimizer waits for each estimate. *)

open Measure
open Checks
module Config = Lpp_core.Config
module Json = Lpp_util.Json

(* ---- the server process -------------------------------------------------- *)

type server = { pid : int; out : in_channel; sock : string }

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

(* Spawn [lpp serve] and wait until it prints its listening line; returns
   the server and the spawn-to-ready time in seconds. The server runs with
   [OCAMLRUNPARAM=v=0x400], so at exit it writes its allocation counts to
   standard error, which goes to [sock ^ ".gc"]. *)
let spawn ~lpp ~dataset ~cache_mb ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = devnull () in
  let err =
    Unix.openfile (sock ^ ".gc") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let args =
    [|
      lpp; "serve"; "--dataset"; dataset; "--scale"; "default"; "--seed";
      string_of_int Inputs.dataset_seed; "--workers"; "1"; "--cache-mb";
      string_of_int cache_mb; "--socket"; sock; "--log-level"; "off";
    |]
  in
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let t0 = now_ns () in
  let pid = Unix.create_process_env lpp args env null wr err in
  Unix.close wr;
  Unix.close null;
  Unix.close err;
  let out = Unix.in_channel_of_descr rd in
  let rec wait_ready () =
    match input_line out with
    | line ->
        if not (String.starts_with ~prefix:"lpp serve:" line) then wait_ready ()
    | exception End_of_file ->
        ignore (Unix.waitpid [] pid : int * Unix.process_status);
        failwith "perfbench: lpp serve exited before it was ready"
  in
  wait_ready ();
  let ready = elapsed_s ~since:t0 in
  ({ pid; out; sock }, ready)

(* SIGTERM drains and exits; wait for the process to end. Returns the
   minor words the server allocated over its life, all domains together. *)
let stop s =
  Unix.kill s.pid Sys.sigterm;
  (try
     while true do
       ignore (input_line s.out : string)
     done
   with End_of_file -> ());
  close_in_noerr s.out;
  ignore (Unix.waitpid [] s.pid : int * Unix.process_status);
  (try Sys.remove s.sock with Sys_error _ -> ());
  let gc = s.sock ^ ".gc" in
  let words =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "minor_words"; v ] -> float_of_string_opt (String.trim v)
        | _ -> None)
      (String.split_on_char '\n' (Option.value ~default:"" (read_proc gc)))
  in
  (try Sys.remove gc with Sys_error _ -> ());
  match words with
  | Some w -> w
  | None -> failwith "perfbench: lpp serve reported no allocation counts at exit"

(* ---- a minimal blocking NDJSON connection -------------------------------- *)

(* Not [Lpp_serve.Client]: its reader allocates a fresh 64 KiB buffer for
   every read and copies its line buffer for every line, and with client and
   server on one CPU that cost lands in every round trip. In 10-s serve-hot
   runs it cut the wall rate from 20-29k to 15-17k req/s and raised the p99
   from 73-89 us to 660-760 us. Its type is abstract, so its [connect]
   cannot be paired with another reader. *)

type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable pos : int; mutable len : int }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let send c line =
  let len = String.length line in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring c.fd line !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let rec recv c =
  let rec find j = if j >= c.len then -1 else if Bytes.get c.buf j = '\n' then j else find (j + 1) in
  let nl = find c.pos in
  if nl >= 0 then begin
    let line = Bytes.sub_string c.buf c.pos (nl - c.pos) in
    c.pos <- nl + 1;
    line
  end
  else begin
    if c.pos > 0 then begin
      Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
      c.len <- c.len - c.pos;
      c.pos <- 0
    end;
    if c.len = Bytes.length c.buf then begin
      let b = Bytes.create (2 * c.len) in
      Bytes.blit c.buf 0 b 0 c.len;
      c.buf <- b
    end;
    match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
    | 0 -> failwith "perfbench: the server closed the connection"
    | n ->
        c.len <- c.len + n;
        recv c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv c
  end

let request c line =
  send c (line ^ "\n");
  recv c

let close c = Unix.close c.fd

(* The estimate of an [ok:true] estimate response — nan for the [null] a
   non-finite estimate is sent as — or [None] for any other response. *)
let estimate_of_response r =
  let key = {|"estimate":|} in
  let kl = String.length key in
  let n = String.length r in
  let rec find i =
    if i + kl > n then -1 else if String.sub r i kl = key then i + kl else find (i + 1)
  in
  if not (String.starts_with ~prefix:{|{"ok":true,|} r) then None
  else
    let s = find 0 in
    if s < 0 then None
    else begin
      let e = ref s in
      while !e < n && r.[!e] <> ',' && r.[!e] <> '}' do incr e done;
      match String.sub r s (!e - s) with
      | "null" -> Some nan
      | v -> float_of_string_opt v
    end

let stats c =
  match Json.of_string (request c {|{"op":"stats"}|}) with
  | Ok j -> (
      match Json.member "stats" j with
      | Some s -> s
      | None -> failwith "perfbench: stats op answered without stats")
  | Error e -> failwith ("perfbench: stats response: " ^ e)

let num path j =
  let rec go j = function
    | [] -> Option.value ~default:0.0 (Json.number j)
    | k :: rest -> (
        match Json.member k j with Some v -> go v rest | None -> 0.0)
  in
  go j path

let worker_busy_ns s =
  match Json.member "workers" s with
  | Some (Json.List (w :: _)) -> num [ "busy_ns" ] w
  | _ -> 0.0

(* ---- workload operations ------------------------------------------------- *)

type op = {
  req : Layers.request;
  expect : float;  (** the in-process session's estimate for this request *)
  wire : string;  (** the request line with its newline *)
  wire_traced : string;  (** the same with ["trace": true] *)
  cls : int;
      (** requests of one class cost the same: one (pattern, configuration)
          pair, or its renamed variants *)
}

let make_op ~cls (req : Layers.request) expect =
  {
    cls;
    req;
    expect;
    wire = req.line ^ "\n";
    wire_traced = Layers.request_line ~trace:true ~config:req.config req.text ^ "\n";
  }

let bits = Int64.bits_of_float

(* Does the served answer match the in-process one bit for bit? A
   non-finite in-process estimate must come back as null. *)
let check_estimate chk (op : op) = function
  | None -> violation chk (Printf.sprintf "%s: the response carries no estimate" op.req.text)
  | Some e ->
      let same =
        if Float.is_finite op.expect then bits e = bits op.expect else Float.is_nan e
      in
      if not same then
        violation chk
          (Printf.sprintf "%s [%s]: served %h, in process %h" op.req.text
             (Config.name op.req.config) e op.expect)

let check_answer chk op resp = check_estimate chk op (estimate_of_response resp)

(* The ["trace"] block of a response, in ns. *)
type trace = { queue : float; parse : float; estimate : float; write : float; total : float }

(* One measured window: whole rounds, closed loop, at least one round and
   then until [seconds] have passed. *)
type window = {
  lats : float array;  (** client round trips, ns *)
  traces : trace array;  (** the server's breakdown, when traced *)
  best : (int, int * float) Hashtbl.t;
      (** per request class: how many were sent, fastest round trip (ns) *)
  sent : int;
  failed : int;  (** answers that are not a finite, non-negative estimate *)
  wall_s : float;
  cpu_ns : float;  (** server CPU over the window *)
  calib_ns : float;
}

let run_window server conn chk ~seconds ~traced (next_round : unit -> op array) =
  let lats = ref [] and traces = ref [] in
  let sent = ref 0 and failed = ref 0 in
  let cpu0 = process_cpu_ns server.pid in
  let t0 = now_ns () in
  let best = Hashtbl.create 1024 in
  let cal = calib () in
  let continue = ref true in
  while !continue do
    Array.iter
      (fun (op : op) ->
        let t = now_ns () in
        send conn (if traced then op.wire_traced else op.wire);
        let resp = recv conn in
        let rtt = elapsed_ns ~since:t in
        lats := rtt :: !lats;
        (match Hashtbl.find_opt best op.cls with
        | Some (n, m) -> Hashtbl.replace best op.cls (n + 1, Float.min m rtt)
        | None -> Hashtbl.replace best op.cls (1, rtt));
        incr sent;
        let e = estimate_of_response resp in
        check_estimate chk op e;
        (match e with Some e when finite_nonneg e -> () | _ -> incr failed);
        if traced then
          match Option.bind (Result.to_option (Json.of_string resp)) (Json.member "trace") with
          | Some t ->
              traces :=
                {
                  queue = num [ "queue_ns" ] t;
                  parse = num [ "parse_ns" ] t;
                  estimate = num [ "estimate_ns" ] t;
                  write = num [ "write_ns" ] t;
                  total = num [ "total_ns" ] t;
                }
                :: !traces
          | None -> violation chk "a traced request came back without a trace")
      (next_round ());
    for _ = 1 to 3 do calibrate cal done;
    continue := elapsed_s ~since:t0 < seconds
  done;
  {
    lats = Array.of_list !lats;
    traces = Array.of_list !traces;
    best;
    calib_ns = cal.best_ns;
    sent = !sent;
    failed = !failed;
    wall_s = elapsed_s ~since:t0;
    cpu_ns = process_cpu_ns server.pid -. cpu0;
  }

(* Several windows as one: every class at its fastest over all of them,
   the reference kernel at its fastest over all of them. *)
let merge ws =
  let best = Hashtbl.create 1024 in
  List.iter
    (fun w ->
      Hashtbl.iter
        (fun cls (n, m) ->
          match Hashtbl.find_opt best cls with
          | Some (n0, m0) -> Hashtbl.replace best cls (n0 + n, Float.min m0 m)
          | None -> Hashtbl.replace best cls (n, m))
        w.best)
    ws;
  let total f = List.fold_left (fun acc w -> acc +. f w) 0.0 ws in
  {
    lats = Array.concat (List.map (fun w -> w.lats) ws);
    traces = Array.concat (List.map (fun w -> w.traces) ws);
    best;
    sent = List.fold_left (fun acc w -> acc + w.sent) 0 ws;
    failed = List.fold_left (fun acc w -> acc + w.failed) 0 ws;
    wall_s = total (fun w -> w.wall_s);
    cpu_ns = total (fun w -> w.cpu_ns);
    calib_ns = List.fold_left (fun acc w -> Float.min acc w.calib_ns) infinity ws;
  }

let cpu_per_req_us w = w.cpu_ns /. 1e3 /. fi w.sent

(* Mean round trip per request with every request class at its fastest
   observed round trip, in ns. *)
let best_rtt_ns w =
  let n, sum = Hashtbl.fold (fun _ (n, m) (tn, ts) -> (tn + n, ts +. (fi n *. m))) w.best (0, 0.0) in
  sum /. fi n

(* Median over the requests sent of their class's fastest round trip, in ns:
   each class counts as often as it was sent. *)
let best_rtt_median_ns w =
  let classes = Array.of_seq (Hashtbl.to_seq_values w.best) in
  Array.sort (fun (_, a) (_, b) -> Float.compare a b) classes;
  let half = (w.sent + 1) / 2 in
  let rec walk i seen =
    let n, m = classes.(i) in
    if seen + n >= half then m else walk (i + 1) (seen + n)
  in
  walk 0 0

let reference w =
  Printf.printf
    "[reference] %d requests in %.2f s wall: %.0f req/s wall, %.0f req/s per \
     server CPU-second; round trip p50 %.1f us, p99 %.1f us, p999 %.1f us\n\
     [reference] best case per request class: %.2f us mean (%.0f req/s), \
     %.2f us median over requests; reference kernel at best %.1f us\n%!"
    w.sent w.wall_s (fi w.sent /. w.wall_s)
    (fi w.sent /. (w.cpu_ns /. 1e9))
    (quantile w.lats 0.5 /. 1e3) (quantile w.lats 0.99 /. 1e3)
    (quantile w.lats 0.999 /. 1e3)
    (best_rtt_ns w /. 1e3) (1e9 /. best_rtt_ns w) (best_rtt_median_ns w /. 1e3)
    (w.calib_ns /. 1e3)

(* Best-case round trip per request, normalised to the reference machine. *)
let norm_rtt_ns w = normalise ~calib_ns:w.calib_ns (best_rtt_ns w)

(* The traced measurement of the serving edge: half the time untraced, half
   with ["trace": true], then the server's own per-request breakdown, its
   cache and worker counters over the traced half, how the parts add up to
   the round trip, and what tracing costs. *)
let traced_edge server conn chk ~seconds next_round =
  let plain = run_window server conn chk ~seconds:(seconds /. 2.0) ~traced:false next_round in
  reference plain;
  let s0 = stats conn in
  let w = run_window server conn chk ~seconds:(seconds /. 2.0) ~traced:true next_round in
  let s1 = stats conn in
  reference w;
  if Array.length w.traces <> Array.length w.lats then
    violation chk "traced responses without a trace block";
  let col f = Array.map f w.traces in
  let q t = t.queue and p t = t.parse and e t = t.estimate and wr t = t.write in
  let transport = Array.mapi (fun i t -> w.lats.(i) -. t.total) w.traces in
  let d path = num path s1 -. num path s0 in
  let l1 = d [ "cache"; "l1_hits" ] and l2 = d [ "cache"; "l2_hits" ]
  and misses = d [ "cache"; "misses" ] in
  let cpu = cpu_per_req_us w in
  let worker_us = mean (col (fun t -> p t +. e t +. wr t)) /. 1e3 in
  Printf.printf
    "[reconcile] round trip mean %.1f us = queue %.1f + parse %.1f + estimate \
     %.1f + write %.1f + transport %.1f (transport: the round trip minus the \
     server's total)\n\
     [reconcile] server CPU per request %.1f us, of which the worker's \
     parse+estimate+write %.1f us; %.1f us lies outside the timed worker phases\n\
     [reconcile] tracing overhead: normalised best-case round trip %.2f us \
     untraced vs %.2f us traced (%+.1f%%)\n%!"
    (mean w.lats /. 1e3) (mean (col q) /. 1e3) (mean (col p) /. 1e3)
    (mean (col e) /. 1e3) (mean (col wr) /. 1e3) (mean transport /. 1e3) cpu worker_us
    (cpu -. worker_us)
    (norm_rtt_ns plain /. 1e3) (norm_rtt_ns w /. 1e3)
    (100.0 *. ((norm_rtt_ns w /. norm_rtt_ns plain) -. 1.0));
  ( plain.sent + w.sent,
    plain.failed + w.failed,
    [
      metric "serve.queue_us" "us" (median (col q) /. 1e3);
      metric "serve.parse_us" "us" (median (col p) /. 1e3);
      metric "serve.estimate_us" "us" (median (col e) /. 1e3);
      metric "serve.write_us" "us" (median (col wr) /. 1e3);
      metric "serve.transport_us" "us" (median transport /. 1e3);
      metric "serve.worker_busy_share" "ratio"
        ((worker_busy_ns s1 -. worker_busy_ns s0) /. (w.wall_s *. 1e9));
      metric "serve.cpu_per_req_us" "us" cpu;
      metric "serve.unattributed_cpu_us" "us" (cpu -. worker_us);
      metric "trace.serve_overhead_share" "ratio" ((norm_rtt_ns w /. norm_rtt_ns plain) -. 1.0);
      metric "cache.l1_hits" "count" l1;
      metric "cache.l2_hits" "count" l2;
      metric "cache.misses" "count" misses;
      metric "cache.hit_ratio" "ratio"
        (if l1 +. l2 +. misses = 0.0 then 0.0 else (l1 +. l2) /. (l1 +. l2 +. misses));
      metric "cache.l2_bytes" "B" (num [ "cache"; "l2_bytes" ] s1);
    ] )

(* ---- the two served workloads --------------------------------------------- *)

type kind = Hot | Cold

(* Set-ups per run: the reported set-up time is their median. *)
let setup_reps = 9

(* Servers an untraced run measures, one segment of the window each. *)
let segments = 5

let hot_round = 1000

(* Every [renamed_every]-th hot request is a renamed variant. The share is
   an assumption, not a measurement: it keeps the parse and intern path in
   every round without letting it dominate. *)
let renamed_every = 10

(* The skew of the repository's own cache experiment (bench/cache_bench.ml). *)
let zipf_s = 1.1

let run ~kind ~lpp ~inputs_dir ~run_dir ~seed ~seconds ~traced =
  let chk = Checks.create () in
  (* the in-process twin of the server's catalog *)
  let ds, setup_layers =
    if traced then Layers.setup "snb"
    else begin
      let ds = Inputs.build_dataset "snb" in
      Lpp_stats.Catalog.freeze ds.catalog;
      (ds, [])
    end
  in
  let graph = ds.graph and catalog = ds.catalog in
  let snb = Inputs.load_set graph (Filename.concat inputs_dir "snb.tsv") in
  let sessions = List.map (fun c -> (c, Lpp_core.Estimator.make c catalog)) Config.all in
  let estimate c alg = Lpp_core.Estimator.session_estimate (List.assq c sessions) alg in
  let req text alg config = { Layers.line = Layers.request_line ~config text; text; config; alg } in
  let ops_of cls0 (qs : Inputs.query array) =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (q : Inputs.query) ->
              Array.map (fun c -> (req q.text q.alg c, estimate c q.alg)) configs)
            qs))
    |> Array.mapi (fun k (r, e) -> make_op ~cls:(cls0 + k) r e)
  in
  let pairs = ops_of 0 snb in
  let ladder_qs = match kind with Cold -> Inputs.ladder graph | Hot -> [||] in
  let ladder = ops_of (Array.length pairs) ladder_qs in
  let renamed =
    match kind with
    | Cold -> [||]
    | Hot ->
        Array.mapi
          (fun e (i, text) ->
            let base = pairs.((i * Array.length configs) + (e mod Array.length configs)) in
            make_op ~cls:(Array.length pairs + base.cls) (req text (Inputs.plan_text graph text) base.req.config) base.expect)
          (Inputs.load_renamed (Filename.concat inputs_dir "snb_renamed.tsv"))
  in
  (* verification before any measurement: bit identity with the in-process
     sessions for every pair, ladder rung and renamed variant, and the scan
     counts; returns the served estimates of [pairs]. Sending the whole
     renamed pool also fills the server's parse memo past its cap once, so
     every measured server starts from the same state, whatever the window. *)
  let verify conn =
    let served = Array.map (fun op -> estimate_of_response (request conn op.req.line)) pairs in
    Array.iteri (fun k op -> check_estimate chk op served.(k)) pairs;
    Checks.scan chk graph (fun config text alg ->
        let inproc = estimate config alg in
        match estimate_of_response (request conn (Layers.request_line ~config text)) with
        | Some e when bits e = bits inproc -> e
        | _ -> nan);
    Array.iter (fun op -> check_answer chk op (request conn op.req.line)) ladder;
    Array.iter (fun op -> check_answer chk op (request conn op.req.line)) renamed;
    served
  in
  (* set-up: spawn-to-ready, [setup_reps] times. One server answers the
     verification requests and stops; each server measured after it answers
     them too, so its allocation count minus that server's is what its
     window allocated. *)
  let cache_mb = match kind with Hot -> 64 | Cold -> 0 in
  let sock = Filename.concat run_dir "serve.sock" in
  let readies = ref [] in
  let spawn_verified () =
    let s, ready = spawn ~lpp ~dataset:"snb" ~cache_mb ~sock in
    readies := ready :: !readies;
    let conn = connect sock in
    (s, conn, verify conn)
  in
  let measured = if traced then 1 else segments in
  for _ = 1 to setup_reps - 1 - measured do
    let s, ready = spawn ~lpp ~dataset:"snb" ~cache_mb ~sock in
    readies := ready :: !readies;
    ignore (stop s : float)
  done;
  let base, conn, served = spawn_verified () in
  close conn;
  let base_words = stop base in
  Array.iteri
    (fun j config ->
      ignore
        (Array.fold_left
           (fun (last, i) _ ->
             let e = ladder.((i * Array.length configs) + j).expect in
             if not (Float.is_finite e) then (last, i + 1)
             else begin
               if e < last then
                 violation chk
                   (Printf.sprintf "ladder decreases at %s [%s]: %h < %h"
                      ladder_qs.(i).text (Config.name config) e last);
               (e, i + 1)
             end)
           (0.0, 0) ladder_qs
          : float * int))
    configs;
  if ladder <> [||] then
    Printf.printf "[check] ladder: %d of %d requests non-finite; finite rungs non-decreasing\n%!"
      (Array.fold_left (fun n op -> if Float.is_finite op.expect then n else n + 1) 0 ladder)
      (Array.length ladder);
  (* the request stream: whole rounds drawn from the seed. Renamed variants
     are taken in turn from the start of the pool, where the verification
     that ran just before left the parse memo's cycle, so none of them finds
     its text still memoised. *)
  let rng = Lpp_util.Rng.create seed in
  let cursor = ref 0 in
  let next_round () =
    match kind with
    | Cold ->
        let r = Array.append pairs ladder in
        Lpp_util.Rng.shuffle rng r;
        r
    | Hot ->
        Array.init hot_round (fun k ->
            if k mod renamed_every = renamed_every - 1 then begin
              let op = renamed.(!cursor mod Array.length renamed) in
              incr cursor;
              op
            end
            else pairs.(Lpp_util.Rng.zipf rng ~n:(Array.length pairs) ~s:zipf_s))
  in
  if not traced then begin
    (* one segment of the window per server, each started where the
       verification left the renamed pool *)
    let segs =
      List.init segments (fun _ ->
          let server, conn, _ = spawn_verified () in
          (* the peak after verification, which sent every distinct request
             of the workload: it does not depend on how many requests a
             segment gets through *)
          let rss = peak_rss_mib server.pid in
          cursor := 0;
          let w =
            run_window server conn chk ~seconds:(seconds /. fi segments) ~traced:false next_round
          in
          let rss_after = peak_rss_mib server.pid in
          close conn;
          let words = stop server -. base_words in
          Printf.printf
            "[reference] segment: best case %.2f us mean, kernel at best %.1f us; server \
             peak RSS %.2f MiB after verification, %.2f MiB after the segment\n"
            (best_rtt_ns w /. 1e3) (w.calib_ns /. 1e3) rss rss_after;
          (w, rss, words))
    in
    let w = merge (List.map (fun (w, _, _) -> w) segs) in
    let words = List.fold_left (fun n (_, _, m) -> n +. m) 0.0 segs in
    reference w;
    Printf.printf "[reference] server minor words per request %.1f\n%!" (words /. fi w.sent);
    ( chk,
      w.sent,
      w.failed,
      [
        metric "setup_s" "s" (median (Array.of_list !readies));
        metric "est_per_s_norm" "1/s" (1e9 /. norm_rtt_ns w);
        metric "lat_p50_us_norm" "us" (normalise ~calib_ns:w.calib_ns (best_rtt_median_ns w) /. 1e3);
        metric "minor_words_per_op" "words" (words /. fi w.sent);
        metric "peak_rss_mb" "MiB" (median (Array.of_list (List.map (fun (_, rss, _) -> rss) segs)));
        metric "catalog_bytes" "B" (Inputs.catalog_bytes catalog);
      ]
      @ Checks.qerror_metrics snb (Array.map (Option.value ~default:nan) served) )
  end
  else begin
    let server, conn, _ = spawn_verified () in
    cursor := 0;
    let attempted, failed, edge = traced_edge server conn chk ~seconds next_round in
    close conn;
    ignore (stop server : float);
    let chain = Layers.serving_chain graph catalog (Array.map (fun op -> op.req) (next_round ())) in
    let est =
      Layers.estimator catalog
        (Array.map (fun op -> (op.req.alg, op.req.config)) (Array.append pairs ladder))
    in
    let setup_s = median (Array.of_list !readies) in
    (chk, attempted, failed, setup_layers @ (metric "serve.ready_s" "s" setup_s :: edge) @ chain @ est)
  end
