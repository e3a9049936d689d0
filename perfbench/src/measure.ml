(* Measurement helpers shared by every workload: order statistics, CPU time
   and memory readings, per-call timing of a public function, and the
   result line the benchmark prints last. *)

let fi = float_of_int

(* ---- order statistics -------------------------------------------------- *)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let quantile a p =
  if Array.length a = 0 then nan
  else Lpp_util.Quantiles.quantile (sorted_copy a) p

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. fi (Array.length a)

(* ---- time ---------------------------------------------------------------- *)

let now_ns = Lpp_util.Clock.now_ns

let elapsed_s = Lpp_util.Clock.elapsed_s

let elapsed_ns = Lpp_util.Clock.elapsed_ns

(* CPU seconds of this process, user + system. [Unix.times] reads
   getrusage, whose user+system sum is the scheduler's exact runtime, so
   time the hypervisor steals from the VM does not count. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* /proc files report length 0, so read them in chunks. *)
let read_proc path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let buf = Buffer.create 1024 in
          let chunk = Bytes.create 4096 in
          let rec go () =
            match input ic chunk 0 4096 with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                go ()
          in
          go ();
          Some (Buffer.contents buf))

(* CPU nanoseconds of every thread of process [pid]: the first field of
   each /proc/<pid>/task/<tid>/schedstat (time on CPU, in ns). *)
let process_cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_proc (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | Some s -> (
          match String.split_on_char ' ' (String.trim s) with
          | first :: _ -> acc +. float_of_string first
          | [] -> acc)
      | None -> acc)
    0.0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* High-water resident set of process [pid] in MiB (VmHWM). *)
let peak_rss_mib pid =
  match read_proc (Printf.sprintf "/proc/%d/status" pid) with
  | None -> nan
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              let v = String.trim v in
              let kib = String.sub v 0 (String.index v ' ') in
              float_of_string kib /. 1024.0
          | _ -> acc)
        nan
        (String.split_on_char '\n' s)

(* ---- machine speed ---------------------------------------------------- *)

(* A fixed piece of work independent of lpp — random reads over a 16 MiB
   table, sorting, hashing, float arithmetic and minor allocation — whose
   fastest time over a run tracks how fast this machine is at that moment. *)
let calib_table = lazy (Array.init (2 * 1024 * 1024) (fun i -> (i * 2654435761) land 0xFFFFF))

let calib_data = Array.init 1024 (fun i -> (i * 7919) land 65535)

let calibration_kernel () =
  let table = Lazy.force calib_table in
  let x = ref 12345 and sum = ref 0 in
  for _ = 1 to 8000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    sum := !sum + table.(!x land (Array.length table - 1))
  done;
  let a = Array.copy calib_data in
  Array.sort compare a;
  let h = Hashtbl.create 256 in
  Array.iteri (fun i x -> if i land 3 = 0 then Hashtbl.replace h x i) a;
  let acc = ref 0.0 in
  for i = 1 to 2000 do
    acc := !acc +. Float.sqrt (float_of_int i) *. 1.0000001
  done;
  !sum + Hashtbl.length h + int_of_float !acc

(* The kernel's fastest time on the machine the benchmark was tuned on (a
   2-vCPU Xeon VM). Normalised timings are scaled to a machine on which the
   kernel takes exactly this long. *)
let reference_kernel_ns = 270_000.0

(* [ns] measured while the kernel's fastest time was [calib_ns], as it would
   read on the reference machine. *)
let normalise ~calib_ns ns = ns *. reference_kernel_ns /. calib_ns

type calib = { mutable best_ns : float }

let calib () = { best_ns = infinity }

let calibrate c =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (calibration_kernel ()) : int);
  let t = elapsed_ns ~since:t0 in
  if t < c.best_ns then c.best_ns <- t

(* ---- per-call timing of a public function ------------------------------ *)

(* Median wall nanoseconds and median minor words of one call of [f i],
   over [reps] sweeps of [i = 0 .. n-1]. Time and words are taken in
   separate sweeps so neither reading disturbs the other; the cost of an
   empty call, measured the same way, is subtracted from both. *)
let per_call ~n ~reps (f : int -> unit) =
  let samples g =
    let ts = Array.make (n * reps) 0.0 in
    let ws = Array.make (n * reps) 0.0 in
    let k = ref 0 in
    for _ = 1 to reps do
      for i = 0 to n - 1 do
        let t0 = now_ns () in
        g i;
        ts.(!k) <- elapsed_ns ~since:t0;
        incr k
      done
    done;
    k := 0;
    for i = 0 to n - 1 do
      let w0 = Gc.minor_words () in
      g i;
      ws.(!k) <- Gc.minor_words () -. w0;
      incr k
    done;
    (median ts, median (Array.sub ws 0 n))
  in
  let empty_ns, empty_words = samples (fun _ -> ()) in
  let ns, words = samples f in
  (Float.max 0.0 (ns -. empty_ns), Float.max 0.0 (words -. empty_words))

(* ---- the result line ---------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_metrics title ms =
  Printf.printf "== %s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-36s %16.6g %s\n" m.name m.value m.unit_)
    ms;
  flush stdout

(* The last line of standard output: one JSON object. *)
let print_result ~correct ~attempted ~failed ms =
  let open Lpp_util.Json in
  let num v =
    if Float.is_finite v then Float v
    else failwith "perfbench: a metric is not a finite number"
  in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m ->
                     (m.name, Obj [ ("value", num m.value); ("unit", String m.unit_) ]))
                   ms) );
          ]))
