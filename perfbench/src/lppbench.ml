(* lppbench — the lpp benchmark.

     lppbench gen DIR
       make the stored inputs (pattern sets with exact counts, renamed pool)
     lppbench rss DIR
       one offline set-up and pass in a fresh process; prints its peak RSS
     lppbench run --workload W --seed N --seconds S --trace 0|1
                  --lpp PATH --inputs DIR --run-dir DIR
       run one workload; the last line of standard output is the result

   perfbench/run.py builds this and `lpp`, then calls [run]. *)

let usage () =
  prerr_endline
    "usage: lppbench gen DIR\n\
    \       lppbench rss DIR\n\
    \       lppbench run --workload serve-hot|serve-cold|offline-dbpedia --seed N \
     --seconds S --trace 0|1 --lpp PATH --inputs DIR --run-dir DIR";
  exit 2

let run args =
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int "--seed" and seconds = float_of_int (int "--seconds") in
  let traced = int "--trace" = 1 in
  let lpp = get "--lpp" and inputs_dir = get "--inputs" and run_dir = get "--run-dir" in
  let workload = get "--workload" in
  let chk, attempted, failed, metrics =
    match workload with
    | "serve-hot" -> Serving.run ~kind:Hot ~lpp ~inputs_dir ~run_dir ~seed ~seconds ~traced
    | "serve-cold" -> Serving.run ~kind:Cold ~lpp ~inputs_dir ~run_dir ~seed ~seconds ~traced
    | "offline-dbpedia" -> Offline.run ~lpp ~inputs_dir ~run_dir ~seed ~seconds ~traced
    | _ -> usage ()
  in
  Measure.print_metrics
    (Printf.sprintf "%s (seed %d, %s): %d operations attempted, %d failed" workload seed
       (if traced then "traced" else "untraced")
       attempted failed)
    metrics;
  let correct = chk.Checks.violations = 0 in
  Option.iter
    (fun msg ->
      Printf.printf "[check] FAILED: %d violation(s); first: %s\n" chk.Checks.violations msg)
    chk.first;
  Measure.print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: [ dir ] -> Inputs.generate ~dir
  | _ :: "rss" :: [ dir ] -> Offline.rss_probe dir
  | _ :: "run" :: args -> run args
  | _ -> usage ()
