(* The benchmark's inputs: the two data sets, the stored pattern sets with
   their exact counts, the var-length ladder, the renamed-variable pool,
   and the scan-derived checks.

   Pattern sets are expensive to make (exact counting takes a minute), so
   [generate] writes them once under perfbench/inputs/ and every run only
   reads them. Everything is derived from the fixed seeds below. *)

open Lpp_pattern

(* Data-set seed: the [lpp serve --seed] default, passed explicitly to the
   served process too, so the benchmark's in-process catalog and the
   server's are built from the same draw. *)
let dataset_seed = 42

let snb_query_seed = 1301

let dbpedia_query_seed = 1302

let rename_seed = 1303

(* Larger than the server's 8192-entry per-worker parse memo, so renamed
   requests keep missing it. *)
let rename_pool = 10_000

let queries_per_set = 90

(* Hop upper bounds of [(a:Person)-[:KNOWS*1..k]->(b:Person)]. Rungs of
   500 hops and more overflow the var-length Expand today and answer
   non-finite estimates. *)
let ladder_hops = [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64; 96; 128; 192; 256; 300; 500; 600 ]

let ladder_text k = Printf.sprintf "(a:Person)-[:KNOWS*1..%d]->(b:Person)" k

let build_dataset name =
  match
    Lpp_datasets.Scale.build Lpp_datasets.Scale.Default ~name ~seed:dataset_seed
  with
  | Some ds -> ds
  | None -> failwith ("perfbench: unknown data set " ^ name)

(* The paper's summary size: every component of the catalog, in bytes. *)
let catalog_bytes catalog =
  float_of_int
    (List.fold_left (fun acc (_, b) -> acc + b) 0 (Lpp_stats.Catalog.memory_breakdown catalog))

(* ---- stored files -------------------------------------------------------- *)

(* Tab-separated lines, '#' comments: [first-field \t pattern]. *)
let read_tsv path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line '\t' with
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.sub line (i + 1) (String.length line - i - 1) )
           | None -> failwith ("perfbench: malformed input line: " ^ line))
  |> Array.of_list

let write_tsv path ~header rows =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun h -> Printf.fprintf oc "# %s\n" h) header;
      List.iter (fun (a, b) -> Printf.fprintf oc "%s\t%s\n" a b) rows)

(* A pattern of the workload, parsed and planned once. *)
type query = {
  text : string;
  truth : float option;  (** exact count; [None] for the ladder *)
  alg : Algebra.t;
}

let plan_text graph text =
  match Parse.parse graph text with
  | Ok { pattern; _ } -> Planner.plan pattern
  | Error msg -> failwith (Printf.sprintf "perfbench: %S does not parse: %s" text msg)

let load_set graph path =
  Array.map
    (fun (truth, text) ->
      { text; truth = Some (float_of_string truth); alg = plan_text graph text })
    (read_tsv path)

let ladder graph =
  Array.of_list
    (List.map
       (fun k -> { text = ladder_text k; truth = None; alg = plan_text graph (ladder_text k) })
       ladder_hops)

(* (index into the SNB set, renamed text) *)
let load_renamed path =
  Array.map (fun (i, text) -> (int_of_string i, text)) (read_tsv path)

(* ---- checks derived from a direct scan of the graph ---------------------- *)

type check = {
  c_text : string;
  expect : float;  (** the count a scan of the graph gives *)
  single_edge : bool;
      (** single-edge checks hold in the five triple-statistics
          configurations; S-L answers from pair counts and may differ *)
}

(* One check per label: [(a:L)] estimates NC(L); one per (L1, T, L2) that
   occurs: [(a:L1)-[:T]->(b:L2)] estimates the relationships of type T from
   an L1 node to an L2 node. Counted here by walking every node and every
   relationship, independently of the catalog. *)
let scan_checks graph =
  let open Lpp_pgraph in
  let label_name = Interner.name (Graph.labels graph) in
  let type_name = Interner.name (Graph.rel_types graph) in
  let nc = Array.make (Graph.label_count graph) 0 in
  Graph.iter_nodes graph (fun n ->
      Array.iter (fun l -> nc.(l) <- nc.(l) + 1) (Graph.node_labels graph n));
  let triples = Hashtbl.create 4096 in
  Graph.iter_rels graph (fun r ->
      let t = Graph.rel_type graph r in
      let dst = Graph.node_labels graph (Graph.rel_dst graph r) in
      Array.iter
        (fun l1 ->
          Array.iter
            (fun l2 ->
              let k = (l1, t, l2) in
              Hashtbl.replace triples k
                (1 + Option.value ~default:0 (Hashtbl.find_opt triples k)))
            dst)
        (Graph.node_labels graph (Graph.rel_src graph r)));
  let labels =
    List.init (Array.length nc) (fun l ->
        {
          c_text = Printf.sprintf "(a:%s)" (label_name l);
          expect = float_of_int nc.(l);
          single_edge = false;
        })
  in
  let edges =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) triples []
    |> List.sort compare
    |> List.map (fun ((l1, t, l2), c) ->
           {
             c_text =
               Printf.sprintf "(a:%s)-[:%s]->(b:%s)" (label_name l1) (type_name t)
                 (label_name l2);
             expect = float_of_int c;
             single_edge = true;
           })
  in
  labels @ edges

(* ---- generation ---------------------------------------------------------- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* Replace each node variable "(nI" of a [Pattern.pp_parseable] rendering by
   [fresh I]. *)
let rename text fresh =
  let b = Buffer.create (String.length text + 32) in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if text.[!i] = '(' && !i + 1 < n && text.[!i + 1] = 'n' then begin
      let j = ref (!i + 2) in
      while !j < n && is_ident_char text.[!j] do incr j done;
      let var = String.sub text (!i + 2) (!j - !i - 2) in
      match int_of_string_opt var with
      | Some v ->
          Buffer.add_char b '(';
          Buffer.add_string b (fresh v);
          i := !j
      | None ->
          Buffer.add_char b '(';
          incr i
    end
    else begin
      Buffer.add_char b text.[!i];
      incr i
    end
  done;
  Buffer.contents b

let gen_set ~dir ~file ~seed (ds : Lpp_datasets.Dataset.t) =
  let t0 = Measure.now_ns () in
  let spec =
    {
      (Lpp_workload.Query_gen.default_spec With_props) with
      target = queries_per_set;
      attempts = 6 * queries_per_set;
      truth_budget = 10_000_000;
    }
  in
  let qs = Lpp_workload.Query_gen.generate (Lpp_util.Rng.create seed) ds spec in
  let rows =
    List.map
      (fun (q : Lpp_workload.Query_gen.query) ->
        ( string_of_int q.true_card,
          Format.asprintf "%a" (Pattern.pp_parseable ~names:(Some ds.graph)) q.pattern ))
      qs
  in
  (* the stored text must read back to the counted pattern *)
  List.iter2
    (fun (q : Lpp_workload.Query_gen.query) (_, text) ->
      if Canon.of_pattern q.pattern <> Canon.of_algebra (plan_text ds.graph text) then
        failwith ("perfbench: pattern text does not round-trip: " ^ text))
    qs rows;
  (* cross-check a sample of the matcher's counts with the independent,
     materialising reference evaluator *)
  let checked = ref 0 in
  List.iter
    (fun (q : Lpp_workload.Query_gen.query) ->
      if !checked < 15 then
        match
          Lpp_exec.Reference.count ~jobs:1 ~max_intermediate:200_000 ds.graph
            (Planner.plan q.pattern)
        with
        | Some c when c = q.true_card -> incr checked
        | Some c ->
            failwith
              (Printf.sprintf "perfbench: %s: matcher counts %d, reference %d"
                 (Format.asprintf "%a" (Pattern.pp ~names:(Some ds.graph)) q.pattern)
                 q.true_card c)
        | None -> ())
    qs;
  if !checked < 15 then
    failwith "perfbench: too few patterns small enough for the reference evaluator";
  write_tsv (Filename.concat dir file)
    ~header:
      [
        Printf.sprintf
          "%s default tier (data-set seed %d), %d With_props patterns from \
           Query_gen seed %d"
          ds.name dataset_seed (List.length rows) seed;
        Printf.sprintf
          "exact count (Matcher) <TAB> pattern; %d counts cross-checked with \
           Reference.count"
          !checked;
      ]
    rows;
  Printf.printf "[gen] %s: %d patterns, %d counts cross-checked (%.1fs)\n%!" file
    (List.length rows) !checked (Measure.elapsed_s ~since:t0);
  Array.of_list (List.map snd rows)

let generate ~dir =
  let snb = build_dataset "snb" in
  let snb_texts = gen_set ~dir ~file:"snb.tsv" ~seed:snb_query_seed snb in
  let dbpedia = build_dataset "dbpedia" in
  ignore (gen_set ~dir ~file:"dbpedia.tsv" ~seed:dbpedia_query_seed dbpedia : string array);
  let rng = Lpp_util.Rng.create rename_seed in
  let rows =
    List.init rename_pool (fun e ->
        let i = Lpp_util.Rng.int rng (Array.length snb_texts) in
        (* three letters spell [e] in base 26, so every variant is distinct *)
        let prefix =
          String.init 3 (fun k -> Char.chr (Char.code 'a' + (e / [| 676; 26; 1 |].(k) mod 26)))
        in
        let text = rename snb_texts.(i) (fun v -> Printf.sprintf "%s%d" prefix v) in
        if
          Canon.of_algebra (plan_text snb.graph text)
          <> Canon.of_algebra (plan_text snb.graph snb_texts.(i))
        then failwith ("perfbench: renaming changed the pattern: " ^ text);
        (string_of_int i, text))
  in
  write_tsv
    (Filename.concat dir "snb_renamed.tsv")
    ~header:
      [
        Printf.sprintf
          "%d SNB patterns with freshly renamed variables (seed %d)" rename_pool
          rename_seed;
        "index into snb.tsv <TAB> renamed pattern";
      ]
    rows;
  Printf.printf "[gen] snb_renamed.tsv: %d renamed variants\n%!" rename_pool
