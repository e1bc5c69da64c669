(* pqbench: the pqdb benchmark.

     pqbench --workload NAME|all --seed N --seconds S --trace 0|1

   Runs one workload (or all four, one after the other) on one engine
   domain, prints what it measured, and ends with one JSON result line:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. *)

let usage =
  "pqbench --workload (query-aconf|query-sigma|batch|serve|all) --seed N \
   --seconds S --trace (0|1)"

let die msg =
  prerr_endline ("pqbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let parse_args () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s when s >= 0 -> seed := s
        | _ -> die ("bad --seed " ^ v));
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> die ("bad --seconds " ^ v));
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die ("bad --trace " ^ v));
        go rest
    | [] -> ()
    | arg :: _ -> die ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  if !workload <> "all" && not (List.mem !workload Workloads.names) then
    die ("unknown workload " ^ !workload);
  (!workload, !seed, !seconds, !trace)

let print_report name (r : Workloads.report) =
  Printf.printf "== %s\n" name;
  List.iter (fun l -> Printf.printf "  %s\n" l) r.Workloads.lines;
  List.iter
    (fun { Harness.name; value; unit } ->
      Printf.printf "  %-34s %.6g %s\n" name value unit)
    r.Workloads.metrics;
  let t = r.Workloads.tally in
  Printf.printf "  %-34s %.6g ratio (%d of %d ops)\n" "fail_share"
    (float_of_int t.Harness.failed /. float_of_int (max 1 t.Harness.attempted))
    t.Harness.failed t.Harness.attempted;
  Printf.printf "  output digest %s\n%!" r.Workloads.digest

let () =
  (* One engine domain, in this process and in the forked serve daemon. *)
  Unix.putenv "PQDB_POOL_WORKERS" "1";
  let workload, seed, seconds, trace = parse_args () in
  Printf.printf "pqbench seed %d, %gs per workload, trace %b, resident pool \
                 helpers %d\n"
    seed seconds trace
    (Pqdb_montecarlo.Pool.resident_workers ());
  let names = if workload = "all" then Workloads.names else [ workload ] in
  let reports =
    List.map
      (fun name ->
        let r = Workloads.run ~name ~seed ~seconds ~trace in
        print_report name r;
        (name, r))
      names
  in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (_, (r : Workloads.report)) ->
        (a + r.tally.Harness.attempted, f + r.tally.Harness.failed))
      (0, 0) reports
  in
  let metrics =
    match reports with
    | [ (_, r) ] -> r.Workloads.metrics
    | _ ->
        List.concat_map
          (fun (name, (r : Workloads.report)) ->
            List.map
              (fun (mt : Harness.metric) ->
                { mt with Harness.name = name ^ "." ^ mt.Harness.name })
              r.Workloads.metrics)
          reports
  in
  print_endline
    (Harness.result_line ~correct:(failed = 0) ~attempted ~failed metrics)
