(* Table rendering and wall-clock timing for the experiment harness. *)

let section id title =
  Printf.printf "\n=== %s: %s ===\n\n" id title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

(* Render an aligned ASCII table. *)
let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let print_row row =
    Printf.printf "  %s\n"
      (String.concat "  " (List.map2 pad row widths))
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  print_newline ()

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Wall-clock seconds of one run of [f], returning its result. *)
let timed f =
  let t0 = now_ns () in
  let result = f () in
  let t1 = now_ns () in
  (result, (t1 -. t0) /. 1e9)

(* Median wall-clock seconds over [repeat] runs (discarding results). *)
let time_median ?(repeat = 3) f =
  let samples =
    Array.init repeat (fun _ ->
        let _, s = timed f in
        s)
  in
  Pqdb_numeric.Stats.median samples

(* The p10 of [samples] timed runs of [f], each after a [Gc.compact], in
   ms.  An OLS fit over an allocation-heavy kernel spreads up to 1.7x
   between two runs of one build (its samples land on different heap
   states); one compacted heap per sample and a low quantile are steadier. *)
let p10_ms ?(samples = 61) f =
  f ();
  let t =
    Array.init samples (fun _ ->
        Gc.compact ();
        snd (timed f) *. 1e3)
  in
  Array.sort Float.compare t;
  t.(samples / 10)

let fmt_seconds s =
  if s < 1e-6 then Printf.sprintf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

let fmt_float f = Printf.sprintf "%.4g" f
let fmt_int = string_of_int
