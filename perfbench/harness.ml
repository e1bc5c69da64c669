(* The measuring loop, core-speed calibration, process memory, and the
   result line shared by every workload. *)

open Perfbench_core

let ms_since t0 = Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e6

let time_ms f =
  let t0 = Spans.now () in
  let r = f () in
  (r, ms_since t0)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* One checked operation: [op ()] returns its wall time in ms and whether
   its output passed the workload's check.  An exception is a failure. *)
let attempt tally op =
  tally.attempted <- tally.attempted + 1;
  match op () with
  | ms, true -> Some ms
  | _, false ->
      tally.failed <- tally.failed + 1;
      None
  | exception e ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "op failed: %s\n%!" (Printexc.to_string e);
      None

(* Core-speed calibration.  On a shared host the core this process runs on
   slows by a third or more while a neighbour runs on its sibling hardware
   thread, for stretches from a fraction of a second to several seconds,
   and a run's median moves with the share of time it spent slowed.  A
   fixed ALU loop, timed between ops, tracks that speed.  Every sample is
   kept twice: as measured, and rescaled to the run's unslowed speed
   ([reference]: the median of the calibrations within 15% of the fastest,
   so one lucky calibration does not set it), as if the whole run had the
   core to itself.  The metrics use the rescaled times; the raw quartiles
   are printed beside them. *)
let calibrations = ref []

let reference () =
  let best = List.fold_left Float.min infinity !calibrations in
  Bstats.median
    (Array.of_list (List.filter (fun c -> c <= 1.15 *. best) !calibrations))

let calibrate () =
  let t0 = Spans.now () in
  let acc = ref 0 in
  for i = 1 to 500_000 do
    acc := !acc lxor (i * 7)
  done;
  ignore (Sys.opaque_identity !acc);
  let ms = ms_since t0 in
  calibrations := ms :: !calibrations;
  ms

(* A timed sample and the mean calibration around it. *)
type sample = { ms : float; speed : float }

let rescaled samples =
  let r = reference () in
  Array.map (fun s -> s.ms *. r /. s.speed) samples

let raw samples = Array.map (fun s -> s.ms) samples

(* Closed loop with one caller: [warmup] ops whose times are discarded,
   then ops until [seconds] have passed (at least [min_ops]).  [probe], if
   given, runs between ops every [interval] seconds, outside the timing.
   A calibration runs between ops every 20 ms; each op's speed is the mean
   of the calibrations before and after it. *)
let closed_loop ?(min_ops = 5) ?probe tally ~warmup ~seconds op =
  for _ = 1 to warmup do
    ignore (attempt tally op)
  done;
  let t0 = Spans.now () in
  let last_probe = ref t0 and last_calib = ref t0 in
  let calibs = ref [ calibrate () ] and interval = ref 0 in
  let times = ref [] and n = ref 0 in
  while !n < min_ops || ms_since t0 < seconds *. 1000. do
    (match probe with
    | Some (every, f) when ms_since !last_probe >= every *. 1000. ->
        f ();
        last_probe := Spans.now ()
    | _ -> ());
    if ms_since !last_calib >= 20. then begin
      calibs := calibrate () :: !calibs;
      incr interval;
      last_calib := Spans.now ()
    end;
    (match attempt tally op with
    | Some ms -> times := (ms, !interval) :: !times
    | None -> ());
    incr n
  done;
  let calibs = Array.of_list (List.rev (calibrate () :: !calibs)) in
  List.rev_map
    (fun (ms, i) -> { ms; speed = (calibs.(i) +. calibs.(i + 1)) /. 2. })
    !times
  |> Array.of_list

(* Set-up timing: [timed ()] runs [f] between two calibrations and records
   the sample; [samples ()] returns every sample recorded.  Workloads take
   several set-ups at start and more between ops (a [closed_loop] probe),
   so the reported median spans the whole run. *)
let setup_sampler f =
  let samples = ref [] in
  let timed () =
    let before = calibrate () in
    let r, ms = time_ms f in
    let after = calibrate () in
    samples := { ms = ms /. 1000.; speed = (before +. after) /. 2. } :: !samples;
    r
  in
  (timed, fun () -> Array.of_list (List.rev !samples))

(* VmHWM (peak resident set) of a process, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_lines
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

let quartile_line name unit xs =
  let q1, q2, q3 = Bstats.quartiles xs in
  Printf.sprintf "%-28s q1 %.4f  median %.4f  q3 %.4f %s (n=%d)" name q1 q2 q3
    unit (Array.length xs)

(* The end-to-end metrics of one closed-loop run, plus human-readable lines
   naming the tail percentile and the quartiles. *)
let end_to_end ~setup ~ops ~tuples_per_op ~peak_rss_mb =
  let op_ms = rescaled ops and setup_s = rescaled setup in
  let n = Array.length op_ms in
  let p50 = Bstats.median op_ms in
  let tail_p = Option.value ~default:50. (Bstats.tail_percentile n) in
  let tail = Bstats.percentile op_ms tail_p in
  let metrics =
    [
      m "setup_s" (Bstats.median setup_s) "s";
      m "p50_ms" p50 "ms";
      m "tail_ms" tail "ms";
      m "tuples_per_s" (float_of_int tuples_per_op /. (p50 /. 1000.)) "1/s";
      m "peak_rss_mb" peak_rss_mb "MB";
    ]
  in
  let lines =
    [
      quartile_line "setup" "s" setup_s;
      quartile_line "setup, raw" "s" (raw setup);
      quartile_line "op latency" "ms" op_ms;
      quartile_line "op latency, raw" "ms" (raw ops);
      Printf.sprintf "reference calibration %.4f ms (%d calibrations)"
        (reference ()) (List.length !calibrations);
      Printf.sprintf "tail_ms is p%.1f of %d ops (%d beyond it)" tail_p n
        (n - Bstats.rank n tail_p);
      Printf.sprintf "tuples_per_s: %d input tuples per op / median op"
        tuples_per_op;
    ]
  in
  (metrics, lines)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun { name; value; unit } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)
