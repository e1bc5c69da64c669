(* In-memory span recorder for the traced mode.  A span is one call into a
   layer, timed on the monotonic clock; spans of one operation share its op
   id, and [parent] links a span to the span that caused it.  Nothing is
   written until [write] at exit. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int option;
  start_ns : int64;
  stop_ns : int64;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }
let now = Monotonic_clock.now
let duration_ms s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e6

(* Run [f] inside a span; the span id is passed to [f] so nested calls can
   name it as their parent. *)
let record t ~op ?parent name f =
  let id = t.next in
  t.next <- id + 1;
  let start_ns = now () in
  let r = f id in
  let stop_ns = now () in
  t.spans <- { id; name; op; parent; start_ns; stop_ns } :: t.spans;
  r

let spans t = List.rev t.spans

(* Self time: the span's interval minus the union of its children's
   intervals, each clipped to the parent. *)
let self_ms parent children =
  let clipped =
    List.filter_map
      (fun c ->
        let a = max c.start_ns parent.start_ns
        and b = min c.stop_ns parent.stop_ns in
        if Int64.compare a b < 0 then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if Int64.compare a b < 0 then (Int64.add acc (Int64.sub b a), b)
        else (acc, reach))
      (0L, parent.start_ns) clipped
  in
  Int64.to_float (Int64.sub (Int64.sub parent.stop_ns parent.start_ns) covered)
  /. 1e6

(* Per op id, the sum of [f s] over the spans called [name]. *)
let sum_per_op t name f =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = name then
        Hashtbl.replace tbl s.op
          (f s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.op)))
    t.spans;
  tbl

let per_op t name = sum_per_op t name duration_ms

let per_op_ms t name =
  Hashtbl.fold (fun _ v acc -> v :: acc) (per_op t name) [] |> Array.of_list

(* Per op id, the summed self time of the spans called [name]. *)
let self_per_op t name =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s -> Option.iter (fun p -> Hashtbl.add kids p s) s.parent)
    t.spans;
  sum_per_op t name (fun s -> self_ms s (Hashtbl.find_all kids s.id))

let durations_ms t name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration_ms s) else None)
    (spans t)
  |> Array.of_list

let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.name s.op
            (match s.parent with Some p -> string_of_int p | None -> "null")
            s.start_ns s.stop_ns)
        (spans t))
