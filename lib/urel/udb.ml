
(* Relations are stored as thunks so a storage backend can defer decoding
   a relation's segments until a query first touches it (the mmap'd binary
   format relies on this: cold start pays only for the pages actually
   read).  Eager registration wraps in [Lazy.from_val], so the common path
   allocates nothing extra. *)
type t = {
  mutable w : Wtable.t;
  mutable rels : (string * Urelation.t Lazy.t) list;
  mutable complete : string list;
}

let create () = { w = Wtable.create (); rels = []; complete = [] }
let wtable t = t.w

let check_fresh t name =
  if List.mem_assoc name t.rels then
    invalid_arg ("Udb: relation already defined: " ^ name)

let add_complete t name rel =
  check_fresh t name;
  t.rels <- t.rels @ [ (name, Lazy.from_val (Urelation.of_relation rel)) ];
  t.complete <- name :: t.complete

let add_urelation ?(complete = false) t name u =
  check_fresh t name;
  t.rels <- t.rels @ [ (name, Lazy.from_val u) ];
  if complete then t.complete <- name :: t.complete

let add_lazy ?(complete = false) t name thunk =
  check_fresh t name;
  t.rels <- t.rels @ [ (name, thunk) ];
  if complete then t.complete <- name :: t.complete

let find t name =
  match List.assoc_opt name t.rels with
  | Some u -> Lazy.force u
  | None -> raise Not_found

let mem t name = List.mem_assoc name t.rels
let names t = List.map fst t.rels

let relation_sets t name =
  match find t name with
  | u -> Array.of_list (List.map snd (Urelation.clauses_by_tuple u))
  | exception Not_found ->
      failwith
        (Printf.sprintf "unknown relation %S (database has: %s)" name
           (String.concat ", " (names t)))
let is_complete t name = List.mem name t.complete
let is_decoded t name =
  match List.assoc_opt name t.rels with
  | Some u -> Lazy.is_val u
  | None -> raise Not_found

let copy t =
  (* Only the W table is mutable: Wtable.copy shares its already-checked
     entries and built samplers.  U-relations are immutable, and undecoded
     thunks are shared (forcing is idempotent). *)
  { w = Wtable.copy t.w; rels = t.rels; complete = t.complete }

let pp fmt t =
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "W table:@,%a@," Wtable.pp t.w;
  List.iter
    (fun (name, u) ->
      Format.fprintf fmt "%s%s:@,%a@," name
        (if is_complete t name then " (complete)" else "")
        Urelation.pp (Lazy.force u))
    t.rels;
  Format.pp_close_box fmt ()
