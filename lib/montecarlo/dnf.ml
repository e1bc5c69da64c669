open Pqdb_numeric
open Pqdb_urel

type t = {
  w : Wtable.t;
  clauses : Assignment.t array;
  weights : float array;  (* p_f per clause *)
  total : float;  (* M *)
  dist : Rng.Alias.dist option;  (* clause sampler; None when F = ∅ *)
  vars : int array;  (* union of clause variables *)
  var_alias : Rng.Alias.dist array;  (* per vars slot; shared via the W cache *)
  slot_of_var : (int, int) Hashtbl.t;  (* var id -> index into a sample *)
}

let prepare w clause_list =
  let clauses = Array.of_list clause_list in
  let weights = Array.map (Assignment.weight_float w) clauses in
  let total = Array.fold_left ( +. ) 0. weights in
  let vars =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map Assignment.vars clause_list))
  in
  (* Forcing the W-table alias cache here keeps the sampling phase read-only,
     so prepared DNFs can be drawn from concurrently by several domains. *)
  let var_alias = Array.map (Wtable.alias w) vars in
  let slot_of_var = Hashtbl.create (Array.length vars) in
  Array.iteri (fun i v -> Hashtbl.replace slot_of_var v i) vars;
  let dist =
    if Array.length clauses = 0 then None
    else Some (Rng.Alias.of_weights weights)
  in
  { w; clauses; weights; total; dist; vars; var_alias; slot_of_var }

let wtable t = t.w
let clause_count t = Array.length t.clauses
let total_weight t = t.total
let is_trivially_false t = Array.length t.clauses = 0
let is_trivially_true t = Array.exists Assignment.is_empty t.clauses
let variables t = Array.to_list t.vars
let clauses t = Array.to_list t.clauses

let sample_estimator rng t =
  match t.dist with
  | None -> invalid_arg "Dnf.sample_estimator: empty DNF"
  | Some dist ->
      (* Step 1: clause index proportional to p_f (alias method, O(1)). *)
      let i = Rng.Alias.sample rng dist in
      let f = t.clauses.(i) in
      (* Step 2: extend to a total assignment over the DNF's variables,
         sampling unassigned ones from their W alias tables. *)
      let total = Array.make (Array.length t.vars) 0 in
      Array.iteri
        (fun slot v ->
          match Assignment.value f v with
          | Some x -> total.(slot) <- x
          | None -> total.(slot) <- Rng.Alias.sample rng t.var_alias.(slot))
        t.vars;
      let lookup v = total.(Hashtbl.find t.slot_of_var v) in
      (* Step 3: 1 iff f is the smallest-index clause consistent with f*. *)
      let rec smallest j =
        if j >= i then true
        else if Assignment.extended_by lookup t.clauses.(j) then false
        else smallest (j + 1)
      in
      if smallest 0 then 1 else 0

let exact t = Lineage.exact t.w (Array.to_list t.clauses)
