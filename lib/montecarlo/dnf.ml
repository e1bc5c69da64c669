open Pqdb_numeric
open Pqdb_urel

type t = {
  w : Wtable.t;
  clauses : Assignment.t array;
  weights : float array;  (* p_f per clause *)
  total : float;  (* M *)
  dist : Rng.Alias.dist option;  (* clause sampler; None when F = ∅ *)
  vars : int array;  (* union of clause variables, ascending *)
  var_alias : Rng.Alias.dist array;  (* per vars slot; shared via the W cache *)
  (* Clause i's literals are positions lit_start.(i) .. lit_start.(i+1) - 1
     of lit_slot/lit_val: the index into [vars] of each bound variable, in
     ascending order, and the value it is bound to. *)
  lit_start : int array;
  lit_slot : int array;
  lit_val : int array;
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
  let n = Array.length clauses in
  let lit_start = Array.make (n + 1) 0 in
  Array.iteri
    (fun i f -> lit_start.(i + 1) <- lit_start.(i) + Assignment.cardinal f)
    clauses;
  let lit_slot = Array.make lit_start.(n) 0 in
  let lit_val = Array.make lit_start.(n) 0 in
  Array.iteri
    (fun i f ->
      (* Bindings and vars are both sorted by variable id, so one forward
         scan of vars finds every slot. *)
      let slot = ref 0 in
      List.iteri
        (fun k (v, x) ->
          while vars.(!slot) <> v do
            incr slot
          done;
          lit_slot.(lit_start.(i) + k) <- !slot;
          lit_val.(lit_start.(i) + k) <- x)
        (Assignment.bindings f))
    clauses;
  let dist = if n = 0 then None else Some (Rng.Alias.of_weights weights) in
  { w; clauses; weights; total; dist; vars; var_alias; lit_start; lit_slot;
    lit_val }

let wtable t = t.w
let clause_count t = Array.length t.clauses
let total_weight t = t.total
let is_trivially_false t = Array.length t.clauses = 0
let is_trivially_true t = Array.exists Assignment.is_empty t.clauses
let variables t = Array.to_list t.vars
let clauses t = Array.to_list t.clauses

(* Does f* (one value per slot) extend the literals p .. stop - 1? *)
let rec extends t world p stop =
  p >= stop
  || (world.(t.lit_slot.(p)) = t.lit_val.(p) && extends t world (p + 1) stop)

(* Is none of clauses j .. i - 1 consistent with f*? *)
let rec smallest t world i j =
  j >= i
  || (not (extends t world t.lit_start.(j) t.lit_start.(j + 1)))
     && smallest t world i (j + 1)

type world = int array

let scratch t = Array.make (Array.length t.vars) 0

(* The trial kernel: every slot of [world] is written before step 3 reads
   it, so a scratch world carries nothing from one trial to the next. *)
let trial rng t world =
  match t.dist with
  | None -> invalid_arg "Dnf.trial: empty DNF"
  | Some dist ->
      (* Step 1: clause index proportional to p_f (alias method, O(1)). *)
      let i = Rng.Alias.sample rng dist in
      (* Step 2: extend f to a total assignment f* over the DNF's variables,
         drawing each slot f leaves unbound from its W alias table in
         ascending slot order. *)
      let p = ref t.lit_start.(i) and stop = t.lit_start.(i + 1) in
      for slot = 0 to Array.length t.vars - 1 do
        if !p < stop && t.lit_slot.(!p) = slot then begin
          world.(slot) <- t.lit_val.(!p);
          incr p
        end
        else world.(slot) <- Rng.Alias.sample rng t.var_alias.(slot)
      done;
      (* Step 3: 1 iff f is the smallest-index clause consistent with f*. *)
      if smallest t world i 0 then 1 else 0

let sample_estimator rng t =
  if Option.is_none t.dist then invalid_arg "Dnf.sample_estimator: empty DNF";
  trial rng t (scratch t)

let exact t = Lineage.exact t.w (Array.to_list t.clauses)
