open Pqdb_numeric
open Pqdb_urel

type t = {
  w : Wtable.t;
  packed : Lineage.packed;  (* the clauses in sampling order *)
  total : float;  (* M *)
  dist : Rng.Alias.dist option;  (* clause sampler; None when F = ∅ *)
  var_alias : Rng.Alias.dist array;  (* per local variable; shared via the W cache *)
}

let build w (packed : Lineage.packed) =
  let weights =
    Array.map (Lineage.clause_weight (Lineage.float_arith w) packed) packed.clauses
  in
  let total = Array.fold_left ( +. ) 0. weights in
  (* Forcing the W-table alias cache here keeps the sampling phase read-only,
     so prepared DNFs can be drawn from concurrently by several domains. *)
  let var_alias = Array.map (Wtable.alias w) packed.vars in
  let dist =
    if Array.length weights = 0 then None
    else Some (Rng.Alias.of_weights weights)
  in
  { w; packed; total; dist; var_alias }

let prepare w clauses = build w (Lineage.pack clauses)
let of_lineage w (l : Lineage.t) = build w (l :> Lineage.packed)
let wtable t = t.w
let packed t = t.packed
let clause_count t = Array.length t.packed.clauses
let total_weight t = t.total
let is_trivially_false t = Option.is_none t.dist
let is_trivially_true t = Array.exists (fun c -> Array.length c = 0) t.packed.clauses

(* Does f* (one value per local variable) extend literals k .. of [c]? *)
let rec extends bits world (c : int array) k =
  k >= Array.length c
  || world.(c.(k) lsr bits) = c.(k) land ((1 lsl bits) - 1)
     && extends bits world c (k + 1)

(* Is none of clauses j .. i - 1 consistent with f*? *)
let rec smallest (p : Lineage.packed) world i j =
  j >= i
  || (not (extends p.bits world p.clauses.(j) 0)) && smallest p world i (j + 1)

type world = int array

let scratch t = Array.make (Array.length t.packed.vars) 0

(* The trial kernel: every slot of [world] is written before step 3 reads
   it, so a scratch world carries nothing from one trial to the next. *)
let trial rng t world =
  match t.dist with
  | None -> invalid_arg "Dnf.trial: empty DNF"
  | Some dist ->
      (* Step 1: clause index proportional to p_f (alias method, O(1)). *)
      let i = Rng.Alias.sample rng dist in
      (* Step 2: extend f to a total assignment f* over the DNF's variables,
         drawing each variable f leaves unbound from its W alias table in
         ascending order. *)
      let { Lineage.bits; clauses; _ } = t.packed in
      let c = clauses.(i) and p = ref 0 in
      for v = 0 to Array.length t.var_alias - 1 do
        if !p < Array.length c && c.(!p) lsr bits = v then begin
          world.(v) <- c.(!p) land ((1 lsl bits) - 1);
          incr p
        end
        else world.(v) <- Rng.Alias.sample rng t.var_alias.(v)
      done;
      (* Step 3: 1 iff f is the smallest-index clause consistent with f*. *)
      if smallest t.packed world i 0 then 1 else 0

let sample_estimator rng t =
  if Option.is_none t.dist then invalid_arg "Dnf.sample_estimator: empty DNF";
  trial rng t (scratch t)

let exact t = Lineage.exact t.w (Lineage.to_clauses t.packed)
