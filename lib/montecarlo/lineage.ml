open Pqdb_urel

(* Flat clauses.  A clause is a sorted [int array] of packed literals
   [(var lsl bits) lor value], with [bits] wide enough for every value the
   DNF binds.  Ascending packed order is ascending (var, value) order, so
   "shorter first, then lexicographic" ([compare_clause]) is exactly the
   order [Assignment.compare] gives the same clauses. *)

let compare_clause (a : int array) (b : int array) =
  let n = Array.length a in
  let c = Int.compare n (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i = n then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* Quadratic-pass guard: subsumption is O(n² · clause length); above this
   size we keep possibly-redundant clauses rather than stall compilation. *)
let subsumption_cap = 512

(* Normalization over either clause representation. *)
module Canonical (C : sig
  type t

  val compare : t -> t -> int  (** shorter first, then lexicographic *)

  val length : t -> int

  val subset : t -> t -> bool
  (** every binding of the first is a binding of the second *)

  val mask : t -> int
  (** one bit per binding: [subset a b] implies [mask a ⊆ mask b] *)
end) =
struct
  (* The canonical form of [cs], which it sorts in place: sorted,
     deduplicated, [[|empty|]] when some clause is empty, and — up to the
     cap — only the minimal clauses.  A strict subsumer is shorter, so it
     sorts earlier: keeping a clause iff no earlier kept clause subsumes it
     leaves exactly the clauses nothing else subsumes, in sorted order.  The
     mask test rejects most pairs before the merge walk. *)
  let normalize (cs : C.t array) =
    let n = Array.length cs in
    if n <= 1 then cs
    else begin
      Array.stable_sort C.compare cs;
      if C.length cs.(0) = 0 then [| cs.(0) |]
      else begin
        let k = ref 1 in
        for t = 1 to n - 1 do
          if C.compare cs.(t) cs.(!k - 1) <> 0 then begin
            cs.(!k) <- cs.(t);
            incr k
          end
        done;
        let n = !k in
        if n > subsumption_cap then Array.sub cs 0 n
        else begin
          let masks = Array.init n (fun t -> C.mask cs.(t)) in
          let k = ref 0 in
          for j = 0 to n - 1 do
            let c = cs.(j) and mj = masks.(j) in
            let rec subsumed i =
              i < !k
              && ((masks.(i) land lnot mj = 0 && C.subset cs.(i) c)
                 || subsumed (i + 1))
            in
            if not (subsumed 0) then begin
              cs.(!k) <- c;
              masks.(!k) <- mj;
              incr k
            end
          done;
          Array.sub cs 0 !k
        end
      end
    end
end

module Flat = Canonical (struct
  type t = int array

  let compare = compare_clause
  let length = Array.length

  (* A merge walk over the sorted literals: O(|a| + |b|). *)
  let subset (a : int array) (b : int array) =
    let la = Array.length a and lb = Array.length b in
    let rec go i j =
      i = la
      || lb - j >= la - i
         &&
         let x = a.(i) and y = b.(j) in
         if x = y then go (i + 1) (j + 1) else x > y && go i (j + 1)
    in
    go 0 0

  let mask c = Array.fold_left (fun m lit -> m lor (1 lsl (lit mod 63))) 0 c
end)

module Clauses = Canonical (struct
  include Assignment

  let length = cardinal
  let subset = subsumes
  let mask c = fold (fun m v x -> m lor (1 lsl (((5 * v) + x) mod 63))) 0 c
end)

let normalize = function
  | ([] | [ _ ]) as clauses -> clauses
  | clauses -> Array.to_list (Clauses.normalize (Array.of_list clauses))

type 'a node =
  | Const of 'a
  | Res of int
  | Sum of ('a * int) array
  | IndepOr of int array

type 'a arith = {
  zero : 'a;
  one : 'a;
  add : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  complement : 'a -> 'a;
  prob : Wtable.var -> int -> 'a;
}

type 'a dag = {
  nodes : 'a node array;
  residuals : Assignment.t list array;
  clauses : Assignment.t list;
}

(* The per-compile cache, keyed on normalized flat sets.  A lookup hashes
   the arrays and [equal] compares them in full, so a hash collision never
   shares a node. *)
module Sets = Hashtbl.Make (struct
  type t = int array array

  let equal a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> compare_clause x y = 0) a b

  let hash s =
    Array.fold_left
      (fun h c ->
        Array.fold_left (fun h lit -> (h * 31) + lit) ((h * 17) + Array.length c) c)
      0 s
end)

(* What a sub-DNF compiled to.  A constant stays out of the node array
   until a parent that does not fold needs it as a child ([at] is then its
   node), so the array only ever holds nodes reachable from the root, each
   once. *)
type 'a sub = Known of { p : 'a; mutable at : int } | Node of int

type 'a builder = {
  ops : 'a arith;
  w : Wtable.t;
  vars : int array;  (* local id -> W variable, ascending *)
  bits : int;
  counts : int array;  (* per local variable; all 0 between splits *)
  owner : int array;  (* per local variable; all -1 between splits *)
  mutable fuel : int;
  mutable nodes : 'a node array;  (* children before parents *)
  mutable count : int;
  mutable cache : 'a sub Sets.t option;  (* allocated on the first set to share *)
  mutable residuals : int array array list;  (* newest first *)
  mutable nres : int;
}

let push b node =
  if b.count = Array.length b.nodes then begin
    let bigger = Array.make (2 * b.count) node in
    Array.blit b.nodes 0 bigger 0 b.count;
    b.nodes <- bigger
  end;
  b.nodes.(b.count) <- node;
  b.count <- b.count + 1;
  b.count - 1

let value_of b lit = lit land ((1 lsl b.bits) - 1)

(* A clause's weight, multiplied out in ascending variable order — the
   order [Assignment.weight] and [Assignment.weight_float] use. *)
let leaf b c =
  Array.fold_left
    (fun acc lit ->
      b.ops.mul acc (b.ops.prob b.vars.(lit lsr b.bits) (value_of b lit)))
    b.ops.one c

(* Position of the literal on local variable [v] in clause [c], or -1. *)
let find_var bits c v =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let u = c.(mid) lsr bits in
      if u = v then mid else if u < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length c)

(* [set | v = x]: clauses binding [v] to another value drop, the literal
   [v = x] leaves the rest.  Unnormalized. *)
let condition b set v x =
  let out = Array.make (Array.length set) [||] in
  let k = ref 0 in
  Array.iter
    (fun c ->
      let i = find_var b.bits c v in
      if i < 0 then begin
        out.(!k) <- c;
        incr k
      end
      else if value_of b c.(i) = x then begin
        let n = Array.length c in
        let d = Array.make (n - 1) 0 in
        Array.blit c 0 d 0 i;
        Array.blit c (i + 1) d i (n - 1 - i);
        out.(!k) <- d;
        incr k
      end)
    set;
  Array.sub out 0 !k

type split =
  | Components of int array array array
  | Disjoint of int
  | Shannon of int

(* The one decomposition policy on a normalized set of two or more clauses,
   tried in order: variable-connected components (union-find over clauses,
   in first-occurrence order), a variable bound in every clause (smallest
   id), the variable in the most clauses (smallest id on ties).  Local ids
   follow W-variable order, so "smallest" means the same as on W ids.  One
   pass fills the counts and the union-find; a second resets both
   per-variable arrays. *)
let split b set =
  let m = Array.length set and bits = b.bits in
  let parent = Array.init m Fun.id in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  Array.iteri
    (fun i c ->
      Array.iter
        (fun lit ->
          let v = lit lsr bits in
          b.counts.(v) <- b.counts.(v) + 1;
          let o = b.owner.(v) in
          if o < 0 then b.owner.(v) <- i
          else
            let ri = find i and ro = find o in
            if ri <> ro then parent.(ri) <- ro)
        c)
    set;
  let comp_of_root = Array.make m (-1) in
  let comp = Array.make m 0 in
  let ncomp = ref 0 in
  for i = 0 to m - 1 do
    let r = find i in
    if comp_of_root.(r) < 0 then begin
      comp_of_root.(r) <- !ncomp;
      incr ncomp
    end;
    comp.(i) <- comp_of_root.(r)
  done;
  let decision =
    if !ncomp > 1 then begin
      let comps = Array.make !ncomp [] in
      for i = m - 1 downto 0 do
        comps.(comp.(i)) <- set.(i) :: comps.(comp.(i))
      done;
      Components (Array.map Array.of_list comps)
    end
    else
      (* A variable bound in every clause is bound in the first one, whose
         literals ascend by variable. *)
      let c0 = set.(0) in
      let rec universal t =
        if t = Array.length c0 then None
        else
          let v = c0.(t) lsr bits in
          if b.counts.(v) = m then Some v else universal (t + 1)
      in
      match universal 0 with
      | Some v -> Disjoint v
      | None ->
          let best = ref (-1) and most = ref 0 in
          Array.iter
            (Array.iter (fun lit ->
                 let v = lit lsr bits in
                 let c = b.counts.(v) in
                 if c > !most || (c = !most && v < !best) then begin
                   best := v;
                   most := c
                 end))
            set;
          Shannon !best
  in
  Array.iter
    (Array.iter (fun lit ->
         let v = lit lsr bits in
         b.counts.(v) <- 0;
         b.owner.(v) <- -1))
    set;
  decision

let known p = Known { p; at = -1 }

let node b = function
  | Node id -> id
  | Known k ->
      if k.at < 0 then k.at <- push b (Const k.p);
      k.at

let is_known = function Known _ -> true | Node _ -> false
let value = function Known k -> k.p | Node _ -> invalid_arg "Lineage.value"

(* Children that are all constants fold into one constant, combined in the
   order an evaluation of the unfolded node would use, so the folded value
   is the same bits. *)
let sum b branches =
  if Array.for_all (fun (_, c) -> is_known c) branches then
    known
      (Array.fold_left
         (fun acc (p, c) -> b.ops.add acc (b.ops.mul p (value c)))
         b.ops.zero branches)
  else Node (push b (Sum (Array.map (fun (p, c) -> (p, node b c)) branches)))

let indep_or b children =
  if Array.for_all is_known children then
    known
      (b.ops.complement
         (Array.fold_left
            (fun acc c -> b.ops.mul acc (b.ops.complement (value c)))
            b.ops.one children))
  else Node (push b (IndepOr (Array.map (node b) children)))

(* A normalized set; sets of two or more clauses go through the cache,
   where a hit costs no fuel. *)
let rec child b set =
  match Array.length set with
  | 0 -> known b.ops.zero
  | 1 -> known (leaf b set.(0))
  | _ -> (
      let cache =
        match b.cache with
        | Some t -> t
        | None ->
            let t = Sets.create 16 in
            b.cache <- Some t;
            t
      in
      match Sets.find_opt cache set with
      | Some sub -> sub
      | None ->
          let sub = expand b set in
          Sets.add cache set sub;
          sub)

and expand b set =
  if b.fuel <= 0 then begin
    b.residuals <- set :: b.residuals;
    b.nres <- b.nres + 1;
    Node (push b (Res (b.nres - 1)))
  end
  else
    match split b set with
    | Components comps ->
        (* A component of a normalized set is normalized, unless the set was
           too large for the subsumption pass. *)
        let big = Array.length set > subsumption_cap in
        indep_or b
          (Array.map (fun c -> child b (if big then Flat.normalize c else c)) comps)
    | Disjoint v ->
        (* The branches v = x are mutually exclusive and every clause
           shrinks, so expansion is free and terminates on binding count. *)
        branch b set v
    | Shannon v ->
        b.fuel <-
          b.fuel - Wtable.domain_size b.w b.vars.(v) - Array.length set;
        branch b set v

and branch b set v =
  let wv = b.vars.(v) in
  sum b
    (Array.init (Wtable.domain_size b.w wv) (fun x ->
         (b.ops.prob wv x, child b (Flat.normalize (condition b set v x)))))

(* The flat image of a normalized DNF: dense local variable ids in
   ascending W order (found by binary search), each clause a sorted array of
   literals [(local lsl bits) lor value]. *)
let flatten kept =
  let all = Array.make (Array.fold_left (fun n c -> n + Assignment.cardinal c) 0 kept) 0 in
  let n = ref 0 and top_value = ref 0 in
  Array.iter
    (Assignment.fold
       (fun () v x ->
         if x < 0 then invalid_arg "Lineage: negative value in a clause";
         top_value := max !top_value x;
         all.(!n) <- v;
         incr n)
       ())
    kept;
  Array.sort Int.compare all;
  let nv = ref 0 in
  Array.iter
    (fun v ->
      if !nv = 0 || all.(!nv - 1) <> v then begin
        all.(!nv) <- v;
        incr nv
      end)
    all;
  let vars = Array.sub all 0 !nv in
  let rec width b = if !top_value lsr b = 0 then b else width (b + 1) in
  let bits = width 0 in
  if !nv - 1 > max_int lsr bits then
    invalid_arg "Lineage: too many variables to pack beside their values";
  let local v =
    let rec go lo hi =
      let mid = (lo + hi) lsr 1 in
      if vars.(mid) = v then mid
      else if vars.(mid) < v then go (mid + 1) hi
      else go lo mid
    in
    go 0 !nv
  in
  let pack c =
    let out = Array.make (Assignment.cardinal c) 0 in
    ignore
      (Assignment.fold
         (fun i v x ->
           out.(i) <- (local v lsl bits) lor x;
           i + 1)
         0 c);
    out
  in
  (vars, bits, Array.map pack kept)

let decompose ?(fuel = max_int) ops w clauses =
  let weight c =
    Assignment.fold (fun acc v x -> ops.mul acc (ops.prob v x)) ops.one c
  in
  let constant clauses p = { nodes = [| Const p |]; residuals = [||]; clauses } in
  let kept = Clauses.normalize (Array.of_list clauses) in
  let normalized = Array.to_list kept in
  match kept with
  | [||] -> constant normalized ops.zero
  | [| c |] -> constant normalized (weight c)
  | _ -> (
      let vars, bits, root = flatten kept in
      let nv = Array.length vars in
      let b =
        { ops; w; vars; bits;
          counts = Array.make nv 0;
          owner = Array.make nv (-1);
          fuel;
          nodes = Array.make 8 (Const ops.zero);
          count = 0;
          cache = None;
          residuals = [];
          nres = 0 }
      in
      (* The root is never looked up: no set recurs below itself. *)
      match expand b root with
      | Known { p; _ } -> constant normalized p
      | Node _ ->
          let to_clause c =
            Assignment.of_list
              (Array.fold_right
                 (fun lit acc -> (vars.(lit lsr bits), value_of b lit) :: acc)
                 c [])
          in
          { nodes = Array.sub b.nodes 0 b.count;
            residuals =
              Array.of_list
                (List.rev_map
                   (fun set -> Array.to_list (Array.map to_clause set))
                   b.residuals);
            clauses = normalized })

let exact w clauses =
  let open Pqdb_numeric in
  let ops =
    { zero = Rational.zero; one = Rational.one; add = Rational.add;
      mul = Rational.mul; complement = Rational.complement;
      prob = Wtable.prob w }
  in
  match decompose ops w clauses with
  | { nodes = [| Const p |]; _ } -> p
  | _ -> invalid_arg "Lineage.exact: fuel ran out"
