module Apred = Pqdb_ast.Apred

exception Unsupported of string

let atom_occurrences_ok lhs rhs arity =
  let counts = Array.make (max 1 arity) 0 in
  let rec go = function
    | Apred.Var i -> counts.(i) <- counts.(i) + 1
    | Apred.Const _ -> ()
    | Apred.Add (a, b) | Apred.Sub (a, b) | Apred.Mul (a, b) | Apred.Div (a, b)
      ->
        go a;
        go b
    | Apred.Neg a -> go a
  in
  go lhs;
  go rhs;
  Array.for_all (fun c -> c <= 1) counts

let prepare_atom ~search_iterations ~arity cmp lhs rhs =
  match Linear_eps.prepare_atom ~arity cmp lhs rhs with
  | Some eps -> eps
  | None ->
      let single = atom_occurrences_ok lhs rhs arity in
      let atom = Apred.Cmp (cmp, lhs, rhs) in
      fun point ->
        if not single then
          raise
            (Unsupported
               "non-linear atom with a repeated variable; use split_duplicates")
        else Orthotope.epsilon_search ~iterations:search_iterations atom point

(* Every atom is prepared once, so a decision that needs ε every round pays
   only for the arithmetic.  Each And/Or node computes only the children's
   ε that its truth-directed rule reads, the right child first. *)
let prepare ?(search_iterations = 40) phi =
  let arity = Apred.arity phi in
  let rec build = function
    | Apred.True | Apred.False -> fun _ -> Linear_eps.eps_max
    | Apred.Not p -> build p
    | Apred.Cmp (cmp, lhs, rhs) ->
        prepare_atom ~search_iterations ~arity cmp lhs rhs
    | Apred.And (p, q) ->
        let eps_p = build p and eps_q = build q in
        fun point ->
          let vp = Apred.eval point p and vq = Apred.eval point q in
          if vp && vq then Float.min (eps_p point) (eps_q point)
          else
            (* False conjunction: it stays false while some currently-false
               conjunct stays false. *)
            let eq = if vq then 0. else eps_q point in
            let ep = if vp then 0. else eps_p point in
            Float.max (Float.max 0. ep) eq
    | Apred.Or (p, q) ->
        let eps_p = build p and eps_q = build q in
        fun point ->
          let vp = Apred.eval point p and vq = Apred.eval point q in
          if (not vp) && not vq then Float.min (eps_p point) (eps_q point)
          else
            let eq = if vq then eps_q point else 0. in
            let ep = if vp then eps_p point else 0. in
            Float.max (Float.max 0. ep) eq
  in
  build phi

let epsilon ?search_iterations phi point = prepare ?search_iterations phi point

let split_duplicates phi =
  let arity = Apred.arity phi in
  let seen = Array.make (max 1 arity) false in
  let origin = ref (List.init arity Fun.id) in
  let next = ref arity in
  let fresh v =
    let j = !next in
    incr next;
    origin := !origin @ [ v ];
    j
  in
  let rec go_expr = function
    | Apred.Var v ->
        if seen.(v) then Apred.Var (fresh v)
        else begin
          seen.(v) <- true;
          Apred.Var v
        end
    | Apred.Const c -> Apred.Const c
    | Apred.Add (a, b) ->
        let a = go_expr a in
        Apred.Add (a, go_expr b)
    | Apred.Sub (a, b) ->
        let a = go_expr a in
        Apred.Sub (a, go_expr b)
    | Apred.Mul (a, b) ->
        let a = go_expr a in
        Apred.Mul (a, go_expr b)
    | Apred.Div (a, b) ->
        let a = go_expr a in
        Apred.Div (a, go_expr b)
    | Apred.Neg a -> Apred.Neg (go_expr a)
  in
  let rec go = function
    | Apred.Cmp (cmp, lhs, rhs) ->
        let lhs = go_expr lhs in
        Apred.Cmp (cmp, lhs, go_expr rhs)
    | Apred.And (p, q) ->
        let p = go p in
        Apred.And (p, go q)
    | Apred.Or (p, q) ->
        let p = go p in
        Apred.Or (p, go q)
    | Apred.Not p -> Apred.Not (go p)
    | (Apred.True | Apred.False) as c -> c
  in
  let phi' = go phi in
  (phi', Array.of_list !origin)
