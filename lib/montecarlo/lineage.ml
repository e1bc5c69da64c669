open Pqdb_urel

(* Quadratic-pass guard: subsumption is O(n² · clause length); above this
   size we keep possibly-redundant clauses rather than stall compilation. *)
let subsumption_cap = 512

let drop_subsumed clauses =
  let arr = Array.of_list clauses in
  let n = Array.length arr in
  if n <= 1 || n > subsumption_cap then clauses
  else begin
    let keep = Array.make n true in
    for i = 0 to n - 1 do
      if keep.(i) then
        for j = 0 to n - 1 do
          if j <> i && keep.(j) && Assignment.subsumes arr.(i) arr.(j) then
            keep.(j) <- false
        done
    done;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if keep.(i) then out := arr.(i) :: !out
    done;
    !out
  end

let normalize clauses =
  let clauses = List.sort_uniq Assignment.compare clauses in
  if List.exists Assignment.is_empty clauses then [ Assignment.empty ]
  else drop_subsumed clauses

let components clauses =
  match clauses with
  | [] | [ _ ] -> [ clauses ]
  | _ ->
      let arr = Array.of_list clauses in
      let n = Array.length arr in
      let parent = Array.init n Fun.id in
      let rec find i = if parent.(i) = i then i else find parent.(i) in
      let union i j =
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      in
      let owner = Hashtbl.create 16 in
      Array.iteri
        (fun i clause ->
          Assignment.iter_vars
            (fun v ->
              match Hashtbl.find_opt owner v with
              | Some j -> union i j
              | None -> Hashtbl.add owner v i)
            clause)
        arr;
      (* Group by root in first-occurrence order: compilation (and therefore
         the residual numbering the sampler walks) is deterministic. *)
      let buckets = Hashtbl.create 8 in
      let roots = ref [] in
      Array.iteri
        (fun i clause ->
          let r = find i in
          match Hashtbl.find_opt buckets r with
          | Some cell -> cell := clause :: !cell
          | None ->
              Hashtbl.add buckets r (ref [ clause ]);
              roots := r :: !roots)
        arr;
      List.rev_map (fun r -> List.rev !(Hashtbl.find buckets r)) !roots

let var_counts clauses =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun clause ->
      Assignment.iter_vars
        (fun v ->
          Hashtbl.replace counts v
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
        clause)
    clauses;
  counts

(* Both pickers break ties on the smallest variable id so compilation is a
   pure function of the clause set. *)
let universal_var clauses =
  let n = List.length clauses in
  let counts = var_counts clauses in
  Hashtbl.fold
    (fun v c best ->
      if c < n then best
      else match best with Some v' when v' <= v -> best | _ -> Some v)
    counts None

let most_shared_var clauses =
  let counts = var_counts clauses in
  Hashtbl.fold
    (fun v c best ->
      match best with
      | Some (v', c') when c' > c || (c' = c && v' <= v) -> best
      | _ -> Some (v, c))
    counts None
  |> Option.map fst

let condition clauses v x =
  List.filter_map
    (fun clause ->
      match Assignment.value clause v with
      | Some y when y <> x -> None
      | Some _ -> Some (Assignment.remove clause v)
      | None -> Some clause)
    clauses

type step =
  | Independent of Assignment.t list list
  | Disjoint of Wtable.var
  | Shannon of Wtable.var

let split clauses =
  match components clauses with
  | _ :: _ :: _ as comps -> Independent comps
  | _ -> (
      match universal_var clauses with
      | Some v -> Disjoint v
      | None -> (
          match most_shared_var clauses with
          | Some v -> Shannon v
          | None -> invalid_arg "Lineage.split: no variable to split on"))

let exact w clauses =
  let open Pqdb_numeric in
  let rec go clauses =
    match normalize clauses with
    | [] -> Rational.zero
    | [ c ] -> Assignment.weight w c
    | cs -> (
        match split cs with
        | Independent comps ->
            Rational.complement
              (List.fold_left
                 (fun acc comp ->
                   Rational.mul acc (Rational.complement (go comp)))
                 Rational.one comps)
        | Disjoint v | Shannon v ->
            let p = ref Rational.zero in
            for x = 0 to Wtable.domain_size w v - 1 do
              p :=
                Rational.add !p
                  (Rational.mul (Wtable.prob w v x) (go (condition cs v x)))
            done;
            !p)
  in
  go clauses
