open Pqdb_relational

type approx_params = { eps : float; delta : float }

type t =
  | Table of string
  | Lit of Relation.t
  | Select of Predicate.t * t
  | Project of (Expr.t * string) list * t
  | Rename of (string * string) list * t
  | Product of t * t
  | Join of t * t
  | Union of t * t
  | Diff of t * t
  | Conf of t
  | ApproxConf of approx_params * t
  | RepairKey of { key : string list; weight : string; query : t }
  | Poss of t
  | Cert of t
  | ApproxSelect of sigma_hat

and sigma_hat = {
  phi : Apred.t;
  conf_args : string list list;
  input : t;
}

let table name = Table name
let select pred q = Select (pred, q)
let project attrs q = Project (List.map (fun a -> (Expr.attr a, a)) attrs, q)
let project_cols cols q = Project (cols, q)
let rename mapping q = Rename (mapping, q)
let product a b = Product (a, b)
let join a b = Join (a, b)
let union a b = Union (a, b)
let diff a b = Diff (a, b)
let conf q = Conf q
let approx_conf ~eps ~delta q = ApproxConf ({ eps; delta }, q)
let repair_key ~key ~weight query = RepairKey { key; weight; query }
let poss q = Poss q
let cert q = Cert q
let approx_select phi conf_args input = ApproxSelect { phi; conf_args; input }

let rec fold f acc q =
  let acc = f acc q in
  match q with
  | Table _ | Lit _ -> acc
  | Select (_, q)
  | Project (_, q)
  | Rename (_, q)
  | Conf q
  | ApproxConf (_, q)
  | RepairKey { query = q; _ }
  | Poss q
  | Cert q ->
      fold f acc q
  | Product (a, b) | Join (a, b) | Union (a, b) | Diff (a, b) ->
      fold f (fold f acc a) b
  | ApproxSelect { input; _ } -> fold f acc input

let tables q =
  List.rev
    (fold
       (fun acc q ->
         match q with
         | Table n -> if List.mem n acc then acc else n :: acc
         | _ -> acc)
       [] q)

let size q = fold (fun acc _ -> acc + 1) 0 q

let rec nesting_depth = function
  | Table _ | Lit _ -> 0
  | Select (_, q)
  | Project (_, q)
  | Rename (_, q)
  | Conf q
  | ApproxConf (_, q)
  | RepairKey { query = q; _ }
  | Poss q
  | Cert q ->
      nesting_depth q
  | Product (a, b) | Join (a, b) | Union (a, b) | Diff (a, b) ->
      max (nesting_depth a) (nesting_depth b)
  | ApproxSelect { input; _ } -> 1 + nesting_depth input

let max_conf_width q =
  fold
    (fun acc q ->
      match q with
      | ApproxSelect { conf_args; _ } -> max acc (List.length conf_args)
      | _ -> acc)
    0 q

let is_positive q =
  fold (fun acc q -> acc && match q with Diff _ -> false | _ -> true) true q

let p_column i = "P" ^ string_of_int (i + 1)

(* σ̂_{φ(conf[Ā₁],…,conf[Āₖ])}(Q)
     = π_{∪Āᵢ}(σ_{φ(P₁,…,Pₖ)}(ρ_{P→P₁}(conf(π_{Ā₁}Q)) ⋈ … )). *)
let desugar_one { phi; conf_args; input } =
  let branches =
    List.mapi
      (fun i attrs ->
        Rename ([ ("P", p_column i) ], Conf (project attrs input)))
      conf_args
  in
  let joined =
    match branches with
    | [] -> invalid_arg "Ua.desugar: sigma-hat with no conf arguments"
    | first :: rest -> List.fold_left join first rest
  in
  let out_attrs =
    List.fold_left
      (fun acc attrs ->
        List.fold_left
          (fun acc a -> if List.mem a acc then acc else acc @ [ a ])
          acc attrs)
      [] conf_args
  in
  let pred = Apred.to_predicate p_column phi in
  project out_attrs (Select (pred, joined))

let rec desugar_sigma_hat = function
  | (Table _ | Lit _) as q -> q
  | Select (p, q) -> Select (p, desugar_sigma_hat q)
  | Project (cols, q) -> Project (cols, desugar_sigma_hat q)
  | Rename (m, q) -> Rename (m, desugar_sigma_hat q)
  | Product (a, b) -> Product (desugar_sigma_hat a, desugar_sigma_hat b)
  | Join (a, b) -> Join (desugar_sigma_hat a, desugar_sigma_hat b)
  | Union (a, b) -> Union (desugar_sigma_hat a, desugar_sigma_hat b)
  | Diff (a, b) -> Diff (desugar_sigma_hat a, desugar_sigma_hat b)
  | Conf q -> Conf (desugar_sigma_hat q)
  | ApproxConf (p, q) -> ApproxConf (p, desugar_sigma_hat q)
  | RepairKey { key; weight; query } ->
      RepairKey { key; weight; query = desugar_sigma_hat query }
  | Poss q -> Poss (desugar_sigma_hat q)
  | Cert q -> Cert (desugar_sigma_hat q)
  | ApproxSelect sh ->
      desugar_sigma_hat (desugar_one { sh with input = sh.input })

let pp_strings fmt names =
  Format.fprintf fmt "%a"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       Format.pp_print_string)
    names

let rec pp fmt = function
  | Table n -> Format.pp_print_string fmt n
  | Lit r -> Format.fprintf fmt "lit(%d tuples)" (Relation.cardinality r)
  | Select (p, q) -> Format.fprintf fmt "select[%a](%a)" Predicate.pp p pp q
  | Project (cols, q) ->
      let pp_col fmt (e, name) =
        match e with
        | Expr.Attr a when a = name -> Format.pp_print_string fmt a
        | _ -> Format.fprintf fmt "%a -> %s" Expr.pp e name
      in
      Format.fprintf fmt "project[%a](%a)"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
           pp_col)
        cols pp q
  | Rename (m, q) ->
      let pp_one fmt (a, b) = Format.fprintf fmt "%s -> %s" a b in
      Format.fprintf fmt "rename[%a](%a)"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
           pp_one)
        m pp q
  | Product (a, b) -> Format.fprintf fmt "(%a x %a)" pp a pp b
  | Join (a, b) -> Format.fprintf fmt "(%a join %a)" pp a pp b
  | Union (a, b) -> Format.fprintf fmt "(%a union %a)" pp a pp b
  | Diff (a, b) -> Format.fprintf fmt "(%a minus %a)" pp a pp b
  | Conf q -> Format.fprintf fmt "conf(%a)" pp q
  | ApproxConf ({ eps; delta }, q) ->
      Format.fprintf fmt "aconf[%g,%g](%a)" eps delta pp q
  | RepairKey { key; weight; query } ->
      Format.fprintf fmt "repairkey[%a @@ %s](%a)" pp_strings key weight pp
        query
  | Poss q -> Format.fprintf fmt "poss(%a)" pp q
  | Cert q -> Format.fprintf fmt "cert(%a)" pp q
  | ApproxSelect { phi; conf_args; input } ->
      let pp_arg fmt attrs = Format.fprintf fmt "conf[%a]" pp_strings attrs in
      Format.fprintf fmt "aselect[%a | %a](%a)" Apred.pp phi
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
           pp_arg)
        conf_args pp input

exception Schema_error of string

let schema_error fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

let output_attributes ~lookup q =
  let check_no_dup where attrs =
    let sorted = List.sort compare attrs in
    let rec go = function
      | a :: b :: _ when a = b ->
          schema_error "%s: duplicate attribute %s" where a
      | _ :: rest -> go rest
      | [] -> ()
    in
    go sorted
  in
  let check_mem where attrs a =
    if not (List.mem a attrs) then
      schema_error "%s: unknown attribute %s" where a
  in
  let rec go = function
    | Table name -> begin
        match lookup name with
        | Some attrs -> attrs
        | None -> schema_error "unknown table %s" name
      end
    | Lit rel ->
        Pqdb_relational.Schema.attributes (Relation.schema rel)
    | Select (p, q) ->
        let attrs = go q in
        List.iter (check_mem "select" attrs) (Predicate.attributes p);
        attrs
    | Project (cols, q) ->
        let attrs = go q in
        List.iter
          (fun (e, _) ->
            List.iter (check_mem "project" attrs) (Expr.attributes e))
          cols;
        let out = List.map snd cols in
        check_no_dup "project" out;
        out
    | Rename (m, q) ->
        let attrs = go q in
        List.iter (fun (src, _) -> check_mem "rename" attrs src) m;
        let out =
          List.map
            (fun a -> match List.assoc_opt a m with Some b -> b | None -> a)
            attrs
        in
        check_no_dup "rename" out;
        out
    | Product (a, b) ->
        let out = go a @ go b in
        check_no_dup "product" out;
        out
    | Join (a, b) ->
        let la = go a and lb = go b in
        la @ List.filter (fun x -> not (List.mem x la)) lb
    | Union (a, b) | Diff (a, b) ->
        let la = go a and lb = go b in
        if la <> lb then
          schema_error "union/difference: schemas differ (%s) vs (%s)"
            (String.concat "," la) (String.concat "," lb);
        la
    | Conf q | ApproxConf (_, q) ->
        let attrs = go q in
        if List.mem "P" attrs then
          schema_error "conf: input already has a P column";
        attrs @ [ "P" ]
    | RepairKey { key; weight; query } ->
        let attrs = go query in
        List.iter (check_mem "repair-key key" attrs) key;
        check_mem "repair-key weight" attrs weight;
        attrs
    | Poss q | Cert q -> go q
    | ApproxSelect { phi; conf_args; input } ->
        let attrs = go input in
        List.iter
          (fun arg -> List.iter (check_mem "sigma-hat conf arg" attrs) arg)
          conf_args;
        if Apred.arity phi > List.length conf_args then
          schema_error
            "sigma-hat: predicate mentions more variables than conf arguments";
        List.fold_left
          (fun acc arg ->
            List.fold_left
              (fun acc a -> if List.mem a acc then acc else acc @ [ a ])
              acc arg)
          [] conf_args
  in
  go q
