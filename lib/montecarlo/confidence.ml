open Pqdb_numeric
open Pqdb_urel
module Faultpoint = Pqdb_runtime.Faultpoint
module Pqdb_error = Pqdb_runtime.Pqdb_error

type batch = Assignment.t list array

let prepare ?compile_fuel:_ _w clause_sets = clause_sets

let total_trials batch ~eps ~delta =
  (* The historical cost model: the fixed Chernoff budget the pure FPRAS
     would pay per tuple, before compilation removes the exact mass. *)
  Array.fold_left
    (fun acc clauses ->
      match clauses with
      | [] -> acc
      | cs when List.exists Assignment.is_empty cs -> acc
      | cs ->
          Stats.saturating_add acc
            (Stats.karp_luby_trials ~clauses:(List.length cs) ~eps ~delta))
    0 batch

type hook =
  | Hook : {
      tuple : int -> 'a;
      apriori : 'a -> Compile.outcome;
      cost : 'a -> int;
      solve : 'a -> Budget.t option -> (unit -> Rng.t) -> Compile.outcome;
    }
      -> hook

let compiled ~eps ~delta compile =
  Hook
    { tuple = compile;
      apriori = Compile.apriori;
      cost = (fun c -> Compile.cost_cap c ~eps ~delta);
      solve =
        (fun c budget lane -> Compile.solve_lane ?budget lane c ~eps ~delta) }

(* A tuple's zero-trial answer, written into slot [i], with the relative ε
   the estimate is proven to as the achieved error: [0] on a point, and on
   a bracket's floor [(hi − lo)/hi] — the certificate actually held, never
   the requested ε. *)
let fill_apriori (o : Compile.outcome) ~out ~intervals ~achieved i =
  out.(i) <- o.value;
  intervals.(i) <- (o.lo, o.hi);
  achieved.(i) <- (if o.hi > o.lo then (o.hi -. o.lo) /. o.hi else 0.)

(* --- streaming / checkpointed execution --------------------------------- *)

type stream_options = {
  shard_cost : int;
  retries : int;
  checkpoint : string option;
  resume : bool;
}

let default_stream_options =
  { shard_cost = 1_000_000; retries = 2; checkpoint = None; resume = false }

type stream_summary = {
  shards : int;
  resumed_shards : int;
  quarantined : (int * Pqdb_error.t) list;
  stream_trials : int;
  stream_complete : bool;
  journal_ok : bool;
}

let sum_trials a = Array.fold_left ( + ) 0 a

type run = {
  clause_sets : Assignment.t list array;
  hook : hook;
  eps : float;
  delta : float;
  nworkers : int;
  options : stream_options;
  plan : Shard.t array;
  lanes : Rng.lanes option;  (* None for an empty batch *)
  probe : string;
  meta : string;
  journal : Shard.journal;
  fps : string Lazy.t array;
  emit : Shard.outcome -> unit;
  budget : Budget.t option;
  (* Every planned shard's trial slice, dealt once at open; [None] without
     a trial cap. *)
  slices : int array option;
  resolved : bool array;
  (* Resolved but not yet emitted outcomes: emission takes them out, so a
     stream holds at most the shard in flight (plus unemitted resumes). *)
  pending : (int, Shard.outcome) Hashtbl.t;
  mutable cursor : int;  (* next shard to emit, in plan order *)
  mutable unresolved : int;
  mutable unresolved_cost : int;
  (* What has been emitted so far, in plan order: the only input of the
     run's summary, whoever (stream or coordinator) resolved the shards. *)
  mutable emitted_trials : int;
  mutable all_complete : bool;
  mutable resumed_count : int;
  mutable quarantines : (int * Pqdb_error.t) list;  (* newest first *)
}

let open_run ?budget ?nworkers ?compile_fuel ?hook
    ?(options = default_stream_options) rng w clause_sets ~eps ~delta ~emit =
  if eps <= 0. || delta <= 0. then
    invalid_arg "Confidence.open_run: eps and delta must be positive";
  if options.shard_cost < 1 then
    invalid_arg "Confidence.open_run: shard_cost must be >= 1";
  if options.retries < 0 then
    invalid_arg "Confidence.open_run: retries must be >= 0";
  if options.resume && options.checkpoint = None then
    invalid_arg "Confidence.open_run: resume requires a checkpoint journal";
  let nworkers = Option.value nworkers ~default:(Pool.default_workers ()) in
  if nworkers <= 0 then
    invalid_arg "Confidence.open_run: nworkers must be positive";
  let n = Array.length clause_sets in
  let plan = Shard.plan ~eps ~delta ~max_cost:options.shard_cost clause_sets in
  (* The handshake probe is drawn from a copy BEFORE the lanes are drawn,
     so opening a run advances the parent RNG identically everywhere. *)
  let probe = Hexfmt.to_string (Rng.float (Rng.copy rng) 1.) in
  (* Per-tuple lanes are drawn over the WHOLE batch up front; shards build
     their sampling tuples' lanes only.  Combined with the lane contract of
     [solve_shard] this makes the stream bit-identical to any
     interrupted-and-resumed or distributed replay of itself. *)
  let lanes = if n = 0 then None else Some (Rng.lanes rng n) in
  let meta =
    Shard.meta_payload ~n ~eps ~delta ~fuel:compile_fuel
      ~shard_cost:options.shard_cost
  in
  let journal, resumed =
    match options.checkpoint with
    | None -> (Shard.null_journal (), Hashtbl.create 1)
    | Some path ->
        Shard.open_journal ~retries:options.retries ~resume:options.resume
          ~meta ~plan ~clause_sets path
  in
  let fps =
    Array.map (fun sh -> lazy (Shard.fingerprint clause_sets sh)) plan
  in
  (* Static trial slices: the allowance left at open, dealt over EVERY
     planned shard by a-priori cost, so a shard's slice is the same whoever
     runs it, in whatever order, cold or resumed ([max_int] left means no
     cap).  Resumed shards leave their slice unused but charge their
     journaled spend, as the run that wrote them did. *)
  let slices =
    match budget with
    | Some b when Budget.remaining_trials b < max_int ->
        Some
          (Budget.allocate ~trials:(Budget.remaining_trials b)
             ~costs:(Array.map (fun (sh : Shard.t) -> sh.cost) plan))
    | _ -> None
  in
  let resolved = Array.make (Array.length plan) false in
  let unresolved_cost = ref 0 in
  Array.iter
    (fun (sh : Shard.t) ->
      match Hashtbl.find_opt resumed sh.index with
      | Some (o : Shard.outcome) ->
          resolved.(sh.index) <- true;
          Option.iter (fun b -> Budget.spend b (sum_trials o.trials)) budget
      | None ->
          unresolved_cost := Stats.saturating_add !unresolved_cost sh.cost)
    plan;
  let hook =
    Option.value hook
      ~default:
        (compiled ~eps ~delta (fun i ->
             Compile.compile ?fuel:compile_fuel w clause_sets.(i)))
  in
  { clause_sets; hook; eps; delta; nworkers; options; plan; lanes;
    probe; meta; journal; fps; emit; budget; slices; resolved;
    pending = resumed; cursor = 0;
    unresolved = Array.length plan - Hashtbl.length resumed;
    unresolved_cost = !unresolved_cost; emitted_trials = 0;
    all_complete = true; resumed_count = 0; quarantines = [] }

let plan run = run.plan
let probe run = run.probe
let meta run = run.meta
let fingerprint run (sh : Shard.t) = Lazy.force run.fps.(sh.index)
let resolved run i = run.resolved.(i)
let unresolved run = run.unresolved

let order_slice run (sh : Shard.t) =
  match run.budget with
  | None -> (None, None)
  | Some b ->
      let trials =
        if Budget.cancelled b then Some 0
        else Option.map (fun s -> s.(sh.index)) run.slices
      in
      (trials, Budget.remaining_deadline b)

(* An in-process attempt's budget: the static trial slice, and the shard's
   cost share of the remaining deadline over the unresolved cost — never
   the live trial remainder, so the bits do not depend on what ran
   before. *)
let shard_budget run (sh : Shard.t) =
  let trials, deadline_s = order_slice run sh in
  let share =
    float_of_int sh.cost /. float_of_int (max 1 run.unresolved_cost)
  in
  Budget.slice ~trials
    ~deadline_s:(Option.map (fun d -> d *. Float.min 1. share) deadline_s)

(* Sound per-tuple outcome for a shard whose computation cannot be trusted
   (kept failing, or failed on enough distinct workers): a-priori compiled
   brackets, zero trials, and the failure typed. *)
let apriori_outcome run (sh : Shard.t) ~fp ~error =
  let count = sh.count in
  let estimates = Array.make count 0. in
  let intervals = Array.make count (0., 1.) in
  let achieved = Array.make count 1. in
  let (Hook h) = run.hook in
  for j = 0 to count - 1 do
    match h.apriori (h.tuple (sh.first + j)) with
    | a -> fill_apriori a ~out:estimates ~intervals ~achieved j
    | exception _ -> () (* keep the vacuous [0, 1] default *)
  done;
  let err =
    match error with
    | Pqdb_error.Error t -> t
    | e -> Pqdb_error.Task_failure { index = sh.index; inner = e }
  in
  {
    Shard.shard = sh;
    fp;
    estimates;
    intervals;
    trials = Array.make count 0;
    achieved;
    masses = Array.make count 0.;
    complete = false;
    resumed = false;
    quarantined = Some err;
  }

(* One attempt at one shard over the whole-batch lanes — the unit of work a
   stream iteration, a retry, or a remote worker executes.  Tuple [i]
   consumes only lane [i], built fresh when the tuple samples, so every
   attempt (on any process) replays exactly the stream a fault-free first
   attempt would have consumed, and any partition of the batch into shards
   gives bit-identical per-tuple results — the lane contract the streaming,
   resume and distributed layers rest on.  Fires the "shard.run" fault
   point; failures propagate for the caller's retry/quarantine policy, but
   a single tuple or pool failure is contained and degrades only to the
   a-priori brackets. *)
let solve_shard ?budget run (sh : Shard.t) ~fp =
  Faultpoint.fire "shard.run";
  let (Hook h) = run.hook in
  let n = sh.count in
  let tuples = Array.init n (fun j -> h.tuple (sh.first + j)) in
  let out = Array.make n 0. in
  let trials = Array.make n 0 in
  let masses = Array.make n 0. in
  let intervals = Array.make n (0., 0.) in
  let achieved = Array.make n 0. in
  (* Flipped (from any domain) the moment a tuple misses its (ε, δ)
     contract or a task/pool failure is contained. *)
  let all_complete = Atomic.make true in
  (* Tuples whose zero-trial answer is exact cost nothing — fill them
     here and farm only the ones that may sample, costliest first.  Live
     tuples are pre-filled with their zero-trial bracket so that a tuple
     whose task never runs (or dies) still reports a sound interval
     instead of garbage. *)
  let live = ref [] in
  Array.iteri
    (fun j t ->
      let a = h.apriori t in
      fill_apriori a ~out ~intervals ~achieved j;
      match a.claim with Guarantee.Exact -> () | _ -> live := j :: !live)
    tuples;
  let live =
    List.rev_map (fun j -> (h.cost tuples.(j), j)) !live
    |> List.stable_sort (fun (ci, _) (cj, _) -> Int.compare cj ci)
    |> Array.of_list
  in
  let ntasks = Array.length live in
  if ntasks > 0 then begin
    let request = Guarantee.pass ~eps:run.eps ~delta:run.delta in
    (* Each task has its own budget, so no two domains race one trial pool:
       a cap is dealt by cost over the tuples that sample (certified ones
       cost 0, sort last and take no share). *)
    let budgets =
      match budget with
      | Some b when Budget.remaining_trials b < max_int ->
          let costs = Array.map fst live in
          let m =
            Array.fold_left (fun m c -> if c > 0 then m + 1 else m) 0 costs
          in
          let slices =
            Budget.allocate ~trials:(Budget.remaining_trials b)
              ~costs:(Array.sub costs 0 m)
          in
          let deadline_s = Budget.remaining_deadline b in
          Array.init ntasks (fun k ->
              let trials = Some (if k < m then slices.(k) else 0) in
              Budget.slice ~trials ~deadline_s)
      | _ -> Array.make ntasks budget
    in
    let task k =
      let j = snd live.(k) in
      match
        h.solve tuples.(j) budgets.(k) (fun () ->
            Rng.lane (Option.get run.lanes) (sh.first + j))
      with
      | o ->
          out.(j) <- o.Compile.value;
          trials.(j) <- o.Compile.trials;
          masses.(j) <- o.Compile.residual_mass;
          intervals.(j) <- (o.Compile.lo, o.Compile.hi);
          achieved.(j) <- Guarantee.eps o.Compile.claim;
          if not (Guarantee.meets o.Compile.claim request) then
            Atomic.set all_complete false
      | exception _ ->
          (* Keep the pre-filled bracket; the batch must survive any single
             tuple. *)
          Atomic.set all_complete false
    in
    (* A pool-level failure (a task the pool itself could not run, a spawn
       problem surfacing late) degrades the whole shard to its pre-filled
       brackets rather than crashing it. *)
    match Pool.run (Pool.create (min run.nworkers ntasks)) ~ntasks task with
    | () -> ()
    | exception _ -> Atomic.set all_complete false
  end;
  {
    Shard.shard = sh;
    fp;
    estimates = out;
    intervals;
    trials;
    achieved;
    masses;
    complete = Atomic.get all_complete;
    resumed = false;
    quarantined = None;
  }

let solve_with_retries run ~budget (sh : Shard.t) ~fp =
  let rec go attempt =
    match solve_shard ?budget:(budget ()) run sh ~fp with
    | o -> o
    | exception e ->
        if attempt >= run.options.retries then
          apriori_outcome run sh ~fp ~error:e
        else begin
          Unix.sleepf (Shard.backoff_s ~attempt:(attempt + 1));
          go (attempt + 1)
        end
  in
  go 0

(* Emit every resolved outcome that is next in plan order, counting it
   into the summary and dropping it from the pending table. *)
let emit_ready run =
  let rec go () =
    match Hashtbl.find_opt run.pending run.cursor with
    | None -> ()
    | Some (o : Shard.outcome) ->
        Hashtbl.remove run.pending run.cursor;
        run.cursor <- run.cursor + 1;
        run.emitted_trials <- run.emitted_trials + sum_trials o.trials;
        if not o.complete then run.all_complete <- false;
        if o.resumed then run.resumed_count <- run.resumed_count + 1;
        (match o.quarantined with
        | Some err -> run.quarantines <- (o.shard.index, err) :: run.quarantines
        | None -> ());
        run.emit o;
        go ()
  in
  go ()

let record run (o : Shard.outcome) =
  let i = o.shard.index in
  if run.resolved.(i) then
    invalid_arg "Confidence.record: shard already resolved";
  Option.iter (fun b -> Budget.spend b (sum_trials o.trials)) run.budget;
  if o.quarantined = None && Shard.journal_live run.journal then
    Shard.journal_append run.journal (Shard.to_payload o);
  run.resolved.(i) <- true;
  run.unresolved <- run.unresolved - 1;
  run.unresolved_cost <- run.unresolved_cost - o.shard.cost;
  Hashtbl.replace run.pending i o;
  emit_ready run

let solve_pending run shards =
  List.iter
    (fun i ->
      if not run.resolved.(i) then begin
        let sh = run.plan.(i) in
        (* The fingerprint only travels in journal records. *)
        let fp =
          if Shard.journal_live run.journal then fingerprint run sh else ""
        in
        record run
          (solve_with_retries run ~budget:(fun () -> shard_budget run sh) sh
             ~fp)
      end)
    shards;
  emit_ready run

let close_run run =
  Shard.close_journal run.journal;
  {
    shards = Array.length run.plan;
    resumed_shards = run.resumed_count;
    quarantined = List.rev run.quarantines;
    stream_trials = run.emitted_trials;
    stream_complete = run.all_complete && run.quarantines = [];
    journal_ok = Shard.journal_ok run.journal;
  }

let run_stream ?budget ?nworkers ?compile_fuel ?hook ?options rng w
    clause_sets ~eps ~delta ~emit =
  let run =
    open_run ?budget ?nworkers ?compile_fuel ?hook ?options rng w
      clause_sets ~eps ~delta ~emit
  in
  solve_pending run (List.init (Array.length run.plan) Fun.id);
  close_run run

let run_one_shard ?budget ?hook rng w clause_sets ~eps ~delta ~emit =
  let summary =
    run_stream ?budget ?hook
      ~options:{ default_stream_options with shard_cost = max_int; retries = 0 }
      rng w clause_sets ~eps ~delta ~emit
  in
  match summary.quarantined with
  | (_, Pqdb_error.Task_failure { inner; _ }) :: _ -> raise inner
  | (_, err) :: _ -> raise (Pqdb_error.Error err)
  | [] -> ()
