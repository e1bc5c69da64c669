type t = {
  deadline : float option;  (* absolute Unix time *)
  max_trials : int option;
  cancelled_flag : bool Atomic.t;
  trials : int Atomic.t;
  expired : bool Atomic.t;  (* sticky deadline observation *)
}

let create ?deadline_s ?max_trials () =
  (match deadline_s with
  | Some d when d <= 0. -> invalid_arg "Budget.create: deadline_s must be positive"
  | _ -> ());
  (match max_trials with
  | Some n when n <= 0 -> invalid_arg "Budget.create: max_trials must be positive"
  | _ -> ());
  {
    deadline = Option.map (fun d -> Unix.gettimeofday () +. d) deadline_s;
    max_trials;
    cancelled_flag = Atomic.make false;
    trials = Atomic.make 0;
    expired = Atomic.make false;
  }

let cancel t = Atomic.set t.cancelled_flag true
let cancelled t = Atomic.get t.cancelled_flag
let spend t n = if n > 0 then ignore (Atomic.fetch_and_add t.trials n)
let spent t = Atomic.get t.trials

let remaining_trials t =
  if Atomic.get t.cancelled_flag then 0
  else
    match t.max_trials with
    | None -> max_int
    | Some m -> max 0 (m - Atomic.get t.trials)

let past_deadline t =
  match t.deadline with
  | None -> false
  | Some d ->
      Atomic.get t.expired
      ||
      if Unix.gettimeofday () > d then begin
        Atomic.set t.expired true;
        true
      end
      else false

let remaining_deadline t =
  Option.map (fun d -> d -. Unix.gettimeofday ()) t.deadline

let limitless t = t.deadline = None && t.max_trials = None

let exhausted t =
  Atomic.get t.cancelled_flag
  || (match t.max_trials with
     | Some m -> Atomic.get t.trials >= m
     | None -> false)
  || past_deadline t

let allocate ~trials ~costs =
  if trials < 0 then invalid_arg "Budget.allocate: trials must be >= 0";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Budget.allocate: negative cost")
    costs;
  let n = Array.length costs in
  if n = 0 then [||]
  else begin
    (* A floor of one trial each (when the allowance can afford it), then
       the rest apportioned by cost with the largest-remainder method, so
       the shares always sum to exactly [trials] — no allowance is lost to
       rounding and none is invented. *)
    let base = if trials >= n then 1 else 0 in
    let out = Array.make n base in
    let pool = trials - (base * n) in
    if pool > 0 then begin
      let total = Array.fold_left Pqdb_numeric.Stats.saturating_add 0 costs in
      if total <= 0 then begin
        let q = pool / n and r = pool mod n in
        for i = 0 to n - 1 do
          out.(i) <- out.(i) + q + (if i < r then 1 else 0)
        done
      end
      else begin
        let shares =
          Array.map
            (fun c -> float_of_int pool *. float_of_int c /. float_of_int total)
            costs
        in
        let floors = Array.map (fun s -> int_of_float (Float.floor s)) shares in
        Array.iteri (fun i f -> out.(i) <- out.(i) + f) floors;
        let leftover = max 0 (pool - Array.fold_left ( + ) 0 floors) in
        (* Hand the integer remainder out by largest fractional share
           (lowest index on ties); cycling covers any float-noise excess. *)
        let order = Array.init n (fun i -> i) in
        Array.sort
          (fun i j ->
            let fi = shares.(i) -. float_of_int floors.(i)
            and fj = shares.(j) -. float_of_int floors.(j) in
            match compare fj fi with 0 -> compare i j | c -> c)
          order;
        for k = 0 to leftover - 1 do
          let i = order.(k mod n) in
          out.(i) <- out.(i) + 1
        done
      end
    end;
    out
  end

let split t ~cost ~remaining_cost =
  if remaining_cost < 1 then
    invalid_arg "Budget.split: remaining_cost must be >= 1";
  let dead () =
    let b = create () in
    cancel b;
    b
  in
  if exhausted t then dead ()
  else
    let c = max 0 (min cost remaining_cost) in
    let fraction = float_of_int c /. float_of_int remaining_cost in
    let deadline_s =
      match remaining_deadline t with
      | None -> None
      | Some rem -> Some (rem *. fraction)
    in
    let max_trials =
      match t.max_trials with
      | None -> None
      | Some _ ->
          let rem = remaining_trials t in
          (* The closing share ([cost = remaining_cost]) takes everything
             left, so shares handed out over a full schedule sum to exactly
             the remaining allowance — intermediate rounding drift lands on
             the last shard instead of silently vanishing (or, with the old
             per-share ceil, compounding into oversubscription). *)
          let share =
            if c >= remaining_cost then rem
            else
              int_of_float
                (Float.round (float_of_int rem *. fraction))
          in
          Some (max 1 (min rem share))
    in
    match deadline_s with
    | Some s when s <= 0. -> dead ()
    | _ -> create ?deadline_s ?max_trials ()
