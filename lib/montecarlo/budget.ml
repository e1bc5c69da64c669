module Bigint = Pqdb_numeric.Bigint

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
    let total =
      Array.fold_left (fun a c -> Bigint.add a (Bigint.of_int c)) Bigint.zero
        costs
    in
    if pool > 0 then begin
      if Bigint.is_zero total then begin
        let q = pool / n and r = pool mod n in
        for i = 0 to n - 1 do
          out.(i) <- out.(i) + q + (if i < r then 1 else 0)
        done
      end
      else begin
        (* Each share's floor and remainder of [pool · c / total], exact in
           arbitrary precision: the product overflows an [int] long before
           [pool] reaches [max_int].  The floors sum to at most [pool] and
           the leftover is below [n]. *)
        let remainders = Array.make n Bigint.zero in
        let handed = ref 0 in
        Array.iteri
          (fun i c ->
            let q, r =
              Bigint.divmod (Bigint.mul (Bigint.of_int pool) (Bigint.of_int c))
                total
            in
            let q = Option.get (Bigint.to_int_opt q) in
            out.(i) <- out.(i) + q;
            handed := !handed + q;
            remainders.(i) <- r)
          costs;
        (* Hand the integer remainder out by largest fractional share
           (lowest index on ties). *)
        let order = Array.init n Fun.id in
        Array.sort
          (fun i j ->
            match Bigint.compare remainders.(j) remainders.(i) with
            | 0 -> compare i j
            | c -> c)
          order;
        for k = 0 to pool - !handed - 1 do
          let i = order.(k) in
          out.(i) <- out.(i) + 1
        done
      end
    end;
    out
  end

let slice ~trials ~deadline_s =
  let dead () =
    let b = create () in
    cancel b;
    Some b
  in
  match (trials, deadline_s) with
  | None, None -> None
  | Some 0, _ -> dead ()
  | _, Some d when d <= 0. -> dead ()
  | _ -> Some (create ?deadline_s ?max_trials:trials ())
