open Ccpfs_util
module Int_map = Map.Make (Int)

module Client_tbl = Hashtbl.Make (struct
  type t = Types.client_id

  let equal = Int.equal
  let hash c = c land max_int
end)

type lock = {
  id : int;
  client : Types.client_id;
  mutable mode : Mode.t;
  ranges : Interval.t list;
  hull : Interval.t;
  sn : int;
  mutable state : Lcm.lock_state;
  mutable revoke_sent : bool;
  seq : int;
      (* per-server insertion stamp; descending seq reproduces the
         newest-first order the granted set was historically kept in, so
         revocation fan-out order is unchanged from the list days *)
}

let mode_rank = function Mode.PR -> 0 | Mode.NBW -> 1 | Mode.BW -> 2 | Mode.PW -> 3
let modes = [| Mode.PR; Mode.NBW; Mode.BW; Mode.PW |]

let modes_conflict a b = Lcm.request_conflict a b || Lcm.request_conflict b a

(* FIFO fairness: a request may not overtake an earlier-queued request
   it conflicts with.  Bucketing the blocked ranges by mode (there are
   four) turns the check into at most four extent-map probes: two range
   lists overlap iff one overlaps the union of the other's bucket, and
   mode conflict depends only on the modes. *)
module Blocked = struct
  type t = Open of unit Extent_map.t array (* indexed by mode rank *) | Saturated

  let empty = Open (Array.make 4 Extent_map.empty)
  let saturated = function Saturated -> true | Open _ -> false

  (* A blocked entry of a write mode spanning the whole offset space
     blocks every possible later request: the three write modes conflict
     with all four modes, and [0, eof) overlaps every valid interval. *)
  let saturates mode ranges =
    (match mode with Mode.PR -> false | Mode.NBW | Mode.BW | Mode.PW -> true)
    && List.exists
         (fun (r : Interval.t) -> r.lo = 0 && r.hi = Interval.eof)
         ranges

  let add t mode ranges =
    match t with
    | Saturated -> Saturated
    | Open _ when saturates mode ranges -> Saturated
    | Open a ->
        let a = Array.copy a in
        let i = mode_rank mode in
        a.(i) <-
          List.fold_left (fun m (r : Interval.t) -> Extent_map.set m r ()) a.(i)
            ranges;
        Open a

  let blocks t mode ranges =
    match t with
    | Saturated -> true
    | Open a ->
        let hit i =
          modes_conflict mode modes.(i)
          && (not (Extent_map.is_empty a.(i)))
          && List.exists (fun r -> Extent_map.overlaps a.(i) r) ranges
        in
        hit 0 || hit 1 || hit 2 || hit 3

  let equal a b =
    let extents m = Extent_map.fold (fun i () l -> i :: l) m [] in
    match (a, b) with
    | Open a, Open b ->
        Array.for_all2
          (fun x y -> List.equal Interval.equal (extents x) (extents y))
          a b
    | _ -> saturated a && saturated b
end

(* A visit reads the granted set only through a view, which records the
   hull of every query: the hull a visit reports is derived from its
   queries, so no read can escape it.  One view per visit. *)
module View : sig
  type t

  val of_index : lock Interval_index.t -> t
  val overlapping : t -> Interval.t list -> keep:(lock -> bool) -> lock list
  val read : t -> Interval.t option
end = struct
  type t = { idx : lock Interval_index.t; mutable lo : int; mutable hi : int }

  let of_index idx = { idx; lo = max_int; hi = min_int }
  let read v = if v.lo < v.hi then Some (Interval.v ~lo:v.lo ~hi:v.hi) else None

  (* The hull test is a superset filter: [keep] re-checks exact ranges.
     Filtering comes before sorting, and [seq] is unique per lock, so
     sorting on it alone also removes the duplicates a multi-range query
     finds. *)
  let overlapping v ranges ~keep =
    let add acc _iv _id g = if keep g then g :: acc else acc in
    let newest_first a b = Int.compare b.seq a.seq in
    List.iter
      (fun (r : Interval.t) ->
        v.lo <- Int.min v.lo r.lo;
        v.hi <- Int.max v.hi r.hi)
      ranges;
    match ranges with
    | [ r ] ->
        List.sort newest_first
          (Interval_index.fold_overlapping v.idx r ~init:[] ~f:add)
    | _ ->
        List.sort_uniq newest_first
          (List.fold_left
             (fun acc r -> Interval_index.fold_overlapping v.idx r ~init:acc ~f:add)
             [] ranges)
end

let overlapping idx = View.overlapping (View.of_index idx)

type decision =
  | Skip
  | Grant of { own : lock list; early : bool }
  | Block of { revoke : lock list; all_canceling : bool }

type outcome = {
  decision : decision;
  eff : Mode.t;
  acc : Blocked.t;
  read : Interval.t option;
}

let conflicts ~eff ~ranges g =
  Types.ranges_overlap ranges g.ranges
  && not (Lcm.compatible ~req:eff ~granted:g.mode ~state:g.state)

let outcome view decision eff acc = { decision; eff; acc; read = View.read view }

let decide ~convert (req : Types.request) acc view ~grants eff =
  if
    (* Once an earlier waiter blocks the whole offset space, every later
       waiter is blocked too; if its client also holds no grants there is
       nothing to convert, and the visit would change nothing.  Skipping
       it keeps a contended pass O(1) per queued request. *)
    Blocked.saturated acc && ((not convert) || grants = 0)
  then outcome view Skip eff acc
  else begin
    (* Same-client GRANTED conflicts are merged by upgrading when
       conversion is on (and no revocation is already in flight). *)
    let own =
      if convert then
        View.overlapping view req.ranges ~keep:(fun g ->
            g.client = req.client && g.state = Lcm.Granted
            && (not g.revoke_sent)
            && conflicts ~eff ~ranges:req.ranges g)
      else []
    in
    let eff = List.fold_left (fun m g -> Mode.join m g.mode) eff own in
    (* Upgrading widens the grant to cover the merged locks' ranges, so
       conflict checks run on the union: a PR lock expanded to EOF that
       upgrades to PW now conflicts where the PR did not. *)
    let union =
      Types.normalize_ranges (req.ranges @ List.concat_map (fun g -> g.ranges) own)
    in
    if Blocked.blocks acc eff union then
      outcome view (Block { revoke = []; all_canceling = false }) eff
        (Blocked.add acc eff union)
    else
      match
        View.overlapping view union ~keep:(fun g ->
            (not (List.exists (fun o -> o.id = g.id) own))
            && conflicts ~eff ~ranges:union g)
      with
      | [] ->
          let canceling =
            View.overlapping view req.ranges ~keep:(fun g ->
                g.state = Lcm.Canceling
                && Types.ranges_overlap req.ranges g.ranges)
          in
          let early = not (List.is_empty canceling) in
          outcome view (Grant { own; early }) eff acc
      | found ->
          let revoke =
            List.filter (fun g -> g.state = Lcm.Granted && not g.revoke_sent) found
          in
          let all_canceling = List.for_all (fun g -> g.state = Lcm.Canceling) found in
          outcome view (Block { revoke; all_canceling }) eff (Blocked.add acc eff union)
  end

(* [decide] sees the granted set only through the view made here. *)
let visit ~convert req acc granted ~grants eff =
  decide ~convert req acc (View.of_index granted) ~grants eff

type waiter = {
  req : Types.request;
  reply : Types.lock_reply -> unit;
  mutable eff_mode : Mode.t;
  enq_time : float;
  mutable acks_time : float option;
  internal : bool;
  wseq : int;
  (* What this waiter's last visit left behind, for [pass] to resume
     from (valid only while [wseq <= frontier]): *)
  mutable after : Blocked.t;
  mutable read : Interval.t option;
}

(* A lock mutation, or a waiter's widened [eff_mode], that may alter a
   queued waiter's next visit: the changed hull and client, and
   [ch_pos], the [wseq] of the visit that made it ([max_int] for a
   control message).  A visit stamped after [ch_pos] in the same pass
   already saw it. *)
type change = {
  ch_hull : Interval.t;
  ch_client : Types.client_id;
  ch_pos : int;
}

type t = {
  waiting : waiter Dllist.t; (* FIFO, head first *)
  q_lo : int Int_map.t array;
      (* one slot per mode rank: a multiset (hull-lo -> count) of the
         queued waiters in that mode class, so the expansion bound is
         four ordered-map probes instead of a scan of the queue *)
  waiting_by_client : int Client_tbl.t;
      (* against the grant counts it tells a saturated pass whether any
         remaining visit could still merge a same-client grant *)
  mutable next_wseq : int;
  mutable frontier : int;
      (* waiters stamped at or below this hold a valid snapshot *)
  mutable fresh : waiter Dllist.node option;
      (* the first waiter stamped above [frontier] *)
  mutable pending : change list;
      (* changes recorded since the current pass started (between
         passes: since the last one started), newest first *)
  mutable depth : int; (* passes in progress: above 1 = re-entered *)
  mutable resets : int;
      (* bumped by [reset]: a pass that sees it move under its walk
         leaves no snapshot valid *)
}

type env = {
  convert : bool;
  granted : unit -> lock Interval_index.t;
  by_client : int Client_tbl.t;
  now : unit -> float;
  grant : waiter -> own:lock list -> early:bool -> unit;
  revoke : waiter -> lock -> unit;
}

let create () =
  { waiting = Dllist.create (); q_lo = Array.make 4 Int_map.empty;
    waiting_by_client = Client_tbl.create 16; next_wseq = 0; frontier = min_int;
    fresh = None; pending = []; depth = 0; resets = 0 }

let length q = Dllist.length q.waiting
let to_list q = Dllist.to_list q.waiting
let last_values q n = Dllist.last_values q.waiting n

(* For changes the per-waiter rule does not describe: a re-entrant pass,
   a reinstalled lock, the sync pseudo-lock drop. *)
let reset q =
  q.frontier <- min_int;
  q.pending <- [];
  q.resets <- q.resets + 1;
  q.fresh <- Dllist.first_node q.waiting

let record q ~pos hull client =
  q.pending <- { ch_hull = hull; ch_client = client; ch_pos = pos } :: q.pending

(* Every queue transition funnels through here: enqueue, unlink on
   grant, and the conversion join moving a waiter between mode buckets. *)
let track q (w : waiter) delta =
  let bump n = match Option.value n ~default:0 + delta with 0 -> None | n -> Some n in
  (match w.req.ranges with
  | [] -> ()
  | ranges ->
      let r = mode_rank w.eff_mode in
      let lo = (Types.ranges_hull ranges).Interval.lo in
      q.q_lo.(r) <- Int_map.update lo bump q.q_lo.(r));
  let c = w.req.client in
  match bump (Client_tbl.find_opt q.waiting_by_client c) with
  | Some n -> Client_tbl.replace q.waiting_by_client c n
  | None -> Client_tbl.remove q.waiting_by_client c

let enqueue q req ~reply ~internal ~now =
  let w =
    { req; reply; eff_mode = req.Types.mode; enq_time = now; acks_time = None;
      internal; wseq = q.next_wseq; after = Blocked.empty; read = None }
  in
  q.next_wseq <- q.next_wseq + 1;
  let node = Dllist.push_back q.waiting w in
  if Option.is_none q.fresh then q.fresh <- Some node;
  track q w 1

let first_queued_from q mode from =
  Array.fold_left
    (fun acc rank ->
      if Int_map.is_empty q.q_lo.(rank) || not (modes_conflict mode modes.(rank))
      then acc
      else
        match Int_map.find_first_opt (fun lo -> lo >= from) q.q_lo.(rank) with
        | Some (lo, _) when Option.fold ~none:true ~some:(( < ) lo) acc -> Some lo
        | Some _ | None -> acc)
    None [| 0; 1; 2; 3 |]

let conflicts_queued q mode ranges =
  Dllist.exists
    (fun (w : waiter) ->
      w.req.ranges <> []
      && Types.ranges_overlap w.req.ranges ranges
      && modes_conflict w.eff_mode mode)
    q.waiting

(* May a change recorded in [changes] alter [w]'s next visit?  Only one
   made at or after the visit's own position, to a lock the visit read
   or to its client's grant count. *)
let affected changes (w : waiter) =
  List.exists
    (fun c ->
      c.ch_pos >= w.wseq
      && (c.ch_client = w.req.client
         || Option.fold ~none:false ~some:(Interval.overlaps c.ch_hull) w.read))
    changes

(* Decide one waiter and apply the outcome; returns the accumulator for
   the next one. *)
let visit_node q env ~progress acc node =
  let w = Dllist.value node in
  let o =
    visit ~convert:env.convert w.req acc
      (env.granted ())
      ~grants:(Option.value (Client_tbl.find_opt env.by_client w.req.client) ~default:0)
      w.eff_mode
  in
  if not (Mode.equal o.eff w.eff_mode) then begin
    track q w (-1);
    w.eff_mode <- o.eff;
    track q w 1;
    (* A widened [eff_mode] changes this waiter's own input: under the
       wider mode more of its client's locks conflict, so the next visit
       may merge more of them and block more.  Naming the client makes
       the next pass revisit it, as a full pass would; the join only
       widens, so this settles. *)
    Option.iter (fun h -> record q ~pos:w.wseq h w.req.client) o.read
  end;
  w.read <- o.read;
  (match o.decision with
  | Grant { own; early } ->
      Dllist.remove q.waiting node;
      track q w (-1);
      progress := true;
      env.grant w ~own ~early
  | Block { revoke; all_canceling } ->
      if not (List.is_empty revoke) then List.iter (fun g -> env.revoke w g) revoke;
      if all_canceling && Option.is_none w.acks_time then
        w.acks_time <- Some (env.now ());
      w.after <- o.acc
  | Skip -> w.after <- o.acc);
  o.acc

(* One pass over the queue; true if any waiter was granted (a grant can
   unblock early grants further down, so [process] loops).

   The pass starts at the first waiter that holds no valid snapshot
   ([fresh]) or that a change recorded since the last pass started may
   affect, with the accumulator its predecessor's visit left behind;
   from there it walks to the end as a full pass would.  Every waiter it
   skips would read exactly what its last visit read (its four visit
   arguments: its predecessor's accumulator, the grants in its read
   hull, its client's grant count and its own [eff_mode]) and so decide
   the same, changing nothing (DESIGN.md §10).  The walk's own changes
   are recorded for the next pass: they may affect waiters visited
   before them. *)
let pass q env =
  if q.depth > 0 then
    (* re-entered from a reply hook (sync_resource): the outer walk's
       accumulator no longer matches the queue *)
    reset q;
  q.depth <- q.depth + 1;
  let resets = q.resets in
  let changes = q.pending in
  q.pending <- [];
  let rec resume prev = function
    | None -> None
    | Some node as cur ->
        let w = Dllist.value node in
        if w.wseq > q.frontier || affected changes w then Some (prev, node)
        else resume cur (Dllist.succ node)
  in
  let start =
    match changes with
    | [] -> Option.map (fun node -> (Dllist.pred node, node)) q.fresh
    | _ :: _ -> resume None (Dllist.first_node q.waiting)
  in
  let progress = ref false in
  (match start with
  | None -> ()
  | Some (prev, start) ->
      (* Once the accumulator saturates, the only visits that can still
         change state are same-client merges, and those need a queued
         waiter whose client holds a grant.  The check is memoized: a
         "cut" verdict stops the walk on the spot, so it can never go
         stale, while "keep walking" merely falls back to the per-visit
         skip.  Waiters past a cut keep no valid snapshot. *)
      let may_convert =
        lazy
          (env.convert
          && Client_tbl.fold
               (fun c _ acc -> acc || Client_tbl.mem q.waiting_by_client c)
               env.by_client false)
      in
      let cut acc = Blocked.saturated acc && not (Lazy.force may_convert) in
      (* Walk the queue in place; granted waiters are unlinked at once so
         later decisions see a fresh queue.  A reply hook may re-enter
         [process] and remove nodes ahead of the walk: a removed node
         keeps its forward link ([Dllist.succ]) and [Dllist.active]
         skips it in O(1).  Returns the last stamp visited and the node
         the walk stopped before. *)
      let rec go acc last node =
        let acc, last =
          if Dllist.active node then
            (visit_node q env ~progress acc node, (Dllist.value node).wseq)
          else (acc, last)
        in
        match Dllist.succ node with
        | Some next when not (cut acc) -> go acc last next
        | next -> (last, next)
      in
      let acc, last =
        match prev with
        | None -> (Blocked.empty, min_int)
        | Some p -> ((Dllist.value p).after, (Dllist.value p).wseq)
      in
      let last, fresh = if cut acc then (last, Some start) else go acc last start in
      q.frontier <- last;
      q.fresh <- fresh);
  q.depth <- q.depth - 1;
  if q.resets <> resets then reset q;
  !progress

(* [pass] repeats only while grants happen; a repeat resumes at the
   first waiter the grants may affect, usually walking nothing. *)
let rec process q env =
  if pass q env && not (Dllist.is_empty q.waiting) then process q env

let check_invariants q =
  Dllist.check_invariants q.waiting;
  (* The indexes equal the ones the live queue tracks from scratch. *)
  let ws = to_list q in
  let q' = create () in
  List.iter (fun w -> track q' w 1) ws;
  Array.iter2 (fun a b -> assert (Int_map.equal Int.equal a b)) q.q_lo q'.q_lo;
  let wbc = q'.waiting_by_client in
  assert (Client_tbl.length q.waiting_by_client = Client_tbl.length wbc);
  Client_tbl.iter
    (fun c n -> assert (Client_tbl.find_opt q.waiting_by_client c = Some n))
    wbc;
  (* Stamps ascend, and [fresh] is the first waiter above [frontier]. *)
  let stamps = List.map (fun (w : waiter) -> w.wseq) ws in
  assert (List.sort_uniq Int.compare stamps = stamps);
  match (q.fresh, List.find_opt (fun (w : waiter) -> w.wseq > q.frontier) ws) with
  | None, None -> ()
  | Some node, Some w -> assert (Dllist.active node && Dllist.value node == w)
  | Some _, None | None, Some _ -> assert false
