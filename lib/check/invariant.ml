open Ccpfs_util
open Seqdlm
open Ccpfs

let pp_ranges ppf ranges =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       Interval.pp)
    ranges

let pp_lock ppf (v : Lock_server.lock_view) =
  Format.fprintf ppf "#%d c%d %s/%s sn=%d %a" v.v_lock_id v.v_client
    (Mode.to_string v.v_mode)
    (Lcm.state_to_string v.v_state)
    v.v_sn pp_ranges v.v_ranges

(* No two granted locks may overlap unless Table II allows their
   coexistence in at least one direction — the only asymmetric cells are
   the NBW/BW-over-canceling-NBW early grants, which is exactly the
   documented exception.  Every pair is checked, whatever its clients. *)
let compat_pair srv rid (g : Lock_server.lock_view)
    (h : Lock_server.lock_view) =
  if Types.ranges_overlap g.v_ranges h.v_ranges then
    if
      not
        (Lcm_oracle.compatible ~req:g.v_mode ~granted:h.v_mode ~state:h.v_state
        || Lcm_oracle.compatible ~req:h.v_mode ~granted:g.v_mode
             ~state:g.v_state)
    then
      Violation.fail ~inv:"lcm-compat"
        "%s r%d holds conflicting overlapping grants %a and %a"
        (Lock_server.name srv) rid pp_lock g pp_lock h

let check_compat srv rid =
  let rec pairs = function
    | [] -> ()
    | g :: rest ->
        List.iter (compat_pair srv rid g) rest;
        pairs rest
  in
  pairs (Lock_server.granted_locks srv rid)

(* Write grants consume sequence numbers: per resource they must be
   pairwise distinct and below the sequencer's next value (§III-C). *)
let check_sn_bound srv rid ~next (v : Lock_server.lock_view) =
  if v.v_sn >= next then
    Violation.fail ~inv:"sn-rules"
      "%s r%d write grant %a carries sn >= next_sn %d" (Lock_server.name srv)
      rid pp_lock v next

let check_sn srv rid =
  let next = Lock_server.next_sn srv rid in
  let writes =
    List.filter
      (fun (v : Lock_server.lock_view) -> Mode.is_write v.v_mode)
      (Lock_server.granted_locks srv rid)
  in
  List.iter (check_sn_bound srv rid ~next) writes;
  let sns = List.map (fun (v : Lock_server.lock_view) -> v.v_sn) writes in
  if List.length sns <> List.length (List.sort_uniq Int.compare sns) then
    Violation.fail ~inv:"sn-rules" "%s r%d has duplicate write-grant SNs: %a"
      (Lock_server.name srv) rid
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_lock)
      writes

(* The per-resource queue is FIFO: enqueue timestamps must be
   non-decreasing from head to tail (fairness, §II-A). *)
let fifo_walk srv rid waiters =
  let rec walk = function
    | (a : Lock_server.waiter_view) :: (b :: _ as rest) ->
        if a.enq_time > b.enq_time then
          Violation.fail ~inv:"fifo-queue"
            "%s r%d queue out of order: c%d (t=%g) before c%d (t=%g)"
            (Lock_server.name srv) rid a.req.client a.enq_time b.req.client
            b.enq_time;
        walk rest
    | [] | [ _ ] -> ()
  in
  walk waiters

let check_fifo srv rid = fifo_walk srv rid (Lock_server.waiting_view srv rid)

let builtin : (string * (Lock_server.t -> Types.resource_id -> unit)) list =
  [
    ("lcm-compat", check_compat); ("sn-rules", check_sn);
    ("fifo-queue", check_fifo);
  ]

let extra : (string * (Lock_server.t -> Types.resource_id -> unit)) list ref =
  ref []

let register name f = extra := !extra @ [ (name, f) ]
let checks () = builtin @ !extra

let check_server_full srv =
  List.iter
    (fun rid -> List.iter (fun (_, f) -> f srv rid) (checks ()))
    (Lock_server.resource_ids srv)

(* The incremental checker (DESIGN.md §7).  Given a state the last check
   vouched for, a transition can only create a violation that involves
   what it changed: a new compat conflict has a changed lock on one
   side, a duplicate SN has a changed write grant on one side, and only
   an enqueue can break FIFO order.  Enqueues append and unlinks keep
   the order of what is left, so after k enqueues every new adjacency
   lies among the queue's last k + 1 waiters.  Touched rids are visited in
   ascending order with the checks in the full sweep's order, so both
   raise the same [inv] at the same transition. *)

(* Per-server checker state.  [sns] maps (rid, SN) to the lock id of the
   write grant last seen holding it; an entry can go stale when that
   lock is released or downgraded, so a hit is confirmed against the
   server before it counts.  [trusted] means the last check passed and
   nothing since escaped the delta. *)
type server_state = {
  sns : (Types.resource_id * int, int) Hashtbl.t;
  mutable calls : int;
  mutable trusted : bool;
}

(* Keyed by the server itself (physical equality), weakly, so checker
   state dies with its cluster. *)
module Server_tbl = Ephemeron.K1.Make (struct
  type t = Lock_server.t

  let equal = ( == )
  let hash s =
    (Hashtbl.hash
       [@lint.allow
         "D001 bucket choice only: the table is probed, never traversed, \
          and equality is physical"])
      (Lock_server.name s)
end)

let states : server_state Server_tbl.t = Server_tbl.create 16

(* The full sweep also runs every [full_every]-th call: a backstop that
   bounds how long a delta-recording gap could go unnoticed. *)
let full_every = 1024

let state_of srv =
  match Server_tbl.find_opt states srv with
  | Some st -> st
  | None ->
      let st = { sns = Hashtbl.create 64; calls = 0; trusted = false } in
      Server_tbl.replace states srv st;
      st

let is_write (v : Lock_server.lock_view) = Mode.is_write v.v_mode

let reseed st srv =
  Hashtbl.reset st.sns;
  List.iter
    (fun rid ->
      List.iter
        (fun (v : Lock_server.lock_view) ->
          if is_write v then Hashtbl.replace st.sns (rid, v.v_sn) v.v_lock_id)
        (Lock_server.granted_locks srv rid))
    (Lock_server.resource_ids srv)

let check_sn_dup st srv rid (v : Lock_server.lock_view) =
  let holds_sn id =
    id <> v.v_lock_id
    &&
    match Lock_server.granted_lock srv rid id with
    | Some h -> is_write h && h.v_sn = v.v_sn
    | None -> false
  in
  match Hashtbl.find_opt st.sns (rid, v.v_sn) with
  | Some id when holds_sn id ->
      Violation.fail ~inv:"sn-rules" "%s r%d has duplicate write-grant SNs: %a"
        (Lock_server.name srv) rid
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_lock)
        (List.filter_map Fun.id [ Lock_server.granted_lock srv rid id; Some v ])
  | _ -> Hashtbl.replace st.sns (rid, v.v_sn) v.v_lock_id

let check_delta st srv (d : Lock_server.delta) =
  let rids = List.sort_uniq Int.compare (List.map fst d.changed @ d.queued) in
  List.iter
    (fun rid ->
      let changed =
        List.filter_map
          (fun (r, id) -> if r = rid then Some id else None)
          d.changed
        |> List.sort_uniq Int.compare
        |> List.filter_map (Lock_server.granted_lock srv rid)
      in
      List.iter
        (fun (g : Lock_server.lock_view) ->
          List.iter
            (fun (h : Lock_server.lock_view) ->
              if h.v_lock_id <> g.v_lock_id then compat_pair srv rid g h)
            (Lock_server.granted_overlapping srv rid g.v_ranges))
        changed;
      let writes = List.filter is_write changed in
      let next = Lock_server.next_sn srv rid in
      List.iter (check_sn_bound srv rid ~next) writes;
      List.iter (check_sn_dup st srv rid) writes;
      (match List.length (List.filter (Int.equal rid) d.queued) with
      | 0 -> ()
      | k -> fifo_walk srv rid (Lock_server.waiting_tail srv rid (k + 1)));
      List.iter (fun (_, f) -> f srv rid) !extra)
    rids

let check_server srv =
  let st = state_of srv in
  let delta = Lock_server.take_delta srv in
  st.calls <- st.calls + 1;
  let trusted = st.trusted in
  st.trusted <- false;
  (match delta with
  | Some d when trusted && (not d.sweep) && st.calls mod full_every <> 0 ->
      check_delta st srv d
  | Some _ | None ->
      check_server_full srv;
      reseed st srv);
  st.trusted <- true

(* Strict SN monotonicity, observed on the live grant stream rather than
   reconstructed from state: each write grant on a resource must carry a
   strictly larger SN than the previous one (the sequencer never reuses
   or reorders, §III-C). *)
let monitor_sn srv =
  let last : (Types.resource_id, int) Hashtbl.t = Hashtbl.create 16 in
  Lock_server.add_tracer srv (fun _now ev ->
      match ev with
      | Lock_server.T_grant (g, _) when Mode.is_write g.mode -> (
          match Hashtbl.find_opt last g.rid with
          | Some prev when g.sn <= prev ->
              Violation.fail ~inv:"sn-monotone"
                "%s r%d issued write sn %d after already issuing %d"
                (Lock_server.name srv) g.rid g.sn prev
          | _ -> Hashtbl.replace last g.rid g.sn)
      | Lock_server.T_crash _ ->
          (* An online crash legitimately forgets SNs that no one can
             ever use: a write grant lost in flight is invisible to the
             recovery gather, and the epoch fence guarantees its SN
             orders no data.  Monotonicity restarts from the recovered
             floor — which the recovery-sn-floor invariant (extent log +
             reinstalled write grants) checks independently. *)
          Hashtbl.reset last
      | _ -> ())

(* A client may hold dirty data only under the protection of a cached
   write-capable lock covering it ("data can be cached in clients under
   the protection of the cached locks", §I; flushing precedes release in
   the cancel path, §III-D2). *)
let check_client_rid ~lock_client ~cache rid =
  let dirty =
    match
      List.find_opt (fun (r, _) -> r = rid) (Client_cache.dirty_view cache)
    with
    | Some (_, extents) -> extents
    | None -> []
  in
  if dirty <> [] then begin
    let protection =
      Lock_client.locks_for_recovery lock_client ~owned:(fun _ -> true)
      |> List.filter_map (fun (l : Lock_client.recovery_lock) ->
             if l.r_rid = rid && Mode.can_write l.r_mode then Some l.r_ranges
             else None)
      |> List.concat |> Types.normalize_ranges
    in
    List.iter
      (fun (iv, (_ : Content.tag)) ->
        if not (List.exists (fun r -> Interval.contains r iv) protection) then
          Violation.fail ~inv:"cache-under-lock"
            "client %d holds dirty extent %a of r%d outside its write locks \
             %a"
            (Client_cache.client_id cache)
            Interval.pp iv rid pp_ranges protection)
      dirty
  end

let check_client ~lock_client ~cache =
  List.iter
    (fun (rid, _) -> check_client_rid ~lock_client ~cache rid)
    (Client_cache.dirty_view cache)

(* Replication invariants (DESIGN.md §16), swept over one group:

   [repl-primary-unique]: no backup may sit in a NEWER regime than its
   primary's log.  Regimes only advance through an elected, fenced
   recovery that resets the primary's log first, so a backup ahead of
   its primary means two primaries shipped under different epochs.

   [repl-log-prefix]: a backup that follows the primary's current regime
   holds an exact prefix of the primary's log — same events under the
   same lsns — and never commits past the primary's tail.  (Backups
   still in an older regime are merely lagging: their first new-regime
   Append supersedes their copy wholesale.) *)
let check_repl_group (g : Repl.Group.t) =
  let plog = Repl.Group.log g in
  let pepoch = Repl.Grant_log.epoch plog in
  let pname = Repl.Group.name g in
  Array.iter
    (fun b ->
      let bid = Repl.Replica.id b in
      let blog = Repl.Replica.log b in
      let bepoch = Repl.Grant_log.epoch blog in
      if bepoch > pepoch then
        Violation.fail ~inv:"repl-primary-unique"
          "%s backup %d follows regime %d ahead of its primary's %d" pname
          bid bepoch pepoch
      else if bepoch = pepoch then begin
        if Repl.Grant_log.last_lsn blog > Repl.Grant_log.last_lsn plog then
          Violation.fail ~inv:"repl-log-prefix"
            "%s backup %d committed lsn %d past the primary's tail %d" pname
            bid
            (Repl.Grant_log.last_lsn blog)
            (Repl.Grant_log.last_lsn plog);
        let rec walk (p : Repl.Grant_log.entry list)
            (bk : Repl.Grant_log.entry list) =
          match (p, bk) with
          | _, [] -> ()
          | pe :: p', be :: b' ->
              (* Structural equality is safe here: repl events carry only
                 ints and immutable variants, no floats or closures. *)
              if pe.Repl.Grant_log.lsn <> be.Repl.Grant_log.lsn
                 || pe.Repl.Grant_log.ev <> be.Repl.Grant_log.ev
              then
                Violation.fail ~inv:"repl-log-prefix"
                  "%s backup %d diverges from the primary at lsn %d" pname
                  bid be.Repl.Grant_log.lsn;
              walk p' b'
          | [], _ :: _ -> () (* unreachable: tail check above *)
        in
        walk (Repl.Grant_log.entries plog) (Repl.Grant_log.entries blog)
      end)
    (Repl.Group.backups g)
