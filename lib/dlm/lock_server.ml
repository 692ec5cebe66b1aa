open Ccpfs_util
open Dessim
open Netsim

type stats = {
  mutable grants : int;
  mutable early_grants : int;
  mutable early_revocations : int;
  mutable revokes_sent : int;
  mutable upgrades : int;
  mutable downgrades : int;
  mutable releases : int;
  mutable expansions : int;
  mutable revocation_wait : float;
  mutable release_wait : float;
  mutable max_queue : int;
}

type lock = Sched.lock

(* Indexed per-resource state (the tentpole of the Fig. 17-20 hot path):

   - [granted] is a lock-id hash table: O(1) find/release/ack;
   - [granted_idx] is an interval index over each lock's range hull, so
     conflict checks visit only hull-overlapping grants instead of the
     whole set (candidates are still confirmed against exact ranges);
   - [q] is the FIFO wait queue and its scheduler ([Sched]). *)
type rstate = {
  rid : Types.resource_id;
  mutable next_sn : int;
  granted : (int, lock) Hashtbl.t; (* by lock id *)
  mutable granted_idx : lock Interval_index.t; (* by range hull *)
  by_client : int Sched.Client_tbl.t; (* grant count per client *)
  q : Sched.t;
  mutable total_grants : int;
      (* cumulative; drives DLM-Lustre's contention heuristic *)
}

(* Replicated-state-machine feed (lib/repl, DESIGN.md §16): every durable
   state transition of the lock table is published as an upsert/drop
   event.  The stream is a function of the server's deterministic
   execution, so shipping it to backups and replaying it reconstructs the
   table bit for bit.  Queued waiters are deliberately NOT replicated —
   their reply closures belong to this server's transport, and the fenced
   retry path resubmits them after a failover (same contract as the
   gather-based recovery). *)
type repl_event =
  | R_lock of {
      e_rid : Types.resource_id;
      e_lock_id : int;
      e_client : Types.client_id;
      e_mode : Mode.t;
      e_ranges : Interval.t list;
      e_sn : int;
      e_state : Lcm.lock_state;
    }  (* upsert: grant, reinstall, revoke-ack, downgrade *)
  | R_drop of { e_rid : Types.resource_id; e_lock_id : int }
      (* release, upgrade-merge, pseudo-lock drop *)
  | R_sn of { e_rid : Types.resource_id; e_next_sn : int }
      (* sequencer advance / floor restore *)
  | R_drop_resource of { e_rid : Types.resource_id }
      (* whole-resource drop: migration out *)

type trace_event =
  | T_request of Types.request
  | T_grant of Types.grant * [ `Normal | `Early ]
  | T_revoke of { t_rid : Types.resource_id; t_lock_id : int;
                  t_client : Types.client_id }
  | T_ack of { t_rid : Types.resource_id; t_lock_id : int }
  | T_release of { t_rid : Types.resource_id; t_lock_id : int }
  | T_downgrade of { t_rid : Types.resource_id; t_lock_id : int;
                     t_mode : Mode.t }
  | T_crash of { t_dropped_waiters : int }

(* Shard-awareness hooks (DESIGN.md §15), installed by the cluster once a
   routing table exists.  [sh_owned] answers against the authoritative
   map; [sh_epoch] stamps the bounces; [sh_forward_ctl] routes a
   fire-and-forget control message that arrived here after its resource
   migrated away (it cannot be bounced — nobody awaits a reply). *)
type sharding = {
  sh_owned : Types.resource_id -> bool;
  sh_epoch : unit -> int;
  sh_forward_ctl :
    Types.resource_id -> (Types.ctl_msg, unit) Rpc.endpoint option;
}

type t = {
  eng : Engine.t;
  params : Params.t;
  node : Node.t;
  name : string;
  policy : Policy.t;
  resources : (Types.resource_id, rstate) Hashtbl.t;
  clients : (Types.client_id, (Types.server_msg, unit) Rpc.endpoint) Hashtbl.t;
  mutable next_lock_id : int;
  mutable next_seq : int;
  stats : stats;
  mutable lock_ep : (Types.request, Types.lock_reply) Rpc.endpoint option;
  mutable ctl_ep : (Types.ctl_msg, unit) Rpc.endpoint option;
  mutable tracers : (float -> trace_event -> unit) list; (* in install order *)
  mutable validator : (t -> unit) option;
  mutable repl : (repl_event -> unit) option;
      (* grant-log feed; None = replication off *)
  q_depth : Obs.Metrics.histogram; (* queue length at each enqueue *)
  q_gauge : Obs.Metrics.gauge; (* live queued-waiter total, all resources *)
  mutable queued_total : int; (* mirror of the gauge (metrics may be off) *)
  mutable sharding : sharding option;
  frozen :
    ( Types.resource_id,
      (Types.request * (Types.lock_reply -> unit)) list ref )
    Hashtbl.t;
      (* migration intake freeze: arrivals for a freezing resource park
         here (newest first) until commit bounces or abort replays them *)
  mutable sn_reuse_every : int; (* injected sequencer fault: 0 = off *)
  mutable sn_issued : int;
  (* Sanitizer delta (DESIGN.md §7): what changed since the checker last
     took it, recorded only while a validator is attached. *)
  mutable d_changed : (Types.resource_id * int) list; (* newest first *)
  mutable d_queued : Types.resource_id list; (* newest first *)
  mutable d_len : int;
  mutable d_sweep : bool;
}

(* ------------------------------------------------------------------ *)
(* Granted-set operations                                              *)
(* ------------------------------------------------------------------ *)

let granted_add rs (g : lock) =
  Hashtbl.replace rs.granted g.id g;
  rs.granted_idx <- Interval_index.add rs.granted_idx g.hull ~id:g.id g;
  let n = try Sched.Client_tbl.find rs.by_client g.client with Not_found -> 0 in
  Sched.Client_tbl.replace rs.by_client g.client (n + 1)

let granted_remove rs (g : lock) =
  Hashtbl.remove rs.granted g.id;
  rs.granted_idx <- Interval_index.remove rs.granted_idx g.hull ~id:g.id;
  match Sched.Client_tbl.find rs.by_client g.client with
  | 1 -> Sched.Client_tbl.remove rs.by_client g.client
  | n -> Sched.Client_tbl.replace rs.by_client g.client (n - 1)

(* Grant-set fold in raw table order, no sort.  Safe because every
   caller is order-insensitive — set-shaped invariant checks, or a
   collection that is sorted before anything order-visible
   (granted_locks, migrate_out). *)
let granted_fold f rs acc =
  (Hashtbl.fold
     [@lint.allow
       "D001 grant-set fold; all callers are commutative set folds or \
        sort their result before it escapes"])
    (fun _ g acc -> f g acc)
    rs.granted acc
let find_lock rs lock_id = Hashtbl.find_opt rs.granted lock_id

(* Server-wide live queue depth: every enqueue and unlink adjusts it, so
   the counter (and its gauge, the rebalancer's load signal) is exact at
   all times. *)
let queued_add t delta =
  t.queued_total <- t.queued_total + delta;
  Obs.Metrics.set_gauge t.q_gauge (float_of_int t.queued_total)

(* Lock-lifecycle instants on the trace sink (enqueue -> grant -> revoke
   -> ack -> release), attributed to the courier process that triggered
   the transition.  Wait-time attribution is separate: see the complete
   events emitted by [grant_waiter]. *)
let obs_emit t sink ev =
  let ts = Engine.now t.eng in
  let tid = Engine.current_pid t.eng in
  let inst name args = Obs.Trace.instant sink ~ts ~tid ~cat:"lock" ~args name in
  let open Obs.Json in
  match ev with
  | T_request (r : Types.request) ->
      inst "lock.enqueue"
        [ ("rid", Int r.rid); ("client", Int r.client);
          ("mode", Str (Mode.to_string r.mode)) ]
  | T_grant (g, early) ->
      inst "lock.grant"
        [ ("rid", Int g.Types.rid); ("lock_id", Int g.Types.lock_id);
          ("client", Int g.Types.client);
          ("mode", Str (Mode.to_string g.Types.mode)); ("sn", Int g.Types.sn);
          ("early", Bool (early = `Early)) ]
  | T_revoke { t_rid; t_lock_id; t_client } ->
      inst "lock.revoke"
        [ ("rid", Int t_rid); ("lock_id", Int t_lock_id);
          ("client", Int t_client) ]
  | T_ack { t_rid; t_lock_id } ->
      inst "lock.ack" [ ("rid", Int t_rid); ("lock_id", Int t_lock_id) ]
  | T_release { t_rid; t_lock_id } ->
      inst "lock.release" [ ("rid", Int t_rid); ("lock_id", Int t_lock_id) ]
  | T_downgrade { t_rid; t_lock_id; t_mode } ->
      inst "lock.downgrade"
        [ ("rid", Int t_rid); ("lock_id", Int t_lock_id);
          ("mode", Str (Mode.to_string t_mode)) ]
  | T_crash { t_dropped_waiters } ->
      inst "lock.crash" [ ("dropped_waiters", Int t_dropped_waiters) ]

let trace t ev =
  List.iter (fun f -> f (Engine.now t.eng) ev) t.tracers;
  let sink = Engine.trace_sink t.eng in
  if Obs.Trace.enabled sink then obs_emit t sink ev

(* The sanitizer's post-transition hook: runs after every externally
   triggered state change (request, control message, sync), once the
   queue passes have settled. *)
let validate t =
  match t.validator with Some f -> f t | None -> ()

(* Delta recording for the incremental sanitizer.  An unchecked server
   pays one branch per record site.  Once the wholesale flag is up the
   lists are moot, and a delta nobody takes collapses into that flag
   instead of growing without bound. *)
let delta_cap = 4096

let note_sweep t =
  t.d_changed <- [];
  t.d_queued <- [];
  t.d_len <- 0;
  t.d_sweep <- true

let recording t =
  match t.validator with
  | None -> false
  | Some _ ->
      if t.d_len >= delta_cap then note_sweep t;
      not t.d_sweep

let note_lock t rid lock_id =
  if recording t then begin
    t.d_changed <- (rid, lock_id) :: t.d_changed;
    t.d_len <- t.d_len + 1
  end

let note_queued t rid =
  if recording t then begin
    t.d_queued <- rid :: t.d_queued;
    t.d_len <- t.d_len + 1
  end

let repl_emit t ev = match t.repl with Some f -> f ev | None -> ()

let repl_lock t rid (g : lock) =
  repl_emit t
    (R_lock
       { e_rid = rid; e_lock_id = g.id; e_client = g.client; e_mode = g.mode;
         e_ranges = g.ranges; e_sn = g.sn; e_state = g.state })

let fresh_stats () =
  {
    grants = 0; early_grants = 0; early_revocations = 0; revokes_sent = 0;
    upgrades = 0; downgrades = 0; releases = 0; expansions = 0;
    revocation_wait = 0.; release_wait = 0.; max_queue = 0;
  }

let rstate t rid =
  match Hashtbl.find_opt t.resources rid with
  | Some rs -> rs
  | None ->
      let rs =
        {
          rid;
          next_sn = 1;
          granted = Hashtbl.create 16;
          granted_idx = Interval_index.empty;
          by_client = Sched.Client_tbl.create 16;
          q = Sched.create ();
          total_grants = 0;
        }
      in
      Hashtbl.add t.resources rid rs;
      rs

(* Compute the (possibly expanded) ranges for a grant and whether any
   expansion happened.  Only singleton-range requests expand, only the
   end of the range grows (§II-A), and the expansion stops at the first
   conflicting granted lock or queued request above it. *)
let expanded_ranges t rs (w : Sched.waiter) =
  match (t.policy.Policy.expansion, w.req.ranges) with
  | Policy.No_expansion, ranges -> (ranges, false)
  | _, ([] | _ :: _ :: _) -> (w.req.ranges, false)
  | (Policy.Greedy | Policy.Capped _), [ iv ] ->
      let bound = ref Interval.eof in
      let consider lo = if lo >= iv.Interval.hi && lo < !bound then bound := lo in
      (* Grant contribution: the index is ordered by hull start, so the
         first incompatible grant starting at or above the request's end
         is the lowest one. *)
      (match
         Interval_index.first_from rs.granted_idx iv.Interval.hi
           (fun _ _ (g : lock) ->
             not
               (Lcm.compatible ~req:w.eff_mode ~granted:g.mode ~state:g.state))
       with
      | Some (hull, _, _) -> consider hull.Interval.lo
      | None -> ());
      (* Queue contribution: the same bound a full queue scan computes,
         from the scheduler's per-mode index. *)
      Option.iter consider (Sched.first_queued_from rs.q w.eff_mode iv.Interval.hi);
      (match t.policy.Policy.expansion with
      | Policy.Capped { max_expand; lock_threshold } ->
          (* Lustre's contention heuristic: once a resource has seen more
             than [lock_threshold] grants, stop expanding to EOF and cap
             growth at [max_expand] past the requested end. *)
          if rs.total_grants > lock_threshold then
            consider (iv.Interval.hi + max_expand)
      | Policy.Greedy | Policy.No_expansion -> ());
      let hi = !bound in
      if hi > iv.Interval.hi then
        ([ Interval.v ~lo:iv.Interval.lo ~hi ], true)
      else ([ iv ], false)

let send_revoke t rs ~pos (g : lock) =
  Sched.record rs.q ~pos g.hull g.client;
  g.revoke_sent <- true;
  t.stats.revokes_sent <- t.stats.revokes_sent + 1;
  trace t (T_revoke { t_rid = rs.rid; t_lock_id = g.id; t_client = g.client });
  match Hashtbl.find_opt t.clients g.client with
  | Some ep ->
      Rpc.notify ep ~src:t.node (Types.Revoke { rid = rs.rid; lock_id = g.id })
  | None ->
      invalid_arg
        (Printf.sprintf "%s: revoke for unregistered client %d" t.name g.client)

let grant_waiter t rs (w : Sched.waiter) ~own ~early =
  (* Merge away the holder's own conflicting locks (lock upgrading). *)
  List.iter (fun (o : lock) -> granted_remove rs o) own;
  rs.total_grants <- rs.total_grants + 1;
  let ranges, expanded = expanded_ranges t rs w in
  let ranges =
    Types.normalize_ranges (List.concat_map (fun (o : lock) -> o.ranges) own @ ranges)
  in
  let mode = w.eff_mode in
  let sn =
    if not (Mode.is_write mode) then rs.next_sn
    else begin
      t.sn_issued <- t.sn_issued + 1;
      if
        t.sn_reuse_every > 0
        && t.sn_issued mod t.sn_reuse_every = 0
        && rs.next_sn > 1
      then (* injected sequencer fault: the previous SN is reissued *)
        rs.next_sn - 1
      else begin
        let sn = rs.next_sn in
        rs.next_sn <- rs.next_sn + 1;
        sn
      end
    end
  in
  let conflicts_queued = Sched.conflicts_queued rs.q mode ranges in
  let early_revoked =
    t.policy.Policy.early_revocation && (not expanded) && conflicts_queued
    && not w.internal
  in
  let state = if early_revoked then Lcm.Canceling else Lcm.Granted in
  t.next_lock_id <- t.next_lock_id + 1;
  t.next_seq <- t.next_seq + 1;
  let lock : lock =
    {
      id = t.next_lock_id;
      client = w.req.client;
      mode;
      ranges;
      hull = Types.ranges_hull ranges;
      sn;
      state;
      revoke_sent = early_revoked;
      seq = t.next_seq;
    }
  in
  granted_add rs lock;
  (* The new hull covers the merged-away locks' hulls too. *)
  Sched.record rs.q ~pos:w.wseq lock.hull lock.client;
  note_lock t rs.rid lock.id;
  let s = t.stats in
  s.grants <- s.grants + 1;
  if expanded then s.expansions <- s.expansions + 1;
  if early_revoked then s.early_revocations <- s.early_revocations + 1;
  if early then s.early_grants <- s.early_grants + 1;
  if not (Mode.equal mode w.req.mode) then s.upgrades <- s.upgrades + 1;
  let now = Engine.now t.eng in
  (match w.acks_time with
  | Some ta ->
      s.revocation_wait <- s.revocation_wait +. (ta -. w.enq_time);
      s.release_wait <- s.release_wait +. (now -. ta)
  | None -> s.revocation_wait <- s.revocation_wait +. (now -. w.enq_time));
  (* Fig. 17 wait attribution as trace spans, mirroring the stats update
     above term for term: ① [lock.wait.revocation] runs from enqueue
     until the conflict set is all-CANCELING, ② [lock.wait.release] from
     there to the grant — so summing span durations in a trace file
     reproduces the printed breakdown exactly. *)
  let sink = Engine.trace_sink t.eng in
  if Obs.Trace.enabled sink then begin
    let wtid = 900_000 + w.req.client in
    let args =
      [ ("rid", Obs.Json.Int rs.rid); ("client", Obs.Json.Int w.req.client) ]
    in
    match w.acks_time with
    | Some ta ->
        Obs.Trace.complete sink ~ts:w.enq_time ~dur:(ta -. w.enq_time)
          ~tid:wtid ~cat:"lock" ~args "lock.wait.revocation";
        Obs.Trace.complete sink ~ts:ta ~dur:(now -. ta) ~tid:wtid ~cat:"lock"
          ~args "lock.wait.release"
    | None ->
        Obs.Trace.complete sink ~ts:w.enq_time ~dur:(now -. w.enq_time)
          ~tid:wtid ~cat:"lock" ~args "lock.wait.revocation"
  end;
  let g =
    {
      Types.lock_id = lock.id;
      rid = rs.rid;
      client = w.req.client;
      mode;
      ranges;
      sn;
      state;
      replaces = List.map (fun (o : lock) -> o.id) own;
    }
  in
  trace t (T_grant (g, if early then `Early else `Normal));
  (* Replication feed, in the same simulated event as the grant reply:
     merged-away locks drop, the new lock upserts, and a write grant
     publishes the advanced sequencer so a replaying backup reproduces
     the SN stream exactly (including an injected reuse, which leaves
     [next_sn] unmoved). *)
  if Option.is_some t.repl then begin
    List.iter (fun (o : lock) -> repl_emit t (R_drop { e_rid = rs.rid; e_lock_id = o.id })) own;
    repl_lock t rs.rid lock;
    if Mode.is_write mode then
      repl_emit t (R_sn { e_rid = rs.rid; e_next_sn = rs.next_sn })
  end;
  w.reply (Types.Granted g)

let process t rs =
  Sched.process rs.q
    {
      Sched.convert = t.policy.Policy.auto_convert;
      granted = (fun () -> rs.granted_idx);
      by_client = rs.by_client;
      now = (fun () -> Engine.now t.eng);
      grant =
        (fun w ~own ~early ->
          queued_add t (-1);
          grant_waiter t rs w ~own ~early);
      revoke = (fun w g -> send_revoke t rs ~pos:w.wseq g);
    }

let enqueue t rs (req : Types.request) ~reply ~internal =
  Sched.enqueue rs.q req ~reply ~internal ~now:(Engine.now t.eng);
  queued_add t 1;
  note_queued t req.rid

let submit_one t (req : Types.request) ~reply =
  trace t (T_request req);
  let rs = rstate t req.rid in
  enqueue t rs req ~reply ~internal:false;
  let q = Sched.length rs.q in
  if q > t.stats.max_queue then t.stats.max_queue <- q;
  Obs.Metrics.observe t.q_depth (float_of_int q);
  process t rs

(* Ownership gate of the sharded namespace (DESIGN.md §15).  A request
   for a frozen resource parks (the map still names this server, so a
   bounce would just come straight back); a request for a resource this
   server does not own is bounced with the current map epoch, without
   ever creating resource state here. *)
let admit_one t (req : Types.request) ~reply =
  match Hashtbl.find_opt t.frozen req.rid with
  | Some parked -> parked := (req, reply) :: !parked
  | None -> (
      match t.sharding with
      | Some sh when not (sh.sh_owned req.rid) ->
          reply (Types.Stale_owner { epoch = sh.sh_epoch () })
      | _ -> submit_one t req ~reply)

let handle_request t (req : Types.request) ~reply =
  admit_one t req ~reply;
  validate t

(* Direct in-process entry (tests, benchmarks, the colocated data
   server): no shard gate, replies are plain grants. *)
let grant_only t (req : Types.request) reply : Types.lock_reply -> unit =
  function
  | Types.Granted g -> reply g
  | Types.Stale_owner { epoch } ->
      invalid_arg
        (Printf.sprintf "%s: direct submit bounced (rid %d, map epoch %d)"
           t.name req.Types.rid epoch)

let ctl_rid : Types.ctl_msg -> Types.resource_id = function
  | Types.Revoke_ack { rid; _ }
  | Types.Downgrade { rid; _ }
  | Types.Release { rid; _ } ->
      rid

let handle_ctl t (msg : Types.ctl_msg) ~reply =
  match t.sharding with
  | Some sh when not (sh.sh_owned (ctl_rid msg)) ->
      (* A control message for a resource that migrated away: route it on
         to the current owner (one extra hop), never touch local state —
         processing it here would resurrect an rstate on a non-owner.
         With no known owner endpoint the message is dropped, which is
         safe: every ctl handler no-ops on unknown lock ids. *)
      (match sh.sh_forward_ctl (ctl_rid msg) with
      | Some ep when Rpc.name ep <> t.name ^ ".ctl" ->
          Rpc.notify ep ~src:t.node msg
      | Some _ | None -> ());
      reply ()
  | _ ->
  (* A control message changes one lock: record the change, apply it and
     run the queue. *)
  let change rid lock_id ok f =
    let rs = rstate t rid in
    match find_lock rs lock_id with
    | Some g when ok g ->
        Sched.record rs.q ~pos:max_int g.hull g.client;
        f rs g;
        process t rs
    | Some _ | None -> ()
  in
  (match msg with
  | Types.Revoke_ack { rid; lock_id } ->
      trace t (T_ack { t_rid = rid; t_lock_id = lock_id });
      change rid lock_id
        (fun g -> g.state = Lcm.Granted)
        (fun _ g ->
          g.state <- Lcm.Canceling;
          note_lock t rid lock_id;
          repl_lock t rid g)
  | Types.Downgrade { rid; lock_id; mode } ->
      trace t (T_downgrade { t_rid = rid; t_lock_id = lock_id; t_mode = mode });
      change rid lock_id
        (fun _ -> true)
        (fun _ g ->
          g.mode <- mode;
          note_lock t rid lock_id;
          t.stats.downgrades <- t.stats.downgrades + 1;
          repl_lock t rid g)
  | Types.Release { rid; lock_id } ->
      trace t (T_release { t_rid = rid; t_lock_id = lock_id });
      change rid lock_id
        (fun _ -> true)
        (fun rs g ->
          granted_remove rs g;
          t.stats.releases <- t.stats.releases + 1;
          repl_emit t (R_drop { e_rid = rid; e_lock_id = lock_id })));
  validate t;
  reply ()

let submit t req ~on_grant =
  submit_one t req ~reply:(grant_only t req on_grant);
  validate t

let control t msg = handle_ctl t msg ~reply:(fun () -> ())

let create eng params ~node ~name ~policy =
  let t =
    {
      eng; params; node; name; policy;
      resources = Hashtbl.create 64;
      clients = Hashtbl.create 64;
      next_lock_id = 0;
      next_seq = 0;
      stats = fresh_stats ();
      lock_ep = None;
      ctl_ep = None;
      tracers = [];
      validator = None;
      repl = None;
      q_depth =
        Obs.Metrics.histogram (Engine.metrics eng)
          (Printf.sprintf "dlm.%s.queue_depth" name);
      q_gauge =
        Obs.Metrics.gauge (Engine.metrics eng)
          (Printf.sprintf "dlm.%s.queue" name);
      queued_total = 0;
      sharding = None;
      frozen = Hashtbl.create 4;
      sn_reuse_every = 0;
      sn_issued = 0;
      d_changed = [];
      d_queued = [];
      d_len = 0;
      d_sweep = false;
    }
  in
  t.lock_ep <-
    Some
      (Rpc.endpoint eng params ~node ~name:(name ^ ".lock")
         ~handler:(fun req ~reply -> handle_request t req ~reply));
  t.ctl_ep <-
    Some
      (Rpc.endpoint eng params ~node ~name:(name ^ ".ctl")
         ~handler:(fun msg ~reply -> handle_ctl t msg ~reply));
  t

let lock_endpoint t = Option.get t.lock_ep
let ctl_endpoint t = Option.get t.ctl_ep
let register_client t cid ep = Hashtbl.replace t.clients cid ep

let min_unreleased_write_sn t rid iv =
  match Hashtbl.find_opt t.resources rid with
  | None -> None
  | Some rs ->
      (* Hull-overlap narrows the scan; the exact range check decides. *)
      Interval_index.fold_overlapping rs.granted_idx iv ~init:None
        ~f:(fun acc _hull _id (g : lock) ->
          if Mode.is_write g.mode && Types.ranges_overlap [ iv ] g.ranges then
            match acc with
            | None -> Some g.sn
            | Some m -> Some (min m g.sn)
          else acc)

let sync_resource t rid ~on_behalf ~reply =
  let rs = rstate t rid in
  let req =
    {
      Types.client = on_behalf;
      rid;
      mode = Mode.PR;
      ranges = [ Interval.to_eof ~lo:0 ];
    }
  in
  let w_reply : Types.lock_reply -> unit = function
    | Types.Stale_owner _ ->
        (* Internal waiters are never bounced: a migration with one
           queued aborts instead ([migrate_out]). *)
        invalid_arg (t.name ^ ": internal sync waiter bounced")
    | Types.Granted g ->
        (* The pseudo-lock served its purpose the instant it is grantable:
           every conflicting write lock has been released.  Drop it. *)
        (match find_lock rs g.lock_id with
        | Some l ->
            Sched.reset rs.q;
            granted_remove rs l;
            repl_emit t (R_drop { e_rid = rid; e_lock_id = l.id })
        | None -> ());
        (* Re-enters the scheduler from inside the granting pass. *)
        process t rs;
        reply ()
  in
  enqueue t rs req ~reply:w_reply ~internal:true;
  process t rs;
  validate t

let sorted_resources t = Det_tbl.bindings_sorted ~cmp:Int.compare t.resources

let crash t =
  List.iter
    (fun (rid, rs) ->
      if Sched.length rs.q > 0 then
        invalid_arg
          (Printf.sprintf "%s: crash with %d queued requests on resource %d"
             t.name (Sched.length rs.q) rid))
    (sorted_resources t);
  if Hashtbl.length t.frozen > 0 then
    invalid_arg (t.name ^ ": crash during a resource migration");
  note_sweep t;
  Hashtbl.reset t.resources;
  queued_add t (- t.queued_total)

let crash_online t =
  (* Unlike [crash], queued waiters are allowed — and lost with the rest
     of the table.  Safe only when every waiter's caller retransmits (the
     fenced retry path): its resubmission re-enqueues the request on the
     recovered server and re-triggers any revocations it needs.  Parked
     migration intake is lost the same way. *)
  let dropped =
    List.fold_left
      (fun acc (_, rs) -> acc + Sched.length rs.q)
      0 (sorted_resources t)
    + Det_tbl.fold_sorted ~cmp:Int.compare
        (fun _ parked acc -> acc + List.length !parked)
        t.frozen 0
  in
  note_sweep t;
  Hashtbl.reset t.resources;
  Hashtbl.reset t.frozen;
  queued_add t (- t.queued_total);
  trace t (T_crash { t_dropped_waiters = dropped });
  dropped

let reinstall t ~client ~locks =
  List.iter
    (fun (rid, lock_id, mode, ranges, sn, state) ->
      let rs = rstate t rid in
      Sched.reset rs.q;
      t.next_seq <- t.next_seq + 1;
      let lock : lock =
        {
          id = lock_id;
          client;
          mode;
          ranges;
          hull = Types.ranges_hull ranges;
          sn;
          state;
          (* A canceling lock's holder is already flushing; no callback
             must ever be sent for it again. *)
          revoke_sent = (state = Lcm.Canceling);
          seq = t.next_seq;
        }
      in
      granted_add rs lock;
      note_lock t rid lock_id;
      if lock_id >= t.next_lock_id then t.next_lock_id <- lock_id + 1;
      if sn >= rs.next_sn then rs.next_sn <- sn + 1;
      (* Reinstalls feed the log too: a recovered (or adopting) primary
         re-seeds its backups under the new epoch, so log continuity
         survives consecutive failovers. *)
      if Option.is_some t.repl then begin
        repl_lock t rid lock;
        repl_emit t (R_sn { e_rid = rid; e_next_sn = rs.next_sn })
      end)
    locks

let restore_sn_floor t rid sn =
  let rs = rstate t rid in
  if sn >= rs.next_sn then begin
    rs.next_sn <- sn + 1;
    repl_emit t (R_sn { e_rid = rid; e_next_sn = rs.next_sn })
  end

(* ------------------------------------------------------------------ *)
(* Sharded namespace: ownership gate and resource migration            *)
(* ------------------------------------------------------------------ *)

let set_sharding t ~owned ~epoch ~forward_ctl =
  t.sharding <-
    Some { sh_owned = owned; sh_epoch = epoch; sh_forward_ctl = forward_ctl }

type migration_state = {
  mig_rid : Types.resource_id;
  mig_next_sn : int;
  mig_bounced : int;
  mig_locks :
    (Types.client_id
    * (Types.resource_id * int * Mode.t * Interval.t list * int
      * Lcm.lock_state))
    list; (* sorted by lock id *)
  mig_clients : (Types.client_id * (Types.server_msg, unit) Rpc.endpoint) list;
      (* revoke-callback registrations the new owner needs, sorted *)
}

let freeze t rid =
  if Hashtbl.mem t.frozen rid then
    invalid_arg (Printf.sprintf "%s: resource %d already freezing" t.name rid);
  Hashtbl.add t.frozen rid (ref [])

let cancel_freeze t rid =
  match Hashtbl.find_opt t.frozen rid with
  | None -> ()
  | Some parked ->
      Hashtbl.remove t.frozen rid;
      (* Replay the parked intake in arrival order: this server still
         owns the resource, so the requests queue normally. *)
      List.iter (fun (req, reply) -> admit_one t req ~reply) (List.rev !parked);
      validate t

let is_frozen t rid = Hashtbl.mem t.frozen rid

let has_internal rs =
  List.exists (fun (w : Sched.waiter) -> w.internal) (Sched.to_list rs.q)

let can_migrate t rid =
  match Hashtbl.find_opt t.resources rid with
  | None -> true
  | Some rs -> not (has_internal rs)

let migrate_out t rid ~epoch =
  let parked =
    match Hashtbl.find_opt t.frozen rid with
    | Some p -> p
    | None -> invalid_arg (t.name ^ ": migrate_out without freeze")
  in
  match Hashtbl.find_opt t.resources rid with
  | Some rs when has_internal rs ->
      (* A colocated force-sync holds an internal pseudo-request whose
         reply closure closes over this server's state — it cannot move.
         Abort; the caller cancels the freeze and retries later. *)
      None
  | rs_opt ->
      Hashtbl.remove t.frozen rid;
      let bounce reply = reply (Types.Stale_owner { epoch }) in
      let bounced = ref 0 in
      let st =
        match rs_opt with
        | None ->
            { mig_rid = rid; mig_next_sn = 1; mig_bounced = 0; mig_locks = [];
              mig_clients = [] }
        | Some rs ->
            (* Queued waiters cannot be transferred — their reply closures
               belong to this server's transport.  Bounce them with the
               post-migration epoch: each client refreshes its map and
               resubmits at the new owner (FIFO order across a migration
               is intentionally relaxed, as it is across a failover). *)
            let waiters = Sched.to_list rs.q in
            bounced := List.length waiters;
            queued_add t (- !bounced);
            List.iter (fun (w : Sched.waiter) -> bounce w.reply) waiters;
            let locks =
              granted_fold (fun g acc -> g :: acc) rs []
              |> List.sort (fun (a : lock) b -> Int.compare a.id b.id)
            in
            let cids =
              List.sort_uniq Int.compare
                (List.map (fun (g : lock) -> g.client) locks)
            in
            Hashtbl.remove t.resources rid;
            {
              mig_rid = rid;
              mig_next_sn = rs.next_sn;
              mig_bounced = 0;
              mig_locks =
                List.map
                  (fun (g : lock) ->
                    (g.client, (rid, g.id, g.mode, g.ranges, g.sn, g.state)))
                  locks;
              mig_clients =
                List.filter_map
                  (fun c ->
                    match Hashtbl.find_opt t.clients c with
                    | Some ep -> Some (c, ep)
                    | None -> None)
                  cids;
            }
      in
      List.iter (fun (_req, reply) -> bounce reply) (List.rev !parked);
      bounced := !bounced + List.length !parked;
      repl_emit t (R_drop_resource { e_rid = rid });
      note_sweep t;
      validate t;
      Some { st with mig_bounced = !bounced }

let adopt t (st : migration_state) =
  List.iter (fun (c, ep) -> register_client t c ep) st.mig_clients;
  List.iter (fun (c, l) -> reinstall t ~client:c ~locks:[ l ]) st.mig_locks;
  restore_sn_floor t st.mig_rid (st.mig_next_sn - 1)

let total_queued t = t.queued_total

let hottest_resource t =
  List.fold_left
    (fun acc (rid, rs) ->
      let q = Sched.length rs.q in
      match acc with
      | Some (_, best) when best >= q -> acc
      | _ -> if q > 0 then Some (rid, q) else acc)
    None (sorted_resources t)

let inject_sn_reuse t ~every =
  if every <= 0 then invalid_arg (t.name ^ ": inject_sn_reuse: every <= 0");
  t.sn_reuse_every <- every

type lock_view = {
  v_lock_id : int;
  v_client : Types.client_id;
  v_mode : Mode.t;
  v_ranges : Interval.t list;
  v_sn : int;
  v_state : Lcm.lock_state;
}

let view_of_lock (g : lock) =
  {
    v_lock_id = g.id;
    v_client = g.client;
    v_mode = g.mode;
    v_ranges = g.ranges;
    v_sn = g.sn;
    v_state = g.state;
  }

let by_lock_id a b = Int.compare a.v_lock_id b.v_lock_id

let granted_locks t rid =
  match Hashtbl.find_opt t.resources rid with
  | None -> []
  | Some rs ->
      granted_fold (fun g acc -> view_of_lock g :: acc) rs []
      |> List.sort by_lock_id

let granted_lock t rid lock_id =
  match Hashtbl.find_opt t.resources rid with
  | None -> None
  | Some rs -> Option.map view_of_lock (find_lock rs lock_id)

let granted_overlapping t rid ranges =
  match Hashtbl.find_opt t.resources rid with
  | None -> []
  | Some rs ->
      Sched.overlapping rs.granted_idx ranges ~keep:(fun (g : lock) ->
          Types.ranges_overlap ranges g.ranges)
      |> List.map view_of_lock |> List.sort by_lock_id

type waiter_view = Sched.waiter

let waiting_view t rid =
  match Hashtbl.find_opt t.resources rid with
  | None -> []
  | Some rs -> Sched.to_list rs.q

let waiting_tail t rid n =
  match Hashtbl.find_opt t.resources rid with
  | None -> []
  | Some rs -> Sched.last_values rs.q n

let resource_ids t = Det_tbl.sorted_keys ~cmp:Int.compare t.resources

let queue_length t rid =
  match Hashtbl.find_opt t.resources rid with
  | None -> 0
  | Some rs -> Sched.length rs.q

(* A read must not create state: an unknown resource reports the value a
   fresh one would start from. *)
let next_sn t rid =
  match Hashtbl.find_opt t.resources rid with
  | Some rs -> rs.next_sn
  | None -> 1
let stats t = t.stats
let policy t = t.policy
let node t = t.node
let name t = t.name

let add_tracer t f = t.tracers <- t.tracers @ [ f ]

(* Nothing was recorded before the attach, so the first delta says
   "sweep everything". *)
let set_validator t f =
  t.validator <- Some f;
  note_sweep t

let clear_validator t =
  t.validator <- None;
  note_sweep t

type delta = {
  changed : (Types.resource_id * int) list;
  queued : Types.resource_id list;
  sweep : bool;
}

let take_delta t =
  match t.validator with
  | None -> None
  | Some _ ->
      let d =
        {
          changed = List.rev t.d_changed;
          queued = List.rev t.d_queued;
          sweep = t.d_sweep;
        }
      in
      t.d_changed <- [];
      t.d_queued <- [];
      t.d_len <- 0;
      t.d_sweep <- false;
      Some d
let set_repl_hook t f = t.repl <- Some f
let clear_repl_hook t = t.repl <- None

let pp_trace_event ppf = function
  | T_request r -> Format.fprintf ppf "request  %a" Types.pp_request r
  | T_grant (g, `Normal) -> Format.fprintf ppf "grant    %a" Types.pp_grant g
  | T_grant (g, `Early) ->
      Format.fprintf ppf "grant    %a  <- early grant (over canceling NBW)"
        Types.pp_grant g
  | T_revoke { t_rid; t_lock_id; t_client } ->
      Format.fprintf ppf "revoke   r%d#%d -> client %d" t_rid t_lock_id t_client
  | T_ack { t_rid; t_lock_id } ->
      Format.fprintf ppf "ack      r%d#%d now CANCELING" t_rid t_lock_id
  | T_release { t_rid; t_lock_id } ->
      Format.fprintf ppf "release  r%d#%d" t_rid t_lock_id
  | T_downgrade { t_rid; t_lock_id; t_mode } ->
      Format.fprintf ppf "downgrade r%d#%d -> %s" t_rid t_lock_id
        (Mode.to_string t_mode)
  | T_crash { t_dropped_waiters } ->
      Format.fprintf ppf "crash    lock table lost (%d queued waiter(s) \
                          dropped)" t_dropped_waiters

let check_invariants t =
  List.iter
    (fun (_, rs) ->
      Sched.check_invariants rs.q;
      Interval_index.check_invariants rs.granted_idx;
      (* The hash table and the interval index must agree entry for
         entry, each index entry keyed by the lock's current hull. *)
      assert (Hashtbl.length rs.granted = Interval_index.cardinal rs.granted_idx);
      Interval_index.iter
        (fun hull id (g : lock) ->
          (match find_lock rs id with
          | Some g' -> assert (g' == g)
          | None -> assert false);
          assert (Interval.equal hull g.hull))
        rs.granted_idx;
      let granted = granted_fold (fun g acc -> g :: acc) rs [] in
      (* Write-lock SNs unique per resource. *)
      let sns =
        List.filter_map
          (fun (g : lock) -> if Mode.is_write g.mode then Some g.sn else None)
          granted
      in
      assert (List.length sns = List.length (List.sort_uniq Int.compare sns));
      List.iter (fun sn -> assert (sn < rs.next_sn)) sns;
      (* Overlapping granted locks must be compatible in at least one
         direction given their states. *)
      let rec pairs = function
        | [] -> ()
        | (g : lock) :: rest ->
            List.iter
              (fun (h : lock) ->
                if Types.ranges_overlap g.ranges h.ranges then
                  assert (
                    Lcm.compatible ~req:g.mode ~granted:h.mode ~state:h.state
                    || Lcm.compatible ~req:h.mode ~granted:g.mode ~state:g.state))
              rest;
            pairs rest
      in
      pairs granted)
    (sorted_resources t);
  (* The live server-wide queue counter (the rebalancer's load signal)
     must equal a recomputation from the per-resource queues. *)
  let queued =
    List.fold_left
      (fun acc (_, rs) -> acc + Sched.length rs.q)
      0 (sorted_resources t)
  in
  assert (queued = t.queued_total)
