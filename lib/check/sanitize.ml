open Dessim
open Ccpfs

(* [CCPFS_CHECK], trimmed: "full"/"all" turns on both switches, unset,
   "", "0" or "off" neither, any other value the invariants only. *)
let invariants_on, determinism_on =
  let on, det =
    Ccpfs_util.Knob.env "CCPFS_CHECK" ~default:(false, false) (function
      | "full" | "all" -> Some (true, true)
      | "0" | "off" | "" -> Some (false, false)
      | _ -> Some (true, false))
  in
  (ref on, ref det)

let enable_invariants () = invariants_on := true

let enable_all () =
  invariants_on := true;
  determinism_on := true

let enabled () = !invariants_on
let determinism_enabled () = !determinism_on

let servers cl = List.init (Cluster.n_servers cl) (Cluster.lock_server cl)

let server_check = ref Invariant.check_server

let with_server_check check f =
  let saved = !server_check in
  server_check := check;
  Fun.protect f ~finally:(fun () -> server_check := saved)

let attach_server srv =
  Seqdlm.Lock_server.set_validator srv !server_check;
  Invariant.monitor_sn srv

let attach_cluster cl =
  List.iter attach_server (servers cl);
  for i = 0 to Cluster.n_clients cl - 1 do
    let c = Cluster.client cl i in
    let lock_client = Client.lock_client c and cache = Client.cache c in
    Client_cache.set_audit cache (fun ~rid ->
        Invariant.check_client_rid ~lock_client ~cache rid)
  done

(* Ownership exclusivity (DESIGN.md §15): live lock state for a resource
   may exist only on the server the shard map currently names as its
   owner.  Residual empty rstates (everything released or migrated away)
   are allowed — only grants or queued waiters on a non-owner are a
   violation. *)
let check_ownership cl =
  List.iteri
    (fun i srv ->
      List.iter
        (fun rid ->
          if
            (Seqdlm.Lock_server.granted_locks srv rid <> []
            || Seqdlm.Lock_server.queue_length srv rid > 0)
            && Cluster.server_of_rid cl rid <> i
          then
            Violation.fail ~inv:"shard-ownership"
              "ls%d holds live state for r%d owned by ls%d" i rid
              (Cluster.server_of_rid cl rid))
        (Seqdlm.Lock_server.resource_ids srv))
    (servers cl)

let check_cluster cl =
  Lcm_oracle.cross_check ();
  List.iter Invariant.check_server_full (servers cl);
  check_ownership cl;
  for i = 0 to Cluster.n_clients cl - 1 do
    let c = Cluster.client cl i in
    Invariant.check_client ~lock_client:(Client.lock_client c)
      ~cache:(Client.cache c)
  done;
  (* Replication sweep (DESIGN.md §16): log-prefix + primary-uniqueness
     over every group of a replicated cluster. *)
  for i = 0 to Cluster.n_servers cl - 1 do
    match Cluster.repl_group cl i with
    | Some g -> Invariant.check_repl_group g
    | None -> ()
  done

let run_cluster ?until cl =
  try Cluster.run ?until cl
  with Engine.Deadlock blocked ->
    raise
      (Deadlock.Deadlock_found (Deadlock.analyze ~servers:(servers cl) ~blocked))
