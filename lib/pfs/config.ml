open Ccpfs_util

type t = {
  page : int;
  dirty_min : int;
  dirty_max : int;
  flush_period : float;
  extent_cache_limit : int;
  cleanup_batch : int;
  cleanup_period : float;
  extent_log : bool;
  flush_wire_page_only : bool;
  batch_k : int;
  batch_delay : float;
  replication : int;
}

(* CCPFS_BATCH=k turns RPC batching on everywhere a Config.default flows
   (experiments, the fuzzer's config_of) without touching call sites;
   unset or 0/1 leaves the transport unbatched. *)
let env_batch_k = Knob.env_int ~min:2 "CCPFS_BATCH" ~default:0

(* CCPFS_REPL=f replicates every lock server's grant log to f backups
   (DESIGN.md §16) wherever a Config.default flows; unset or 0 runs
   unreplicated (recovery falls back to the client gather). *)
let env_repl = Knob.env_int "CCPFS_REPL" ~default:0

let default =
  {
    page = Units.page;
    dirty_min = 256 * Units.mib;
    dirty_max = 4 * Units.gib;
    flush_period = 0.05;
    extent_cache_limit = 256 * 1024;
    cleanup_batch = 1024;
    cleanup_period = 0.1;
    extent_log = false;
    flush_wire_page_only = false;
    batch_k = env_batch_k;
    batch_delay = 0.;
    replication = env_repl;
  }

let with_dirty_limits ~dirty_min ~dirty_max t = { t with dirty_min; dirty_max }
let with_extent_cache ~limit t = { t with extent_cache_limit = limit }
let with_extent_log extent_log t = { t with extent_log }

let with_flush_wire_page_only flush_wire_page_only t =
  { t with flush_wire_page_only }

let with_batching ?(delay = default.batch_delay) ~k t =
  if k < 0 || delay < 0. then
    invalid_arg "Config.with_batching: k and delay must be non-negative";
  { t with batch_k = k; batch_delay = delay }

let with_replication f t =
  if f < 0 then invalid_arg "Config.with_replication: f must be >= 0";
  { t with replication = f }
