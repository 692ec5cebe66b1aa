(** Cluster-scale wall-clock benchmark: Fig. 18-style shared-file PW
    contention at 128/256/512 simulated clients, measuring the
    simulator's own throughput (real elapsed seconds, events/sec, lock
    requests/sec) and appending one row per point to [BENCH_scale.json]
    (schema [ccpfs.scale/1]).  [CCPFS_SCALE_CLIENTS] (comma-separated)
    overrides the client counts — CI's scale-smoke job runs "1024". *)

val run : scale:float -> unit
