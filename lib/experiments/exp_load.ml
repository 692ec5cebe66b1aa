open Ccpfs_util
open Ccpfs

(* Open-loop sustained-traffic benchmark: the offered-load-vs-latency
   curve the closed-loop experiments cannot draw.

   Every figure reproduction in this repo is closed-loop — each client
   issues its next write only after the previous one returns, so the
   offered load self-throttles exactly when the system congests, and
   latency past saturation is unobservable.  This experiment drives the
   same shared-file PW-contention workload (the exp_scale shape) through
   lib/load instead: a seeded arrival process (Poisson by default)
   schedules request arrival times up front, a bounded-backlog driver
   injects them regardless of completions, and a sweep controller walks
   offered rates across a grid around the measured closed-loop capacity
   to locate the knee — the first rate whose sojourn p99 blows past the
   SLO or whose achieved rate falls below 95% of offered.

   One row per rate point lands in BENCH_load.json (schema ccpfs.load/1).
   Rows carry no wall-clock fields, so a determinism double-run must
   reproduce them bit-identically.

   Knobs:
     CCPFS_LOAD_CLIENTS   cluster size (default 128)
     CCPFS_LOAD_REQUESTS  arrivals per rate point (default 8 x clients, scaled)
     CCPFS_LOAD_GRID      rate multipliers of measured capacity
                          (default "0.25,0.5,0.75,0.9,1.1,1.4")
     CCPFS_LOAD_RATES     absolute rates in req/s (overrides GRID)
     CCPFS_LOAD_PROCESS   poisson | constant | mmpp (default poisson)
     CCPFS_LOAD_SLO_MS    sojourn p99 SLO; default auto = 3 x closed-loop p99
     CCPFS_LOAD_CAP       in-flight cap before shedding (default 4 x clients)
     CCPFS_LOAD_CHURN     1 = clients leave/rejoin mid-sweep (default 1)
     CCPFS_LOAD_BISECT    extra bisection points at the knee (default 0)
     CCPFS_BATCH          RPC batching, as everywhere else *)

let xfer = 64 * Units.kib
let seed_base = 0x10ad

let clients () = Knob.env_int "CCPFS_LOAD_CLIENTS" ~default:128
let default_grid = [ 0.25; 0.5; 0.75; 0.9; 1.1; 1.4 ]

let churn_enabled () =
  Knob.env "CCPFS_LOAD_CHURN" (fun s -> Some (s <> "0")) ~default:true

let process_name () =
  Knob.env "CCPFS_LOAD_PROCESS" ~default:"poisson" (function
    | "" -> None
    | s -> Some (String.lowercase_ascii s))

(* The workload body: the exp_scale contention shape — every request is
   a whole-range PW write to the one shared file. *)
let prepare c = (c, Client.open_file c ~create:true "/load")
let request (c, f) _k =
  Client.write ~mode:Seqdlm.Mode.PW ~lock_whole_range:true c f ~off:0 ~len:xfer;
  xfer

(* Closed-loop calibration: the same workload driven the closed way
   (next write only after the previous returns).  Yields the system's
   closed-loop capacity (completions/sec over the PIO span) — the
   anchor the rate grid multiplies — and the closed-loop per-write
   latency that both seeds the auto-SLO and feeds the low-load
   differential test. *)
type calibration = { cap_rps : float; closed_lat : Stats.t }

let calibrate ~n_clients ~writes_each =
  let p =
    Harness.measure ~name:"exp_load.calibrate" ~policy:Seqdlm.Policy.seqdlm
      ~servers:1 ~clients:n_clients (fun cl spawn ->
        let eng = Cluster.engine cl in
        let lat = Stats.create () in
        let root_rng = Det_random.create ~seed:seed_base in
        for i = 0 to n_clients - 1 do
          let rng = Det_random.split root_rng in
          spawn i (Printf.sprintf "cal%d" i) (fun c ->
              let ctx = prepare c in
              for k = 1 to writes_each do
                (* same desynchronising think jitter as exp_scale;
                   excluded from the measured latency *)
                Dessim.Engine.sleep eng (Det_random.float rng 50e-6);
                let t0 = Cluster.now cl in
                ignore (request ctx k);
                Stats.add lat (Cluster.now cl -. t0)
              done)
        done;
        fun () -> lat)
  in
  {
    cap_rps = float_of_int (n_clients * writes_each) /. Float.max 1e-9 p.pio;
    closed_lat = p.value;
  }

(* Default churn schedule: an eighth of the clients (at least one)
   leaves at a third of the scheduled injection span and rejoins at two
   thirds — enough rotation that arrival routing demonstrably bends
   around Down clients, small enough that capacity barely moves. *)
let churn_schedule ~n_clients ~span =
  if not (churn_enabled ()) then []
  else begin
    let movers = Stdlib.max 1 (n_clients / 8) in
    let acc = ref [] in
    for m = 0 to movers - 1 do
      let c = m * Stdlib.max 1 (n_clients / movers) in
      acc :=
        Load.Driver.{ ch_at = span /. 3.; ch_client = c; ch_up = false }
        :: Load.Driver.{ ch_at = 2. *. span /. 3.; ch_client = c; ch_up = true }
        :: !acc
    done;
    List.rev !acc
  end

(* One open-loop rate point on a fresh cluster, through the shared
   measured pass. *)
let run_point ~n_clients ~requests ~process ~cap ~churn rate =
  let span = float_of_int requests /. rate in
  let spec =
    Load.Driver.
      {
        process = Option.get (Load.Arrivals.of_string ~rate process);
        seed = seed_base;
        requests;
        max_in_flight = cap;
        churn = (if churn then churn_schedule ~n_clients ~span else []);
        start_at = 0.;
      }
  in
  (Harness.measure ~name:"exp_load" ~policy:Seqdlm.Policy.seqdlm ~servers:1
     ~clients:n_clients (fun cl _spawn ->
       let h = Load.Driver.launch cl spec ~prepare ~request in
       fun () -> Load.Driver.result h))
    .value

type setup = {
  s_clients : int;
  s_requests : int;
  s_process : string;
  s_cap : int;
  s_churn : bool;
  s_slo_s : float;
  s_rates : float list;
  s_bisect : int;
  s_cal : calibration;
}

let setup ~scale =
  let n_clients = clients () in
  let writes_each = Harness.scaled ~scale 8 in
  let requests =
    Knob.env_int "CCPFS_LOAD_REQUESTS" ~default:(n_clients * writes_each)
  in
  let cal = calibrate ~n_clients ~writes_each in
  let slo_s =
    Knob.env "CCPFS_LOAD_SLO_MS"
      ~default:(3. *. Stats.percentile cal.closed_lat 99.)
      (fun s ->
        Option.bind (float_of_string_opt s) (fun ms ->
            if ms > 0. then Some (ms /. 1e3) else None))
  in
  let rates =
    Knob.env_floats "CCPFS_LOAD_RATES"
      ~default:
        (List.map
           (fun m -> m *. cal.cap_rps)
           (Knob.env_floats "CCPFS_LOAD_GRID" ~default:default_grid))
  in
  {
    s_clients = n_clients;
    s_requests = requests;
    s_process = process_name ();
    s_cap = Knob.env_int "CCPFS_LOAD_CAP" ~default:(4 * n_clients);
    s_churn = churn_enabled ();
    s_slo_s = slo_s;
    s_rates = rates;
    s_bisect = Knob.env_int "CCPFS_LOAD_BISECT" ~default:0;
    s_cal = cal;
  }

(* The sweep, parameterised for tests (the determinism test re-runs this
   with a fixed setup and compares the JSON rows bit-for-bit). *)
let sweep_points s =
  Load.Sweep.run
    {
      Load.Sweep.rates = s.s_rates;
      slo_s = s.s_slo_s;
      min_achieved_frac = 0.95;
      bisect_steps = s.s_bisect;
    }
    ~run_rate:
      (run_point ~n_clients:s.s_clients ~requests:s.s_requests
         ~process:s.s_process ~cap:s.s_cap ~churn:s.s_churn)

let row_of s (p : Load.Sweep.point) =
  let r = p.Load.Sweep.p_result in
  let open Obs.Json in
  Obj
    [
      ("experiment", Str "load");
      ("scale", Float (Obs.Hub.scale ()));
      ("clients", Int s.s_clients);
      ("process", Str s.s_process);
      ("seed", Int seed_base);
      ("batch_k", Int Config.default.Config.batch_k);
      ("requests", Int s.s_requests);
      ("xfer_bytes", Int xfer);
      ("cap_in_flight", Int s.s_cap);
      ("churn", Bool s.s_churn);
      ("slo_s", Float s.s_slo_s);
      ("offered_rate_rps", Float p.Load.Sweep.p_rate);
      ("achieved_rate_rps", Float r.Load.Driver.r_achieved_rate);
      ("goodput_Bps", Float r.Load.Driver.r_goodput_Bps);
      ("arrivals", Int r.Load.Driver.r_arrivals);
      ("completed", Int r.Load.Driver.r_completed);
      ("shed", Int r.Load.Driver.r_shed);
      ("window_s", Float r.Load.Driver.r_window_s);
      ("sojourn_p50_s", Float p.Load.Sweep.p_p50);
      ("sojourn_p99_s", Float p.Load.Sweep.p_p99);
      ("sojourn_p999_s", Float p.Load.Sweep.p_p999);
      ("violates", Bool p.Load.Sweep.p_violates);
      ("knee", Bool p.Load.Sweep.p_knee);
    ]

let results_schema = "ccpfs.load/1"
let results_path = "BENCH_load.json"

let run ~scale =
  let s = setup ~scale in
  let points = sweep_points s in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Open-loop load: %s arrivals, %d clients, %d requests/point, \
            SLO p99 <= %s"
           s.s_process s.s_clients s.s_requests
           (Units.seconds_to_string s.s_slo_s))
      ~columns:
        [ "offered/s"; "achieved/s"; "goodput"; "shed"; "p50"; "p99"; "p999";
          "knee" ]
  in
  List.iter
    (fun (p : Load.Sweep.point) ->
      let r = p.Load.Sweep.p_result in
      Table.add_row tbl
        [
          Printf.sprintf "%.1f" p.Load.Sweep.p_rate;
          Printf.sprintf "%.1f" r.Load.Driver.r_achieved_rate;
          Units.bytes_to_string (int_of_float r.Load.Driver.r_goodput_Bps) ^ "/s";
          string_of_int r.Load.Driver.r_shed;
          Units.seconds_to_string p.Load.Sweep.p_p50;
          Units.seconds_to_string p.Load.Sweep.p_p99;
          Units.seconds_to_string p.Load.Sweep.p_p999;
          (if p.Load.Sweep.p_knee then "<- knee"
           else if p.Load.Sweep.p_violates then "over"
           else "");
        ])
    points;
  let n =
    Obs.Results.write ~append:true ~schema:results_schema ~path:results_path
      (List.map (row_of s) points)
  in
  Table.add_note tbl
    (Printf.sprintf
       "closed-loop capacity %.1f req/s (calibration); %d row(s) in %s"
       s.s_cal.cap_rps n results_path);
  Table.print tbl
