open Dessim

type reliability = {
  rel_timeout : float;
  rel_base_backoff : float;
  rel_max_backoff : float;
}

let reliability_for (p : Params.t) =
  {
    rel_timeout = 40. *. p.Params.rtt;
    rel_base_backoff = 4. *. p.Params.rtt;
    rel_max_backoff = 200. *. p.Params.rtt;
  }

type 'resp attempt = Reply of 'resp * int | Stale of int | Timeout

type fault = { f_loss : float; f_dup : float; f_rng : unit -> float }

(* A fence stamp turns a message into fenced traffic: the caller's view
   of the serving epoch, an optional at-most-once key, the incarnation
   the message was sent to, and the reply leg for the fence's [Stale]
   rejection. *)
type stamp = {
  s_epoch : int;
  s_req_id : int option;
  s_inc : int;
  s_stale : int -> unit;
}

(* One message on the wire.  [m_reply] starts the reply leg (a no-op for
   one-way sends). *)
type ('req, 'resp) msg = {
  m_req : 'req;
  m_bytes : int;
  m_stamp : stamp option;
  m_reply : 'resp -> unit;
}

(* At-most-once bookkeeping: the first delivery of a request id runs the
   handler; retried or duplicated deliveries either replay the stored
   result or park a reply sender until the (possibly deferred) handler
   reply fires.  [de_epoch] is the membership epoch the request carried
   when the entry was created: a retry of the same id stamped with a
   newer epoch is a post-election re-submission, and a reply computed
   under the old epoch must not answer it.  [de_seq] names the entry's
   slot in the retention queue. *)
type 'resp dedup_entry = {
  mutable de_result : 'resp option;
  mutable de_pending : ('resp -> unit) list;
  de_epoch : int;
  de_seq : int;
}

(* Per-endpoint request coalescing (the transport half of the batching
   design, DESIGN.md §13): unstamped messages destined for this endpoint
   queue here and ride one simulated message, flushed when [b_max]
   messages have accumulated or [b_delay] elapses since the queue went
   non-empty. *)
type ('req, 'resp) batch = {
  b_max : int;
  b_delay : float;
  mutable b_items : ('req, 'resp) msg list; (* reversed *)
  mutable b_armed : bool; (* a delay-timer flush is pending *)
  b_size : Obs.Metrics.histogram; (* rpc.batch.size.<name> *)
}

type ('req, 'resp) endpoint = {
  eng : Engine.t;
  params : Params.t;
  node : Node.t;
  name : string;
  handler : 'req -> reply:('resp -> unit) -> unit;
  mutable count : int;
  latency : Obs.Metrics.histogram; (* caller-observed call round trip *)
  mutable epoch : int; (* membership epoch stamped on fenced replies *)
  mutable down : bool; (* crashed: fenced deliveries are dropped *)
  mutable incarnation : int; (* bumped by [reset]: cuts in-flight requests *)
  dedup : (int, 'resp dedup_entry) Hashtbl.t;
  dedup_order : (int * int) Queue.t; (* (id, de_seq) slots, for FIFO pruning *)
  mutable dedup_seq : int;
  mutable dedup_cap : int;
  mutable fault : fault option; (* loss/duplication, fenced traffic only *)
  retry_counter : Obs.Metrics.counter;
  mutable batch : ('req, 'resp) batch option;
}

(* A client's knowledge of server epochs, its request-id allocator, its
   retry policy and retry accounting.  Lives on the caller side so the
   DLM layer never depends on the HA layer: recovery bumps a view through
   the gather RPC, and the retry loop discards replies stamped with an
   older epoch. *)
module View = struct
  type t = {
    epochs : (string, int) Hashtbl.t;
    salt : int;
    rel : reliability option;
    mutable next_req : int;
    mutable retries : int;
  }

  let create ?(salt = 0) ?reliability () =
    { epochs = Hashtbl.create 8; salt; rel = reliability; next_req = 0;
      retries = 0 }

  let epoch t name =
    match Hashtbl.find_opt t.epochs name with Some e -> e | None -> 0

  let observe t name e = if e > epoch t name then Hashtbl.replace t.epochs name e

  let fresh_req_id t =
    t.next_req <- t.next_req + 1;
    (t.salt * 0x4000_0000) + t.next_req

  let reliability t = t.rel
  let retries t = t.retries
  let note_retry t = t.retries <- t.retries + 1
end

(* Bounded at-most-once retention: keep at most [dedup_cap] request ids,
   dropping the oldest *completed* entries first.  An entry whose handler
   has not replied yet is never dropped (its parked reply senders must
   fire), so the table is bounded by cap + in-flight handlers. *)
let default_dedup_cap = 4096

let endpoint eng params ~node ~name ~handler =
  let latency =
    Obs.Metrics.histogram (Engine.metrics eng) ("rpc.latency." ^ name)
  in
  let retry_counter = Obs.Metrics.counter (Engine.metrics eng) "rpc.retry" in
  { eng; params; node; name; handler; count = 0; latency; epoch = 0;
    down = false; incarnation = 0; dedup = Hashtbl.create 64;
    dedup_order = Queue.create (); dedup_seq = 0;
    dedup_cap = default_dedup_cap; fault = None; retry_counter; batch = None }

let calls t = t.count
let name t = t.name
let set_down t down = t.down <- down
let is_down t = t.down
let set_epoch t e = t.epoch <- e
let epoch t = t.epoch

let reset t =
  (* A crash cuts the wires: in-flight requests addressed to the old
     incarnation are dropped at delivery, and the dedup table — volatile
     server memory — is lost with everything else. *)
  t.incarnation <- t.incarnation + 1;
  Hashtbl.reset t.dedup;
  Queue.clear t.dedup_order

let set_dedup_cap t cap =
  if cap < 1 then invalid_arg "Rpc.set_dedup_cap: cap must be >= 1";
  t.dedup_cap <- cap

let set_fault t ~loss ~dup ~rng =
  if loss < 0. || loss > 1. || dup < 0. || dup > 1. then
    invalid_arg "Rpc.set_fault: rates must be in [0,1]";
  t.fault <- Some { f_loss = loss; f_dup = dup; f_rng = rng }

let clear_fault t = t.fault <- None

(* One draw from the fault plane: does it hit at [rate]? *)
let draw t rate =
  match t.fault with Some f -> f.f_rng () < rate f | None -> false

let pipe_for node params bytes =
  if bytes > params.Params.bulk_threshold then Node.rx node
  else Node.ctl_rx node

(* The liveness gate: a stamped message reaches only the live incarnation
   it was sent to. *)
let live t = function
  | None -> true
  | Some s -> not (t.down || s.s_inc <> t.incarnation)

(* Arrival at the server, run in a courier process: propagation, the
   server's NIC pipe, one RPC-processor operation, then the counters for
   the [n] messages carried.  The gate runs before and after the queues:
   the server may crash while the message sits in them. *)
let arrive t stamp ~bytes ~n =
  Engine.sleep t.eng (t.params.Params.rtt /. 2.);
  live t stamp
  && begin
       Node.add_net_bytes t.node bytes;
       Resource.consume (pipe_for t.node t.params bytes) (float_of_int bytes);
       Resource.consume (Node.ops t.node) 1.;
       live t stamp
       && begin
            for _ = 1 to n do Node.incr_rpc t.node done;
            t.count <- t.count + n;
            true
          end
     end

(* A request/notification span covering transport + the handler's
   synchronous part, on the courier process's own tid.  The deferred tail
   of a handler (a lock server parking [reply] until conflicts resolve)
   is deliberately outside: that wait shows up as the lock-lifecycle
   events instead. *)
let serve_span t kind bytes f =
  let sink = Engine.trace_sink t.eng in
  if not (Obs.Trace.enabled sink) then f ()
  else begin
    let tid = Engine.current_pid t.eng and span = kind ^ ":" ^ t.name in
    Obs.Trace.begin_span sink ~ts:(Engine.now t.eng) ~tid ~cat:"rpc"
      ~args:[ ("bytes", Obs.Json.Int bytes) ] span;
    Fun.protect f ~finally:(fun () ->
        Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid span)
  end

(* The reply leg: a courier carries [v] back to [src] and fills the ivar.
   The fault plane may drop the reply of a stamped message ([lossy]);
   duplicate arrivals are tolerated (the ivar is first-writer-wins). *)
let reply_leg t ~lossy ~src ~resp_bytes ivar v =
  Engine.spawn t.eng ~name:(t.name ^ ".reply")
    (fun () ->
      Engine.sleep t.eng (t.params.Params.rtt /. 2.);
      if not (lossy && draw t (fun f -> f.f_loss)) then begin
        Node.add_net_bytes src resp_bytes;
        Resource.consume (pipe_for src t.params resp_bytes)
          (float_of_int resp_bytes);
        if not (Ivar.is_filled ivar) then Ivar.fill ivar v
      end)

(* Evict oldest completed dedup entries once over cap.  Pruning stops at
   the first still-pending entry: its parked reply senders must fire, and
   FIFO retention keeps the guarantee simple — everything newer than the
   oldest retained id is still deduplicated.  A slot whose entry was
   purged and re-created since is stale: it is skipped, never evicting
   the newer entry. *)
let prune_dedup t =
  let continue = ref true in
  while !continue && Hashtbl.length t.dedup > t.dedup_cap do
    match Queue.peek_opt t.dedup_order with
    | None -> continue := false
    | Some (oldest, seq) -> (
        match Hashtbl.find_opt t.dedup oldest with
        | Some e when e.de_seq <> seq -> ignore (Queue.pop t.dedup_order)
        | Some e when e.de_result = None -> continue := false
        | _ ->
            ignore (Queue.pop t.dedup_order);
            Hashtbl.remove t.dedup oldest)
  done

(* At-most-once execution of request [id] stamped with [req_epoch]. *)
let dedup t id ~req_epoch req ~reply =
  let run_fresh () =
    t.dedup_seq <- t.dedup_seq + 1;
    let e =
      { de_result = None; de_pending = [ reply ]; de_epoch = req_epoch;
        de_seq = t.dedup_seq }
    in
    Hashtbl.replace t.dedup id e;
    Queue.push (id, e.de_seq) t.dedup_order;
    prune_dedup t;
    t.handler req ~reply:(fun resp ->
        match e.de_result with
        | Some _ -> () (* handler double-reply: keep the first *)
        | None ->
            e.de_result <- Some resp;
            let ps = List.rev e.de_pending in
            e.de_pending <- [];
            List.iter (fun send -> send resp) ps)
  in
  match Hashtbl.find_opt t.dedup id with
  | Some e when e.de_result <> None && req_epoch > e.de_epoch ->
      (* The stored reply predates an epoch bump this caller has already
         observed (a post-election re-submission): the cached result
         belongs to the fenced-off regime, so run the handler again
         against the current state. *)
      run_fresh ()
  | Some e -> (
      (* Retransmission (or duplicate) of a request we already accepted:
         never re-run the handler. *)
      match e.de_result with
      | Some resp -> reply resp
      | None -> e.de_pending <- reply :: e.de_pending)
  | None -> run_fresh ()

(* Hand an arrived message to the service: the epoch fence and
   at-most-once dedup for stamped messages, then the handler. *)
let dispatch t m =
  match m.m_stamp with
  | Some s when s.s_epoch < t.epoch -> s.s_stale t.epoch
  | Some { s_req_id = Some id; s_epoch; _ } ->
      dedup t id ~req_epoch:s_epoch m.m_req ~reply:m.m_reply
  | Some { s_req_id = None; _ } | None -> t.handler m.m_req ~reply:m.m_reply

(* The courier: one process per physical message, paying the arrival
   costs before serving. *)
let courier t ~proc ~kind ~bytes ~stamp ~n serve =
  Engine.spawn t.eng ~name:(t.name ^ proc)
    (fun () ->
      serve_span t kind bytes (fun () ->
          if arrive t stamp ~bytes ~n then serve ()))

(* Deliver a flushed batch: one courier pays propagation once, the NIC
   pipe for the summed payload, and a single RPC-processor operation
   amortized over the whole batch (the Eq. 1 term-① win batching buys).
   Messages are then served strictly in enqueue order, one dispatch per
   message. *)
let flush_batch t b cause =
  match List.rev b.b_items with
  | [] -> ()
  | items ->
      b.b_items <- [];
      let n = List.length items in
      let bytes = List.fold_left (fun a m -> a + m.m_bytes) 0 items in
      Obs.Metrics.observe b.b_size (float_of_int n);
      courier t ~proc:".batch" ~kind:"batch" ~bytes ~stamp:None ~n (fun () ->
          let sink = Engine.trace_sink t.eng in
          if Obs.Trace.enabled sink then
            Obs.Trace.instant sink ~ts:(Engine.now t.eng)
              ~tid:(Engine.current_pid t.eng) ~cat:"rpc"
              ~args:
                [ ("endpoint", Obs.Json.Str t.name);
                  ("n", Obs.Json.Int n); ("bytes", Obs.Json.Int bytes);
                  ("cause", Obs.Json.Str cause) ]
              "rpc.batch.flush";
          List.iter (dispatch t) items)

(* Queue a message on the batch; flush immediately on reaching b_max,
   else make sure a delay-timer flush is armed.  The timer event keeps
   the engine's heap non-empty while messages wait, so a caller blocked
   on a batched reply can never deadlock the run loop. *)
let enqueue_batch t b m =
  b.b_items <- m :: b.b_items;
  if List.length b.b_items >= b.b_max then flush_batch t b "size"
  else if not b.b_armed then begin
    b.b_armed <- true;
    Engine.schedule t.eng ~delay:b.b_delay (fun () ->
        b.b_armed <- false;
        flush_batch t b "timer")
  end

let set_batching t ~max_batch ~delay =
  if max_batch < 1 || delay < 0. then
    invalid_arg "Rpc.set_batching: max_batch must be >= 1, delay >= 0";
  (match t.batch with Some b -> flush_batch t b "reconfig" | None -> ());
  let b_size =
    Obs.Metrics.histogram (Engine.metrics t.eng) ("rpc.batch.size." ^ t.name)
  in
  t.batch <-
    Some { b_max = max_batch; b_delay = delay; b_items = []; b_armed = false;
           b_size }

let clear_batching t =
  match t.batch with
  | None -> ()
  | Some b ->
      flush_batch t b "reconfig";
      t.batch <- None

(* The one way onto the wire.  A stamped message draws its fate from the
   fault plane (lost, delivered, or delivered twice) and never batches;
   an unstamped one queues on the batch when batching is on. *)
let post t ~proc ~kind m =
  match (m.m_stamp, t.batch) with
  | None, Some b -> enqueue_batch t b m
  | stamp, _ ->
      let copies =
        match stamp with
        | None -> 1
        | Some _ ->
            let base = if draw t (fun f -> f.f_loss) then 0 else 1 in
            base + if draw t (fun f -> f.f_dup) then 1 else 0
      in
      for _ = 1 to copies do
        courier t ~proc ~kind ~bytes:m.m_bytes ~stamp ~n:1 (fun () ->
            dispatch t m)
      done

let ctl_bytes t = function
  | Some b -> b
  | None -> t.params.Params.ctl_msg_bytes

let call_async t ~src ?req_bytes ?resp_bytes req =
  let resp_bytes = ctl_bytes t resp_bytes in
  let ivar = Ivar.create t.eng in
  post t ~proc:".req" ~kind:"serve"
    { m_req = req; m_bytes = ctl_bytes t req_bytes; m_stamp = None;
      m_reply = reply_leg t ~lossy:false ~src ~resp_bytes ivar };
  ivar

let call t ~src ?req_bytes ?resp_bytes req =
  let sink = Engine.trace_sink t.eng in
  let t0 = Engine.now t.eng in
  let traced = Obs.Trace.enabled sink in
  let tid = if traced then Engine.current_pid t.eng else 0 in
  if traced then
    Obs.Trace.begin_span sink ~ts:t0 ~tid ~cat:"rpc" ("call:" ^ t.name);
  Fun.protect
    ~finally:(fun () ->
      let now = Engine.now t.eng in
      Obs.Metrics.observe t.latency (now -. t0);
      if traced then Obs.Trace.end_span sink ~ts:now ~tid ("call:" ^ t.name))
    (fun () ->
      Ivar.read ~ctx:("rpc:" ^ t.name)
        (call_async t ~src ?req_bytes ?resp_bytes req))

let notify t ~src ?req_bytes req =
  ignore src;
  post t ~proc:".notify" ~kind:"notify"
    { m_req = req; m_bytes = ctl_bytes t req_bytes; m_stamp = None;
      m_reply = ignore }

let call_fenced t ~src ?req_bytes ?resp_bytes ?timeout ~epoch:req_epoch ?req_id
    req =
  let resp_bytes = ctl_bytes t resp_bytes in
  let ivar = Ivar.create t.eng in
  let leg = reply_leg t ~lossy:true ~src ~resp_bytes ivar in
  post t ~proc:".req" ~kind:"serve"
    { m_req = req; m_bytes = ctl_bytes t req_bytes;
      m_stamp =
        Some { s_epoch = req_epoch; s_req_id = req_id; s_inc = t.incarnation;
               s_stale = (fun e -> leg (Stale e)) };
      m_reply = (fun resp -> leg (Reply (resp, t.epoch))) };
  match timeout with
  | None -> Ivar.read ~ctx:("rpc:" ^ t.name) ivar
  | Some d -> (
      match Ivar.read_timeout ~ctx:("rpc:" ^ t.name) ivar ~timeout:d with
      | Some outcome -> outcome
      | None -> Timeout)

let note_retry t view ~attempt =
  Obs.Metrics.incr t.retry_counter;
  View.note_retry view;
  let sink = Engine.trace_sink t.eng in
  if Obs.Trace.enabled sink then
    Obs.Trace.instant sink ~ts:(Engine.now t.eng)
      ~tid:(Engine.current_pid t.eng) ~cat:"rpc"
      ~args:[ ("endpoint", Obs.Json.Str t.name); ("attempt", Obs.Json.Int attempt) ]
      "rpc.retry"

let call_reliable t ~src ?req_bytes ?resp_bytes ~view req =
  let req_id = View.fresh_req_id view in
  let reliability = View.reliability view in
  let timeout = Option.map (fun r -> r.rel_timeout) reliability in
  let rec attempt k backoff =
    let req_epoch = View.epoch view t.name in
    let outcome =
      call_fenced t ~src ?req_bytes ?resp_bytes ?timeout ~epoch:req_epoch
        ~req_id req
    in
    let retry () =
      note_retry t view ~attempt:(k + 1);
      (* Jittered exponential backoff; the jitter draw comes from the
         engine's deterministic stream.  Clamp the accumulator itself,
         not just the drawn delay: a long outage doubles it once per
         attempt, and an unclamped float marches toward infinity (and
         loses the plateau if the cap is ever applied after jitter). *)
      match reliability with
      | None -> attempt (k + 1) backoff
      | Some rel ->
          Engine.sleep t.eng
            (backoff +. Engine.random_float t.eng (backoff /. 2.));
          attempt (k + 1) (Float.min (backoff *. 2.) rel.rel_max_backoff)
    in
    match outcome with
    | Reply (resp, e) when e >= View.epoch view t.name ->
        View.observe view t.name e;
        resp
    | Reply _ ->
        (* A grant from a fenced-off epoch arrived after we learned of the
           recovery: discard it and re-submit against the new epoch. *)
        retry ()
    | Stale e ->
        View.observe view t.name e;
        retry ()
    | Timeout -> retry ()
  in
  attempt 0
    (match reliability with Some r -> r.rel_base_backoff | None -> 0.)

let send_reliable t ~src ?req_bytes ~view req =
  Engine.spawn t.eng ~name:(t.name ^ ".send")
    (fun () -> ignore (call_reliable t ~src ?req_bytes ~view req))

let request t ~src ?req_bytes ?resp_bytes ~view req =
  match View.reliability view with
  | None -> call t ~src ?req_bytes ?resp_bytes req
  | Some _ -> call_reliable t ~src ?req_bytes ?resp_bytes ~view req

let send t ~src ?req_bytes ~view req =
  match View.reliability view with
  | None -> notify t ~src ?req_bytes req
  | Some _ -> send_reliable t ~src ?req_bytes ~view req
