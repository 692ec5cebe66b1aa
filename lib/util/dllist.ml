type 'a node = {
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable active : bool;
}

type 'a t = {
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable len : int;
}

let create () = { first = None; last = None; len = 0 }
let length t = t.len
let is_empty t = t.len = 0
let value n = n.value
let active n = n.active

let push_back t v =
  let n = { value = v; prev = t.last; next = None; active = true } in
  (match t.last with
  | Some l -> l.next <- Some n
  | None -> t.first <- Some n);
  t.last <- Some n;
  t.len <- t.len + 1;
  n

let remove t n =
  if not n.active then invalid_arg "Dllist.remove: node already removed";
  n.active <- false;
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.first <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.last <- n.prev);
  (* Keep [n.next]: an in-place walk parked on [n] when a re-entrant
     mutation removed it can still step forward ([succ]).  The stale
     link retains at most the removed segment, which is garbage as soon
     as the walk passes it.  [prev] is dropped — the only backward walk
     ([last_values]) starts from the live tail, never from a removed
     node — so removed nodes never chain a backward retention path. *)
  n.prev <- None;
  t.len <- t.len - 1

let first_node t = t.first
let succ n = n.next
let pred n = n.prev

let last_values t n =
  let rec go acc k = function
    | Some nd when k > 0 -> go (nd.value :: acc) (k - 1) nd.prev
    | Some _ | None -> acc
  in
  go [] n t.last

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
        let next = n.next in
        f n.value;
        go next
  in
  go t.first

let fold f t acc =
  let rec go acc = function
    | None -> acc
    | Some n ->
        let next = n.next in
        go (f acc n.value) next
  in
  go acc t.first

let exists p t =
  let rec go = function
    | None -> false
    | Some n -> p n.value || go n.next
  in
  go t.first

let to_list t = List.rev (fold (fun acc v -> v :: acc) t [])

let check_invariants t =
  let rec go count prev = function
    | None ->
        (match (t.last, prev) with
        | Some a, Some b -> assert (a == b)
        | None, None -> ()
        | _ -> assert false);
        count
    | Some n ->
        assert n.active;
        (match (n.prev, prev) with
        | Some p, Some q -> assert (p == q)
        | None, None -> ()
        | _ -> assert false);
        go (count + 1) (Some n) n.next
  in
  let count = go 0 None t.first in
  assert (count = t.len)
