module Int_map = Map.Make (Int)

(* Keyed by extent start; each binding [lo -> (hi, v)] is the extent
   [lo, hi) carrying [v].  Invariant: extents are pairwise disjoint.
   The entry count is tracked incrementally so [cardinal] is O(1) —
   the data server's cleanup trigger reads it on every flush RPC. *)
type 'a t = { m : (int * 'a) Int_map.t; n : int }

let empty = { m = Int_map.empty; n = 0 }
let is_empty t = Int_map.is_empty t.m
let cardinal t = t.n

(* Extents intersecting [lo, hi), unclipped, in offset order. *)
let raw_overlapping t lo hi =
  let first =
    match Int_map.find_last_opt (fun k -> k <= lo) t.m with
    | Some (l, (h, v)) when h > lo -> [ (l, h, v) ]
    | Some _ | None -> []
  in
  let rest =
    Int_map.to_seq_from (lo + 1) t.m
    |> Seq.take_while (fun (l, _) -> l < hi)
    |> Seq.map (fun (l, (h, v)) -> (l, h, v))
    |> List.of_seq
  in
  first @ rest

let remove_span t lo hi =
  let ov = raw_overlapping t lo hi in
  let m = List.fold_left (fun m (l, _, _) -> Int_map.remove l m) t.m ov in
  let n = t.n - List.length ov in
  let m, n =
    List.fold_left
      (fun (m, n) (l, h, w) ->
        let m, n = if l < lo then (Int_map.add l (lo, w) m, n + 1) else (m, n) in
        if h > hi then (Int_map.add hi (h, w) m, n + 1) else (m, n))
      (m, n) ov
  in
  { m; n }

let set t (iv : Interval.t) v =
  let t = remove_span t iv.lo iv.hi in
  { m = Int_map.add iv.lo (iv.hi, v) t.m; n = t.n + 1 }

let remove t (iv : Interval.t) = remove_span t iv.lo iv.hi

let find t off =
  match Int_map.find_last_opt (fun k -> k <= off) t.m with
  | Some (_, (h, v)) when h > off -> Some v
  | Some _ | None -> None

let overlapping t (iv : Interval.t) =
  raw_overlapping t iv.lo iv.hi
  |> List.map (fun (l, h, v) ->
         (Interval.v ~lo:(max l iv.lo) ~hi:(min h iv.hi), v))

(* The last extent starting before [iv.hi] overlaps [iv] iff it ends
   after [iv.lo]; every earlier extent ends before that one starts. *)
let overlaps t (iv : Interval.t) =
  match Int_map.find_last_opt (fun k -> k < iv.hi) t.m with
  | Some (_, (h, _)) -> h > iv.lo
  | None -> false

let covered m (iv : Interval.t) =
  let rec loop pos = function
    | [] -> pos >= iv.hi
    | ((e : Interval.t), _) :: rest ->
        if e.lo > pos then false else loop (max pos e.hi) rest
  in
  loop iv.lo (overlapping m iv)

let merge m (iv : Interval.t) v ~keep_new =
  (* Sub-ranges of [iv] where the new value wins: gaps, plus covered parts
     whose old value loses to [keep_new]. *)
  let ov = overlapping m iv in
  let won = ref [] in
  let push lo hi = if lo < hi then won := Interval.v ~lo ~hi :: !won in
  let pos =
    List.fold_left
      (fun pos ((e : Interval.t), w) ->
        push pos e.lo;
        if keep_new ~old:w then push e.lo e.hi;
        e.hi)
      iv.lo ov
  in
  push pos iv.hi;
  let won = List.rev !won in
  let m = List.fold_left (fun m seg -> set m seg v) m won in
  (m, won)

let fold f t acc =
  Int_map.fold (fun lo (hi, v) acc -> f (Interval.v ~lo ~hi) v acc) t.m acc

let iter f t = Int_map.iter (fun lo (hi, v) -> f (Interval.v ~lo ~hi) v) t.m
let to_list t = List.rev (fold (fun iv v acc -> (iv, v) :: acc) t [])
let of_list l = List.fold_left (fun t (iv, v) -> set t iv v) empty l

let coalesce ~eq t =
  let merged, last =
    fold
      (fun iv v (acc, last) ->
        match last with
        | Some ((p : Interval.t), pv) when p.hi = iv.lo && eq pv v ->
            (acc, Some (Interval.v ~lo:p.lo ~hi:iv.hi, pv))
        | Some (p, pv) -> ((p, pv) :: acc, Some (iv, v))
        | None -> (acc, Some (iv, v)))
      t ([], None)
  in
  let entries =
    match last with Some e -> List.rev (e :: merged) | None -> []
  in
  List.fold_left
    (fun t (iv, v) ->
      { m = Int_map.add iv.Interval.lo (iv.Interval.hi, v) t.m; n = t.n + 1 })
    empty entries

let filter f t =
  let m = Int_map.filter (fun lo (hi, v) -> f (Interval.v ~lo ~hi) v) t.m in
  { m; n = Int_map.cardinal m }

let check_invariants t =
  let _ =
    Int_map.fold
      (fun lo (hi, _) prev_hi ->
        assert (lo < hi);
        assert (lo >= prev_hi);
        hi)
      t.m 0
  in
  assert (t.n = Int_map.cardinal t.m)

let pp pp_v ppf m =
  Format.fprintf ppf "@[<v>";
  iter (fun iv v -> Format.fprintf ppf "%a -> %a@," Interval.pp iv pp_v v) m;
  Format.fprintf ppf "@]"
