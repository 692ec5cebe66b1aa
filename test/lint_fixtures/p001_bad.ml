(* Planted P001: [assert false] / [failwith] in RPC-reply match arms —
   the pre-PR 2 shape that turned protocol bugs into bare
   [Assert_failure] crashes with no endpoint or request context. *)

let size_of (r : Ccpfs.Meta_server.resp) =
  match r with
  | Ccpfs.Meta_server.Attrs a -> a.Ccpfs.Meta_server.size
  | Ccpfs.Meta_server.Ok -> failwith "unexpected Ok"
  | Ccpfs.Meta_server.Enoent -> assert false

(* The reply type here is a plain [int], not a registered reply type:
   only the RPC entry-point list catches this arm. *)
let doubled ep ~src ~view =
  match Netsim.Rpc.request ep ~src ~view 21 with
  | 42 -> `Doubled
  | _ -> assert false
