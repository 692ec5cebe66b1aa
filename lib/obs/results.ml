let acc : Json.t list ref = ref [] (* newest first *)

let add row = acc := row :: !acc
let count () = List.length !acc

let rows () = List.rev !acc
let clear () = acc := []

let doc_of ~schema rows =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("generated_by", Json.Str "ccpfs (SeqDLM reproduction)");
      ("results", Json.List rows) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Rows already on disk, if [path] holds a valid document of the same
   schema.  A different schema, a missing file or an unparsable one all
   mean "start fresh" — appending across schemas would corrupt both. *)
let prior_rows ~schema ~path =
  if not (Sys.file_exists path) then []
  else
    match Json.parse (read_file path) with
    | Ok doc
      when (match Json.member "schema" doc with
           | Some (Json.Str s) -> String.equal s schema
           | Some _ | None -> false) -> (
        match Json.member "results" doc with
        | Some rows -> Json.get_list rows
        | None -> [])
    | Ok _ | Error _ -> []

let write ?(append = false) ~schema ~path rows =
  let all = (if append then prior_rows ~schema ~path else []) @ rows in
  Json.to_file path (doc_of ~schema all);
  List.length all
