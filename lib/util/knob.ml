let env key parse ~default =
  match Sys.getenv_opt key with
  | None -> default
  | Some s -> Option.value (parse (String.trim s)) ~default

let env_int ?(min = 1) key ~default =
  env key ~default (fun s ->
      Option.bind (int_of_string_opt s) (fun n ->
          if n >= min then Some n else None))

(* Comma-separated positive numbers; malformed or non-positive tokens are
   dropped, and a list with nothing left falls back to [default]. *)
let env_list of_string ~positive key ~default =
  env key ~default (fun s ->
      match
        String.split_on_char ',' s
        |> List.filter_map (fun tok ->
               Option.bind (of_string (String.trim tok)) (fun v ->
                   if positive v then Some v else None))
      with
      | [] -> None
      | l -> Some l)

let env_ints = env_list int_of_string_opt ~positive:(fun n -> n > 0)
let env_floats = env_list float_of_string_opt ~positive:(fun v -> v > 0.)
