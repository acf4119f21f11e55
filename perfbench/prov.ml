(** Provenance printed with every report: what was measured, built how,
    on what. *)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))
  with Sys_error _ -> None

let trim = String.trim

(* The commit, read from .git without running git; "none" outside a git
   checkout. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
      let head = trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (Filename.concat ".git" r) with
          | Some h -> trim h
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  String.split_on_char '\n' packed
                  |> List.find_map (fun l ->
                         match String.split_on_char ' ' l with
                         | [ h; r' ] when r' = r -> Some h
                         | _ -> None)
                  |> Option.value ~default:"unknown"))
      | _ -> head)

(* MD5 over the library sources, so a report identifies the code it
   measured even where there is no git metadata. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
               then [ p ]
               else [])
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Option.iter (Buffer.add_string b) (read_file p))
    (files "lib");
  Digest.to_hex (Digest.string (Buffer.contents b))

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             match String.index_opt l ':' with
             | Some i when trim (String.sub l 0 i) = "model name" ->
                 Some (trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)
      |> Option.value ~default:"unknown"

let to_json () =
  Lf_obs.Json.Obj
    [
      ("commit", Lf_obs.Json.Str (commit ()));
      ("lib_md5", Lf_obs.Json.Str (source_digest ()));
      ("nproc", Lf_obs.Json.Int (Domain.recommended_domain_count ()));
      ("cpu", Lf_obs.Json.Str (cpu_model ()));
      ("ocaml", Lf_obs.Json.Str Sys.ocaml_version);
      ("profile", Lf_obs.Json.Str Build_info.profile);
    ]
