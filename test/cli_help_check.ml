(* CLI help smoke: render `--help=plain` for the top-level command and
   for every subcommand listed in its COMMANDS section, and fail when
   any of them exits non-zero, prints nothing, or writes a
   `cmdliner error` (a doc-markup error: cmdliner still prints the page
   and exits 0, so only stderr shows it).

   Usage: cli_help_check.exe PATH/TO/bespoke_cli.exe *)

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

(* Run [exe args], returning (exit code, stdout, stderr).  stderr is
   drained to a temporary file so neither pipe can fill up. *)
let run exe args =
  let err_file = Filename.temp_file "cli_help" ".err" in
  let err_fd = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin out_w err_fd
  in
  Unix.close out_w;
  Unix.close err_fd;
  let out = read_all (Unix.in_channel_of_descr out_r) in
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  let err = In_channel.with_open_bin err_file In_channel.input_all in
  Sys.remove err_file;
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255
  in
  (code, out, err)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Subcommand names: the lines of the COMMANDS section indented by
   exactly seven spaces and starting with a letter (a wrapped synopsis
   continues with an option). *)
let subcommands top_help =
  let lines = String.split_on_char '\n' top_help in
  let rec skip = function
    | [] -> []
    | l :: rest -> if l = "COMMANDS" then rest else skip rest
  in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: rest ->
      if l <> "" && l.[0] <> ' ' then List.rev acc
      else if
        String.length l > 7
        && String.sub l 0 7 = "       "
        && match l.[7] with 'a' .. 'z' -> true | _ -> false
      then
        let rest_of_line = String.sub l 7 (String.length l - 7) in
        take (List.hd (String.split_on_char ' ' rest_of_line) :: acc) rest
      else take acc rest
  in
  take [] (skip lines)

let () =
  let exe = Sys.argv.(1) in
  let failures = ref [] in
  let check label args =
    let code, out, err = run exe args in
    if code <> 0 then
      failures := Printf.sprintf "%s: exit %d" label code :: !failures;
    if String.trim out = "" then
      failures := Printf.sprintf "%s: empty help" label :: !failures;
    if contains err "cmdliner error" then
      failures := Printf.sprintf "%s: %s" label (String.trim err) :: !failures;
    out
  in
  let top = check "bespoke_cli" [ "--help=plain" ] in
  let cmds = subcommands top in
  if List.length cmds < 2 then
    failures := "no COMMANDS section found in the top-level help" :: !failures;
  List.iter (fun c -> ignore (check c [ c; "--help=plain" ])) cmds;
  match List.rev !failures with
  | [] ->
    Printf.printf "cli-help-smoke: top-level and %d subcommand help page(s) clean\n"
      (List.length cmds)
  | fs ->
    List.iter (fun f -> prerr_endline ("cli-help-smoke: " ^ f)) fs;
    exit 1
