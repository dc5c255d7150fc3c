module Fs = Sdb_storage.Fs

type generation = { version : int; checkpoint_file : string; log_file : string }

type recovery = {
  current : generation;
  previous : generation option;
  removed_files : string list;
  completed_switch : bool;
}

let checkpoint_file n = Printf.sprintf "checkpoint%d" n
let log_file n = Printf.sprintf "logfile%d" n
let archive_log_file n = Printf.sprintf "archive-logfile%d" n
let log_base_file n = Printf.sprintf "logbase%d" n
let version_file = "version"
let newversion_file = "newversion"

let generation version =
  { version; checkpoint_file = checkpoint_file version; log_file = log_file version }

(* Parse "checkpoint<N>" / "logfile<N>" / "logbase<N>"; anything else
   is foreign. *)
let parse_numbered name =
  let prefixed prefix =
    let plen = String.length prefix in
    if String.length name > plen && String.equal (String.sub name 0 plen) prefix then
      int_of_string_opt (String.sub name plen (String.length name - plen))
    else None
  in
  match (prefixed "checkpoint", prefixed "logfile", prefixed "logbase") with
  | Some n, _, _ -> Some (`Checkpoint n)
  | _, Some n, _ -> Some (`Log n)
  | _, _, Some n -> Some (`Base n)
  | None, None, None -> None

let parse_version_contents s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> Some n
  | Some _ | None -> None

(* A version file is valid only if present, readable and holding a
   non-negative integer; torn or damaged contents read as invalid,
   which is what makes writing [newversion] an atomic commit point. *)
let read_version fs file =
  if not (fs.Fs.exists file) then None
  else
    match Fs.read_file fs file with
    | contents -> parse_version_contents contents
    | exception Fs.Read_error _ -> None
    | exception Fs.Io_error _ -> None

let generation_complete fs gen =
  fs.Fs.exists gen.checkpoint_file && fs.Fs.exists gen.log_file

let write_checkpoint fs ~version blob =
  Fs.write_file fs (checkpoint_file version) blob

let log_base fs version =
  let file = log_base_file version in
  if not (fs.Fs.exists file) then None
  else
    match parse_version_contents (Fs.read_file fs file) with
    | Some lsn -> Some lsn
    | None -> Fs.io_fail ~op:"read" ~file "malformed log base"

(* Drop the generations below [keep_from] and anything of a generation
   above [current] (a switch that never committed).  With archiving, a
   superseded log (and its base record) joins the audit trail instead;
   its checkpoint is still removed. *)
let remove_generations fs ~archive_logs ~keep_from ~current removed =
  let remove name =
    if fs.Fs.exists name then begin
      fs.Fs.remove name;
      removed := name :: !removed
    end
  in
  List.iter
    (fun name ->
      match parse_numbered name with
      | Some (`Checkpoint n) -> if n < keep_from || n > current then remove name
      | Some (`Log n) ->
        if n > current then remove name
        else if n < keep_from then
          if archive_logs then fs.Fs.rename name (archive_log_file n)
          else remove name
      | Some (`Base n) ->
        if n > current || (n < keep_from && not archive_logs) then remove name
      | None -> ())
    (fs.Fs.list_files ())

let commit ?(archive_logs = false) ~retain_previous ~old_version ~new_version fs =
  if not (fs.Fs.exists (checkpoint_file new_version)) then
    invalid_arg "Checkpoint_store.commit: new checkpoint missing";
  if not (fs.Fs.exists (log_file new_version)) then
    invalid_arg "Checkpoint_store.commit: new log missing";
  Fs.write_file fs newversion_file (string_of_int new_version);
  (* Committed.  Everything after this point is garbage collection and
     may be redone by recovery after a crash. *)
  let keep_from =
    match old_version with
    | None -> new_version
    | Some old -> if retain_previous then old else new_version
  in
  remove_generations fs ~archive_logs ~keep_from ~current:new_version (ref []);
  fs.Fs.remove version_file;
  fs.Fs.rename newversion_file version_file

let archived_logs fs =
  let prefix = "archive-logfile" in
  let plen = String.length prefix in
  List.filter_map
    (fun name ->
      if String.length name > plen && String.equal (String.sub name 0 plen) prefix then
        match int_of_string_opt (String.sub name plen (String.length name - plen)) with
        | Some n -> Some (n, name)
        | None -> None
      else None)
    (fs.Fs.list_files ())
  |> List.sort compare

let recover ?(archive_logs = false) ~retain_previous fs =
  let removed = ref [] in
  let remove name =
    if fs.Fs.exists name then begin
      fs.Fs.remove name;
      removed := name :: !removed
    end
  in
  let newv = read_version fs newversion_file in
  let oldv = read_version fs version_file in
  let pick =
    match newv with
    | Some n when generation_complete fs (generation n) -> Some (n, true)
    | Some _ | None -> (
      match oldv with
      | Some n when generation_complete fs (generation n) -> Some (n, false)
      | Some _ | None -> None)
  in
  match pick with
  | None ->
    let complete_generation_exists =
      List.exists
        (fun name ->
          match parse_numbered name with
          | Some (`Checkpoint n) -> generation_complete fs (generation n)
          | Some (`Log _ | `Base _) | None -> false)
        (fs.Fs.list_files ())
    in
    (* An invalid [newversion] is normal (a torn commit — the paper's
       protocol says to fall back to [version]).  But a [version] file
       that exists yet cannot name a usable generation means the store
       is damaged: refusing to guess is safer than deleting data.  If
       [version] never existed, the very first initialization never
       committed, so the directory only holds uncommitted leftovers. *)
    if fs.Fs.exists version_file && (oldv <> None || complete_generation_exists) then
      Error "checkpoint store: version file unusable or names no complete generation"
    else if newv <> None && complete_generation_exists then
      Error "checkpoint store: newversion names no complete generation and no version file exists"
    else begin
      List.iter remove (fs.Fs.list_files ());
      Ok None
    end
  | Some (current_version, from_newversion) ->
    (* Complete a half-finished switch: the paper's restart "deletes
       any redundant files", then installs the committed version. *)
    let keep_from = if retain_previous then current_version - 1 else current_version in
    (* Also drop any partially written *next* generation.  Superseded
       logs join the audit trail when archiving is on (a crash between
       the commit point and the renames must not lose history). *)
    remove_generations fs ~archive_logs ~keep_from ~current:current_version removed;
    let completed_switch =
      if from_newversion then begin
        remove version_file;
        fs.Fs.rename newversion_file version_file;
        true
      end
      else begin
        remove newversion_file;
        false
      end
    in
    let current = generation current_version in
    let previous =
      if retain_previous && current_version > 0 then begin
        let prev = generation (current_version - 1) in
        if generation_complete fs prev then Some prev else None
      end
      else None
    in
    Ok (Some { current; previous; removed_files = List.rev !removed; completed_switch })

let disk_files fs =
  List.map (fun name -> (name, fs.Fs.file_size name)) (fs.Fs.list_files ())
