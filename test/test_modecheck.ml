(* sdb_modecheck's suite: every rule must fire on its seeded fixture —
   compiled to a real .cmt, so the checker is exercised on genuine
   typedtrees, not synthetic summaries — at the seeded line, a waived
   twin and the disciplined fixtures must stay silent, the built-in
   self-test must pass, and the shipped lib/ and bin/ must check clean
   with the DESIGN.md §5 lockdep cross-check on. *)

let check = Alcotest.check

(* Tests run from the build context; walk up to the (copied)
   dune-project so the fixture and library .cmt trees resolve whether
   dune launched us from _build/default/test or elsewhere. *)
let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_root parent

(* The root may be the build context itself (dune runtest copies
   dune-project into _build/default) or the source root (dune exec from
   the repo top); in the latter case the artifacts sit under
   _build/default. *)
let build_roots () =
  match find_root (Sys.getcwd ()) with
  | None -> []
  | Some root ->
    [ root; List.fold_left Filename.concat root [ "_build"; "default" ] ]

let fixture_cmt name =
  let rel =
    List.fold_left Filename.concat "test"
      [ "modecheck_fixtures"; ".modecheck_fixtures.objs"; "byte";
        "modecheck_fixtures__" ^ name ^ ".cmt" ]
  in
  List.find_opt Sys.file_exists
    (List.map (fun r -> Filename.concat r rel) (build_roots ()))

let findings_of cmt =
  (Sdb_modecheck.analyze ~xcheck:false [ cmt ]).Sdb_modecheck.r_findings
  |> List.map (fun f -> (f.Sdb_modecheck.f_rule, f.Sdb_modecheck.f_line))
  |> List.sort_uniq compare

(* Each fixture must trip exactly the seeded (rule, line) pairs — a
   fixture that also trips something unplanned is a regression in the
   checker, not extra credit.  Graph-wide findings sit at line 0.  The
   discipline rules are scoped by source path: fixtures under
   modecheck_fixtures/lib/ stand for library code, the others for
   bin/. *)
let fixture_cases =
  [
    ("Fx_mode", [ ("mode", 10) ]);
    ("Fx_chain", [ ("mode", 12) ]);
    ("Fx_iomutex", [ ("io-under-mutex", 8); ("unprotected-acquire", 7) ]);
    ("Fx_epoch", [ ("epoch-bracket", 4) ]);
    ("Fx_cycle", [ ("lock-order", 0) ]);
    ("Fx_noblock", [ ("noblock", 6) ]);
    ("Fx_epoch_safety", [ ("epoch-safety", 8) ]);
    ("Fx_clean", []);
    (* unix-io: seeded, waived, exempt in lib/storage, and reached
       through a module alias and a local open *)
    ("Fx_unix", [ ("unix-io", 4) ]);
    ("Fx_unix_waived", []);
    ("Fx_storage_io", []);
    ("Fx_unix_alias", [ ("unix-io", 6); ("unix-io", 10) ]);
    (* mutex-pairing: stdlib Mutex, Sdb_check.Mu, Schedcheck.Mutex, a
       mismatched pair; then the waived twin *)
    ( "Fx_mutex",
      [ ("mutex-pairing", 10); ("mutex-pairing", 14); ("mutex-pairing", 18);
        ("mutex-pairing", 23) ] );
    ("Fx_mutex_waived", []);
    (* print-in-lib: seeded, waived, allowed outside lib/, and reached
       through open Printf, Stdlib.Printf and a Format alias *)
    ("Fx_print", [ ("print-in-lib", 3) ]);
    ("Fx_print_waived", []);
    ("Fx_print_bin", []);
    ( "Fx_print_open",
      [ ("print-in-lib", 6); ("print-in-lib", 8); ("print-in-lib", 12) ] );
    (* global-mutable and swallow, each with its waived twin *)
    ("Fx_global", [ ("global-mutable", 4) ]);
    ("Fx_global_waived", []);
    ("Fx_swallow", [ ("swallow", 8); ("swallow", 10) ]);
    ("Fx_swallow_waived", []);
    (* the disciplined negatives: a local ref and sprintf in an
       unsynchronized file; paired, with_lock and Fun.protect locks,
       module state guarded by a mutex, a named handler, an ascribed
       ignore *)
    ("Fx_local_ref", []);
    ("Fx_synchronized", []);
    (* each malformed waiver is an attr finding and waives nothing *)
    ( "Fx_waivers_malformed",
      List.concat_map
        (fun l -> [ ("attr", l); ("print-in-lib", l) ])
        [ 6; 7; 8; 9; 10 ] );
  ]

let test_fixture (name, expected) () =
  match fixture_cmt name with
  | None -> () (* sandboxed without build-tree access: covered by CI *)
  | Some cmt ->
    check
      Alcotest.(list (pair string int))
      name (List.sort compare expected) (findings_of cmt)

(* Each discipline rule is one test over its fixtures: the seeded
   violation, its waived twin and the rule's negatives. *)
let rule_fixtures =
  [
    ("unix-io", [ "Fx_unix"; "Fx_unix_waived"; "Fx_storage_io"; "Fx_unix_alias" ]);
    ("mutex-pairing", [ "Fx_mutex"; "Fx_mutex_waived" ]);
    ("print-in-lib", [ "Fx_print"; "Fx_print_waived"; "Fx_print_bin"; "Fx_print_open" ]);
    ("global-mutable", [ "Fx_global"; "Fx_global_waived" ]);
    ("swallow", [ "Fx_swallow"; "Fx_swallow_waived" ]);
  ]

let test_rule fixtures () =
  List.iter
    (fun name -> test_fixture (name, List.assoc name fixture_cases) ())
    fixtures

let test_render () =
  match fixture_cmt "Fx_print" with
  | None -> ()
  | Some cmt -> (
    match (Sdb_modecheck.analyze ~xcheck:false [ cmt ]).r_findings with
    | [ f ] ->
      let s = Sdb_modecheck.render f in
      let prefix = "test/modecheck_fixtures/lib/fx_print.ml:3:15: [print-in-lib] " in
      check Alcotest.string "file:line:col: [rule] message" prefix
        (String.sub s 0 (min (String.length s) (String.length prefix)))
    | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let test_self_test () =
  match Sdb_modecheck.self_test () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Source .ml files under the build copies of [dirs]: dune copies each
   source beside its artifacts, so every one must be an analyzed unit. *)
let count_ml dirs =
  let rec go acc path =
    if Sys.is_directory path then
      if String.length (Filename.basename path) > 0
         && (Filename.basename path).[0] = '.'
      then acc
      else
        Array.fold_left
          (fun acc e -> go acc (Filename.concat path e))
          acc (Sys.readdir path)
    else if Filename.check_suffix path ".ml" then acc + 1
    else acc
  in
  List.fold_left go 0 dirs

(* The acceptance bar: the shipped lib/ and bin/ check clean under
   every rule, including the cross-check of the statically derived
   lock-order DAG against the runtime lockdep graph documented in
   DESIGN.md §5. *)
let test_tree_is_clean () =
  let root_with_cmts =
    List.find_opt
      (fun r ->
        let lib = Filename.concat r "lib" in
        Sys.file_exists lib && Sdb_modecheck.walk_cmts [ lib ] <> [])
      (build_roots ())
  in
  match root_with_cmts with
  | None -> () (* sandboxed without build-tree access: covered by CI *)
  | Some root ->
    begin
      let dirs = List.map (Filename.concat root) [ "lib"; "bin" ] in
      let cmts = Sdb_modecheck.walk_cmts dirs in
      let r = Sdb_modecheck.analyze ~xcheck:true cmts in
      check Alcotest.int "one unit per .ml under lib/ and bin/"
        (count_ml dirs) r.Sdb_modecheck.r_units;
      List.iter
        (fun f -> Printf.eprintf "%s\n" (Sdb_modecheck.render f))
        r.Sdb_modecheck.r_findings;
      check Alcotest.int "tree findings" 0 (List.length r.r_findings);
      check
        Alcotest.(list (pair string string))
        "static lock-order DAG matches the runtime lockdep graph"
        (List.sort compare Sdb_modecheck.expected_lockdep)
        (List.sort compare r.r_edges)
    end

let () =
  Helpers.run "modecheck"
    [
      ( "fixtures",
        List.filter_map
          (fun (name, _ as case) ->
            if List.exists (fun (_, fxs) -> List.mem name fxs) rule_fixtures
            then None
            else Some (Alcotest.test_case name `Quick (test_fixture case)))
          fixture_cases );
      ( "rules",
        List.map
          (fun (rule, fixtures) ->
            Alcotest.test_case rule `Quick (test_rule fixtures))
          rule_fixtures
        @ [ Alcotest.test_case "render" `Quick test_render ] );
      ( "gate",
        [
          Alcotest.test_case "self test" `Quick test_self_test;
          Alcotest.test_case "tree is clean" `Quick test_tree_is_clean;
        ] );
    ]
