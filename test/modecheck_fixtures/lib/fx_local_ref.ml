(* No synchronization here, and no finding either: a ref local to a
   function is not shared, and sprintf builds a string without
   printing it. *)

let count xs =
  let acc = ref 0 in
  List.iter (fun _ -> incr acc) xs;
  !acc

let label n = Printf.sprintf "n=%d" n
