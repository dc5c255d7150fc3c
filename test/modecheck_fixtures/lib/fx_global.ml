(* Seeded violation for [global-mutable]: module-level mutable state
   in a file that never touches a synchronization primitive. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 16
let get k = Hashtbl.find_opt table k
