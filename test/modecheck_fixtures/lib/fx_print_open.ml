(* [print-in-lib] through names only path resolution sees: an opened
   Printf, a fully qualified Stdlib path and a module alias. *)

open Printf

let greet () = printf "hi\n"

let warn () = Stdlib.Printf.eprintf "careful\n"

module F = Format

let show () = F.printf "x@."
