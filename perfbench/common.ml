(* Inputs shared by every subcommand: the name space, the self-checking
   values, clocks and the one-line JSON that run.py parses. *)

module Path = Sdb_nameserver.Name_path
module Ns = Sdb_nameserver.Nameserver

(* Name [i] is /gNNN/nNNNNNN: a thousand names per group, so the tree
   has the two-level shape of the paper's name server. *)
let path_of i = [ Printf.sprintf "g%03d" (i / 1000); Printf.sprintf "n%06d" i ]

let value_len = 64

(* A value carries the name index it was written for, its writer and
   that writer's sequence number, padded to [value_len] bytes.  Writers
   are 'p' (population, seq 0), 't' (restart tail) and '0'/'1' (the
   load generator's client threads). *)
let value_of ~idx ~writer ~seq =
  let head = Printf.sprintf "%07d.%c.%010d." idx writer seq in
  let pad = Char.chr (Char.code 'a' + ((idx + seq) mod 26)) in
  head ^ String.make (value_len - String.length head) pad

type stamp = { s_idx : int; s_writer : char; s_seq : int }

let parse_value v =
  if String.length v <> value_len then None
  else
    match
      ( int_of_string_opt (String.sub v 0 7),
        v.[8],
        int_of_string_opt (String.sub v 10 10) )
    with
    | Some s_idx, s_writer, Some s_seq
      when String.equal v (value_of ~idx:s_idx ~writer:s_writer ~seq:s_seq) ->
      Some { s_idx; s_writer; s_seq }
    | _ -> None

(* Bytes the user stored: every name's text plus its value. *)
let live_bytes names =
  let acc = ref 0 in
  for i = 0 to names - 1 do
    acc := !acc + String.length (Path.to_string (path_of i)) + value_len
  done;
  !acc

let now_ns () = Sdb_util.Mono.now_ns ()
let now_s () = Int64.to_float (now_ns ()) /. 1e9

(* CPU seconds this process has used, user plus system. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One JSON object per line on stdout; values are numbers, strings
   (already safe) or booleans. *)
type json = N of float | I of int | S of string | B of bool

let emit fields =
  let item (k, v) =
    let v =
      match v with
      | N f when Float.is_finite f -> Printf.sprintf "%.17g" f
      | N _ -> "null"
      | I i -> string_of_int i
      | S s -> Printf.sprintf "%S" s
      | B b -> string_of_bool b
    in
    Printf.sprintf "%S: %s" k v
  in
  print_endline ("{" ^ String.concat ", " (List.map item fields) ^ "}")

let percentile_or_nan h p =
  match Sdb_util.Histogram.percentile_opt h p with Some v -> v | None -> Float.nan

(* Median of per-batch ns/op: the micro timings run each operation in
   batches so one descheduled batch cannot move the result. *)
let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let parse_args spec usage =
  let argv = Array.sub Sys.argv 1 (max 0 (Array.length Sys.argv - 1)) in
  try Arg.parse_argv argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
  with Arg.Bad m | Arg.Help m ->
    prerr_string m;
    exit 2
