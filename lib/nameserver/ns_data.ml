module P = Sdb_pickle.Pickle

type node = { mutable value : string option; children : (string, node) Hashtbl.t }

type tree = Tree of { tvalue : string option; tchildren : (string * tree) list }

let codec_node =
  P.mu "ns.node" (fun self ->
      P.record2 "ns.node"
        (P.field "value" (P.option P.string) (fun n -> n.value))
        (P.field "children" (P.hashtbl P.string self) (fun n -> n.children))
        (fun value children -> { value; children }))

let codec_tree =
  P.mu "ns.tree" (fun self ->
      P.record2 "ns.tree"
        (P.field "value" (P.option P.string) (fun (Tree t) -> t.tvalue))
        (P.field "children" (P.list (P.pair P.string self)) (fun (Tree t) -> t.tchildren))
        (fun tvalue tchildren -> Tree { tvalue; tchildren }))

let empty_node () = { value = None; children = Hashtbl.create 8 }
let leaf v = Tree { tvalue = v; tchildren = [] }

let sort_children cs = List.sort (fun (a, _) (b, _) -> String.compare a b) cs

let tree ?value children = Tree { tvalue = value; tchildren = sort_children children }

let rec find node = function
  | [] -> Some node
  | c :: rest -> (
    match Hashtbl.find_opt node.children c with
    | None -> None
    | Some child -> find child rest)

let mem node path = find node path <> None

let rec ensure node = function
  | [] -> node
  | c :: rest ->
    let child =
      match Hashtbl.find_opt node.children c with
      | Some child -> child
      | None ->
        let child = empty_node () in
        Hashtbl.replace node.children c child;
        child
    in
    ensure child rest

let set_value node path v =
  let n = ensure node path in
  n.value <- v

let delete_subtree node path =
  match path with
  | [] ->
    node.value <- None;
    Hashtbl.reset node.children
  | _ -> (
    match Name_path.parent path, Name_path.basename path with
    | Some parent_path, Some base -> (
      match find node parent_path with
      | None -> ()
      | Some parent -> Hashtbl.remove parent.children base)
    | _ -> assert false (* non-root paths always split *))

let rec materialize (Tree t) =
  let node = { value = t.tvalue; children = Hashtbl.create 8 } in
  List.iter
    (fun (label, sub) -> Hashtbl.replace node.children label (materialize sub))
    t.tchildren;
  node

let graft node path tr =
  match path with
  | [] ->
    let fresh = materialize tr in
    node.value <- fresh.value;
    Hashtbl.reset node.children;
    Hashtbl.iter (fun k v -> Hashtbl.replace node.children k v) fresh.children
  | _ -> (
    match Name_path.parent path, Name_path.basename path with
    | Some parent_path, Some base ->
      let parent = ensure node parent_path in
      Hashtbl.replace parent.children base (materialize tr)
    | _ -> assert false)

let rec snapshot ?depth node =
  let descend =
    match depth with
    | None -> Some None
    | Some 0 -> None
    | Some d -> Some (Some (d - 1))
  in
  let children =
    match descend with
    | None -> []
    | Some depth ->
      Hashtbl.fold
        (fun label child acc -> (label, (match depth with
           | None -> snapshot child
           | Some d -> snapshot ~depth:d child)) :: acc)
        node.children []
      |> sort_children
  in
  Tree { tvalue = node.value; tchildren = children }

let fold_bindings ?(prune = fun _ -> true) node ~init ~f =
  let rec go prefix node acc =
    let children =
      Hashtbl.fold (fun label child acc -> (label, child) :: acc) node.children []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    List.fold_left
      (fun acc (label, child) ->
        let path = prefix @ [ label ] in
        if prune path then go path child (f acc path child.value) else acc)
      acc children
  in
  go [] node init

let rec count_nodes node =
  Hashtbl.fold (fun _ child acc -> acc + count_nodes child) node.children 1

let rec weight_bytes node =
  let own = match node.value with None -> 0 | Some v -> String.length v in
  Hashtbl.fold
    (fun label child acc -> acc + String.length label + weight_bytes child)
    node.children own

let rec equal_tree (Tree a) (Tree b) =
  Option.equal String.equal a.tvalue b.tvalue
  && List.length a.tchildren = List.length b.tchildren
  && List.for_all2
       (fun (la, ta) (lb, tb) -> String.equal la lb && equal_tree ta tb)
       (sort_children a.tchildren) (sort_children b.tchildren)

let equal_node a b = equal_tree (snapshot a) (snapshot b)

(* ------------------------------------------------------------------ *)
(* Persistent representation                                           *)

module Smap = Map.Make (String)

type pnode = { pvalue : string option; pchildren : pnode Smap.t }

let empty_pnode = { pvalue = None; pchildren = Smap.empty }

let rec pfind n = function
  | [] -> Some n
  | c :: rest -> (
    match Smap.find_opt c n.pchildren with
    | None -> None
    | Some child -> pfind child rest)

let pmem n path = pfind n path <> None

let rec pensure n = function
  | [] -> n
  | c :: rest ->
    let child =
      Option.value (Smap.find_opt c n.pchildren) ~default:empty_pnode
    in
    { n with pchildren = Smap.add c (pensure child rest) n.pchildren }

let rec pset_value n path v =
  match path with
  | [] -> { n with pvalue = v }
  | c :: rest ->
    let child =
      Option.value (Smap.find_opt c n.pchildren) ~default:empty_pnode
    in
    { n with pchildren = Smap.add c (pset_value child rest v) n.pchildren }

(* Like the mutable [delete_subtree]: no intermediate creation — an
   absent path is a no-op, deleting the root empties it. *)
let pdelete_subtree n path =
  match path with
  | [] -> empty_pnode
  | _ ->
    let rec go n = function
      | [] -> assert false (* non-empty by the match above *)
      | [ base ] -> { n with pchildren = Smap.remove base n.pchildren }
      | c :: rest -> (
        match Smap.find_opt c n.pchildren with
        | None -> n
        | Some child ->
          { n with pchildren = Smap.add c (go child rest) n.pchildren })
    in
    go n path

let rec pof_tree (Tree t) =
  {
    pvalue = t.tvalue;
    pchildren =
      List.fold_left
        (fun m (label, sub) -> Smap.add label (pof_tree sub) m)
        Smap.empty t.tchildren;
  }

let pgraft n path tr =
  match path with
  | [] -> pof_tree tr
  | _ ->
    let rec go n = function
      | [] -> assert false
      | [ base ] -> { n with pchildren = Smap.add base (pof_tree tr) n.pchildren }
      | c :: rest ->
        let child =
          Option.value (Smap.find_opt c n.pchildren) ~default:empty_pnode
        in
        { n with pchildren = Smap.add c (go child rest) n.pchildren }
    in
    go n path

let rec psnapshot ?depth n =
  let descend =
    match depth with
    | None -> Some None
    | Some 0 -> None
    | Some d -> Some (Some (d - 1))
  in
  let children =
    match descend with
    | None -> []
    | Some depth ->
      (* Map bindings come out sorted, which is the tree invariant. *)
      Smap.fold
        (fun label child acc ->
          ( label,
            match depth with
            | None -> psnapshot child
            | Some d -> psnapshot ~depth:d child )
          :: acc)
        n.pchildren []
      |> List.rev
  in
  Tree { tvalue = n.pvalue; tchildren = children }

(* The wire format is [codec_tree]'s, written and read straight from
   and into the maps with no exchange tree in between.  Children go out
   in [Smap] key order, so equal stores give equal checkpoint bytes —
   canonical by construction, where the raw hashtbl pickle of
   [codec_node] is insertion-ordered.  On read, children are added one
   by one, so unsorted or repeated labels load as [pof_tree] loads them
   (the last binding of a label wins). *)
let codec_pnode =
  let children self =
    P.sequence ~length:Smap.cardinal
      ~iter:(fun f m -> Smap.iter (fun label child -> f (label, child)) m)
      ~build:(fun len next ->
        let m = ref Smap.empty in
        for _ = 1 to len do
          let label, child = next () in
          m := Smap.add label child !m
        done;
        !m)
      (P.pair P.string self)
  in
  P.conv ~name:"ns.pnode" Fun.id Fun.id
    (P.mu "ns.tree" (fun self ->
         P.record2 "ns.tree"
           (P.field "value" (P.option P.string) (fun n -> n.pvalue))
           (P.field "children" (children self) (fun n -> n.pchildren))
           (fun pvalue pchildren -> { pvalue; pchildren })))

let pchildren_labels n = Smap.fold (fun l _ acc -> l :: acc) n.pchildren [] |> List.rev

let pfold_bindings ?(prune = fun _ -> true) n ~init ~f =
  let rec go prefix n acc =
    Smap.fold
      (fun label child acc ->
        let path = prefix @ [ label ] in
        if prune path then go path child (f acc path child.pvalue) else acc)
      n.pchildren acc
  in
  go [] n init

let rec pcount_nodes n =
  Smap.fold (fun _ child acc -> acc + pcount_nodes child) n.pchildren 1

let rec pweight_bytes n =
  let own = match n.pvalue with None -> 0 | Some v -> String.length v in
  Smap.fold
    (fun label child acc -> acc + String.length label + pweight_bytes child)
    n.pchildren own

let rec pp_tree ppf (Tree t) =
  Format.fprintf ppf "@[<hv 2>{";
  (match t.tvalue with
  | Some v -> Format.fprintf ppf "=%S" v
  | None -> ());
  List.iter
    (fun (label, sub) -> Format.fprintf ppf "@ %s:%a" label pp_tree sub)
    t.tchildren;
  Format.fprintf ppf "}@]"
